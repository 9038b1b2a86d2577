import json
from fractions import Fraction

import numpy as np
import pytest

from hesslab import serialize
from hesslab.serialize import (format_rational, parse_rational,
                               tensor_from_json, tensor_to_json)
from hesslab.tensor import Sym3Tensor, sym3_triples
from tensor_helpers import MALFORMED_INDEX_KEYS, random_rational


class TestRationals:
    def test_format_always_has_denominator(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-2, 4)) == "-1/2"

    def test_parse_round_trip(self):
        for x in (Fraction(0), Fraction(7, 3), Fraction(-5, 9)):
            assert parse_rational(format_rational(x)) == x

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/0", "a/b", "1.5", "1e5", "1E5"):
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestTensorDocuments:
    @pytest.mark.parametrize("order", [0, 2, 3, 4])
    def test_dense_round_trip(self, order):
        t = random_rational(3, order, seed=order)
        doc = tensor_to_json(t)
        assert doc["packing"] == "dense"
        assert tensor_from_json(doc) == t

    def test_sym3_round_trip(self):
        A = Sym3Tensor.random(4, seed=5)
        doc = tensor_to_json(A)
        assert doc["packing"] == "sym3"
        assert tensor_from_json(doc) == A

    def test_zeros_omitted(self):
        A = Sym3Tensor(2, tuple(Fraction(0) for _ in range(4)))
        doc = tensor_to_json(A)
        assert doc["entries"] == []

    def test_document_is_json_serializable(self):
        t = random_rational(2, 2, seed=9)
        json.dumps(tensor_to_json(t))

    def test_only_a_tensor_is_serialized(self):
        with pytest.raises(TypeError, match="cannot serialize list"):
            tensor_to_json([1, 2])

    def test_malformed_documents_rejected(self):
        good = tensor_to_json(random_rational(2, 2, seed=1))
        for mutate in (
            lambda d: d.pop("n"),
            lambda d: d.update(packing="bogus"),
            lambda d: d["entries"].append(["0 0 0", "1/1"]),   # wrong arity
            lambda d: d["entries"].append(["0 9", "1/1"]),     # index range
            lambda d: d["entries"].append(["0 0", "nope"]),    # bad rational
            lambda d: d["entries"].append([0, "1/1"]),         # index key not a string
            lambda d: d["entries"].append([None, "1/1"]),
            lambda d: d["entries"].append(list(d["entries"][0])),  # index given twice
        ):
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with pytest.raises(ValueError):
                tensor_from_json(doc)

    @pytest.mark.parametrize("n, order, packing", [
        (10 ** 6, 4, "dense"), (10 ** 6, 3, "sym3"), (9, 2, "dense"), (1, 2, "dense"),
        (2.5, 2, "dense"), ("3", 2, "dense"), (True, 3, "sym3"),
        (3, 7, "dense"), (3, -1, "dense"), (3, 2.0, "dense"),
    ])
    def test_size_rejected_before_allocating(self, monkeypatch, n, order, packing):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before validating n and order")

        monkeypatch.setattr(np, "full", refuse)
        monkeypatch.setattr(serialize, "sym3_triples", refuse)
        doc = {"n": n, "order": order, "packing": packing, "entries": []}
        with pytest.raises(ValueError):
            tensor_from_json(doc)

    @pytest.mark.parametrize("key", MALFORMED_INDEX_KEYS.values(), ids=MALFORMED_INDEX_KEYS)
    def test_index_key_is_ascii_digits_one_space_apart(self, key):
        doc = {"n": 3, "order": 3, "packing": "sym3", "entries": [[key, "1/1"]]}
        with pytest.raises(ValueError, match="malformed tensor document: index key"):
            tensor_from_json(doc)
        doc["entries"] = [["0 1 1", "1/1"]]
        assert tensor_from_json(doc).packed[sym3_triples(3).index((0, 1, 1))] == 1

    def test_sym3_requires_sorted_indices(self):
        doc = tensor_to_json(Sym3Tensor.random(2, seed=2))
        doc["entries"] = [["1 0 0", "1/1"]]
        with pytest.raises(ValueError):
            tensor_from_json(doc)
