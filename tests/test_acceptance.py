"""Acceptance gate: one test per published criterion, exact tolerances.

Every check is an exact rational statement (zero tolerance); the only
floating-point appearance is the growth-exponent estimate, which has no
acceptance threshold.  Seeds are fixed so the run is reproducible bit for
bit.
"""

import itertools
from fractions import Fraction

import pytest

from hesslab import cartan, jets, linalg, miner, ricci3d
from hesslab.curvature import curvature_space_dim, random_curvature
from hesslab.hessmap import image_rank_census, rho, rho2, rho_raw
from hesslab.identities import (bianchi_residual, cubic_identity,
                                pontryagin_form, pontryagin_quadratic)
from hesslab.rng import rational_at
from hesslab.tensor import Sym3Tensor
from tensor_helpers import identity_spans


def test_01_image_dimension_n4():
    """20-sample exact rank census in dimension 4 reaches rank 18."""
    report = image_rank_census(4, samples=20, seed=1)
    assert report.max_rank == 18
    assert report.codim == 2


def test_02_surjectivity_n3():
    """Dimension-3 census reaches the full curvature-space dimension 6."""
    report = image_rank_census(3, samples=20, seed=1)
    assert report.max_rank == 6 == curvature_space_dim(3)


def test_03_quadratic_and_cubic_identities_vanish_n4():
    """Both degree-2 and degree-3 identities vanish exactly on 100 image points."""
    failures = []
    for seed in range(100):
        R = rho(Sym3Tensor.random(4, seed=seed, bound=6))
        if not pontryagin_quadratic(R).is_zero():
            failures.append(("quad", seed))
        if not cubic_identity(R).is_zero():
            failures.append(("cubic", seed))
    assert failures == []


def test_04_cubic_identity_fails_n5():
    """The cubic identity is violated on at least one of the first 5 seeds."""
    hits = [not cubic_identity(rho(Sym3Tensor.random(5, seed=s))).is_zero()
            for s in range(5)]
    assert any(hits)


def test_05_pontryagin_vanishing_and_nontriviality():
    """The degree-2 form vanishes on 25 image points each at n = 4, 5, 6,
    and is nonzero on a generic curvature sample at n = 4."""
    for n in (4, 5, 6):
        for seed in range(25):
            R = rho(Sym3Tensor.random(n, seed=seed, bound=5))
            assert pontryagin_form(R, 2).is_zero(), (n, seed)
    assert not pontryagin_form(random_curvature(4, seed=1), 2).is_zero()


def test_06_first_bianchi_on_image():
    """Zero first-Bianchi residual for 100 seeds in every dimension 2..6."""
    for n in range(2, 7):
        for seed in range(100):
            assert bianchi_residual(
                rho_raw(Sym3Tensor.random(n, seed=seed, bound=5))).is_zero()


class TestCriterion07MinerRecoversIdentities:
    def test_degree2_quotient_contains_double_trace(self):
        basis = miner.mine(4, 2, seed=3)
        vec = miner.coefficient_vector(
            basis.patterns, [(miner.trace_pattern(2), 1)])
        image, universal = identity_spans(basis)
        assert basis.quotient_dim >= 1
        assert image.contains(vec)
        assert not universal.contains(vec)

    def test_degree3_quotient_contains_cubic_combination(self):
        basis = miner.mine(4, 3, seed=3)
        vec = miner.coefficient_vector(basis.patterns,
                                       miner.cubic_identity_combination())
        image, universal = identity_spans(basis)
        assert basis.quotient_dim >= 1
        assert image.contains(vec)
        assert not universal.contains(vec)

    def test_degree3_combination_not_an_identity_n5(self):
        basis = miner.mine(5, 3, seed=3)
        vec = miner.coefficient_vector(basis.patterns,
                                       miner.cubic_identity_combination())
        assert not identity_spans(basis)[0].contains(vec)


def test_08_three_dimensional_inverse():
    """Exact diagonal Ricci prescription for 100 random triples, plus the
    isotropic branch at its three specified values."""
    count, seed = 0, 0
    while count < 100:
        lams = tuple(rational_at("acc8", seed, i, 12) for i in range(3))
        seed += 1
        if lams[0] == lams[2]:
            continue
        A = ricci3d.solve_from_eigenvalues(*lams)
        r = rho2(A)
        for i in range(3):
            for j in range(3):
                assert r[i, j] == (lams[i] if i == j else 0)
        count += 1
    for lam in (0, 4, Fraction(-7, 3)):
        ricci3d.solve_isotropic(lam)  # internal oracle raises on mismatch


def test_09_jet_census():
    """No crossover for n=2 up to 200; crossover exactly 12 for n=3 with the
    deficit positive and growing afterwards; closed-form inequality agrees."""
    assert jets.crossover(2, 200).crossover is None
    report = jets.crossover(3, 50)
    assert report.crossover == 12
    tail = [row[3] for row in report.rows[12:]]
    assert all(d > 0 for d in tail)
    assert all(b > a for a, b in zip(tail, tail[1:]))
    for k in range(50):
        assert (jets.deficit(3, k) > 0) == (
            3 * (k + 1) * (k + 2) > 2 * (k + 4) * (k + 5))


def test_10_cartan_two_dimensional():
    """Symbol ranks 3 and 6 for 100 random parameter triples; kernel
    dimensions (0, 3, 3); involutivity verdict true."""
    reports = cartan.parameter_sweep(100, seed=2)
    assert len(set(reports)) == 1
    rep = reports[0]
    assert rep.rank_symbol == 3
    assert rep.rank_prolonged == 6
    assert (rep.g01, rep.g02, rep.g12) == (0, 3, 3)
    assert rep.involutive


def test_11_property_suite_is_wired():
    """The per-module property suites run in this same pytest invocation;
    this sentinel asserts every laboratory module is importable and the
    public package surface is intact."""
    import hesslab
    for name in hesslab.__all__:
        assert getattr(hesslab, name, None) is not None
    import hesslab.cli
    import hesslab.serialize
