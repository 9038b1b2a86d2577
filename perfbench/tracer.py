"""Span tracer that wraps hesslab's layer functions from outside the package.

Each wrapper records one span per call: (name, start, end, parent).  A
function bound by name in several modules (``from .curvature import
coordinates``) is wrapped in every module that holds it, because that is
where the call looks it up.  Methods are wrapped on their class.
``Tracer.install`` returns the tracer; ``Tracer.restore`` puts every
original object back.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time

# (module, attribute, span name)
FUNCTIONS = [
    ("hesslab.cli", "run", "cli.run"),
    ("hesslab.hessmap", "image_rank_census", "hessmap.image_rank_census"),
    ("hesslab.hessmap", "rho_jacobian", "hessmap.rho_jacobian"),
    ("hesslab.hessmap", "rho", "hessmap.rho"),
    ("hesslab.hessmap", "rho_raw", "hessmap.rho_raw"),
    ("hesslab.curvature", "symmetry_failures", "curvature.symmetry_check"),
    ("hesslab.curvature", "curvature_basis", "curvature.basis"),
    ("hesslab.curvature", "_coordinate_data", "curvature.coordinate_setup"),
    ("hesslab.curvature", "coordinates", "curvature.coordinates"),
    ("hesslab.curvature", "random_curvature", "curvature.random_curvature"),
    ("hesslab.linalg", "rref", "linalg.rref"),
    ("hesslab.linalg", "nullspace", "linalg.nullspace"),
    ("hesslab.linalg", "in_span", "linalg.in_span"),
    ("hesslab.identities", "pontryagin_quadratic", "identities.quadratic"),
    ("hesslab.identities", "cubic_identity", "identities.cubic"),
    ("hesslab.identities", "pontryagin_form", "identities.pontryagin"),
    ("hesslab.identities", "bianchi_residual", "identities.bianchi"),
    ("hesslab.tensor", "antisymmetrize", "tensor.antisymmetrize"),
    ("hesslab.rng", "rational_at", "rng.rational_at"),
    ("hesslab.rng", "integer_at", "rng.integer_at"),
    ("hesslab.miner", "enumerate_patterns", "miner.enumerate_patterns"),
    ("hesslab.miner", "canonicalize", "miner.canonicalize"),
    ("hesslab.miner", "mine", "miner.mine"),
]

# (module, class, method, span name)
METHODS = [
    ("hesslab.tensor", "Sym3Tensor", "to_dense", "tensor.to_dense"),
    ("hesslab.linalg", "RowSpace", "add", "linalg.rowspace_add"),
]


def _rref_cells(args, result):
    m = args[0]
    return len(m) * len(m[0]) if m else 0


def _antisymmetrize_terms(args, result):
    t, axes = args[:2]
    return math.factorial(len(axes)) * t.n ** t.order


# span name -> (counter, work(args, result)): work counted per call
HOOKS = {
    "linalg.rref": ("linalg.rref.cells", _rref_cells),
    "tensor.antisymmetrize": ("tensor.antisymmetrize.terms", _antisymmetrize_terms),
    "linalg.rowspace_add": ("linalg.rowspace_add.grew", lambda args, result: bool(result)),
    "miner.mine": ("miner.samples_used",
                   lambda args, result: result.rho_samples_used + result.generic_samples_used),
}


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start_ns, end_ns, parent]
        self.counts: dict[str, int] = {}
        self.canonical_forms: set = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.active = False

    # --- wrapping -------------------------------------------------------

    def wrap(self, fn, name):
        """fn, recording a span named name for each call while the tracer is active."""
        counter, work = HOOKS.get(name, (None, None))
        spans, stack, counts = self.spans, self._stack, self.counts
        canonical = self.canonical_forms if name == "miner.canonicalize" else None
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                counts[counter] += work(args, result)
            if canonical is not None and not result[2]:
                canonical.add(result[0])
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        for counter, _ in HOOKS.values():
            self.counts.setdefault(counter, 0)
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "hesslab" or k.startswith("hesslab."))]
        for modname, attr, name in FUNCTIONS:
            owner = sys.modules.get(modname)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))
        self.active = True
        return self

    def restore(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Leave calls made inside (output checks) out of the trace."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # --- aggregation ----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_ns and total_ns, plus the hook counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            agg = per_name.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
            agg["calls"] += 1
            agg["self_ns"] += end - start - inner
            agg["total_ns"] += end - start
        return {"spans": per_name, "counts": dict(self.counts),
                "canonical_forms": len(self.canonical_forms),
                "missing": list(self.missing)}

    def write_spans(self, fh) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent line index."""
        for name, start, end, parent in self.spans:
            fh.write(f'["{name}",{start},{end},{parent}]\n')

