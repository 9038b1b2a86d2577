"""Jet-dimension counting: metrics versus Hessian data.

A metric in dimension n has n(n+1)/2 components, while Hessian data is a
coordinate system plus a potential (n+1 functions) whose (k+2)-jet must be
tracked to control the k-jet of the metric.  Counting Taylor coefficients
shows the metric jets eventually outgrow the Hessian-data jets for n >= 3,
while for n = 2 the deficit stays negative at every order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction


def _taylor_terms(n: int, k: int) -> int:
    """Number of monomials of degree <= k in n variables: C(n+k, k), which
    is the sum of C(n+i-1, i) over i <= k by the hockey-stick identity."""
    return math.comb(n + k, k)


def jet_dim_metric(n: int, k: int) -> int:
    """Dimension of the space of k-jets of metrics at a point."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    return (n * (n + 1) // 2) * _taylor_terms(n, k)


def jet_dim_hessian_data(n: int, k: int) -> int:
    """Dimension of the space of (k+2)-jets of a coordinate system plus potential."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    return (n + 1) * _taylor_terms(n, k + 2)


def deficit(n: int, k: int) -> int:
    """jet_dim_metric(n, k) - jet_dim_hessian_data(n, k)."""
    return jet_dim_metric(n, k) - jet_dim_hessian_data(n, k)


@dataclass
class JetReport:
    n: int
    cap: int
    rows: list = field(default_factory=list)  # [k, dim_metric, dim_hessian, deficit]
    crossover: int | None = None
    monotone_after_crossover: bool = True
    growth_exponent_metric: float | None = None   # None when cap < 2
    growth_exponent_hessian: float | None = None
    formula_note: str = (
        "dimensions are computed from the two jet-count summations; the "
        "printed closed form for the per-order coefficient a_{k,n} is "
        "inconsistent with those summations and is not used")

    def to_json(self) -> dict:
        return asdict(self)


def crossover(n: int, cap: int) -> JetReport:
    """Smallest k <= cap where the metric jets outgrow the Hessian-data jets.

    Returns the full per-order table; crossover is None when the deficit
    never turns positive up to the cap.
    """
    if n < 2 or cap < 1:
        raise ValueError("need n >= 2 and cap >= 1")
    report = JetReport(n=n, cap=cap)
    for k in range(cap + 1):
        dm = jet_dim_metric(n, k)
        dh = jet_dim_hessian_data(n, k)
        report.rows.append([k, dm, dh, dm - dh])
        if dm > dh and report.crossover is None:
            report.crossover = k
    if report.crossover is not None:
        tail = [r[3] for r in report.rows[report.crossover:]]
        report.monotone_after_crossover = (all(d > 0 for d in tail)
                                           and all(b > a for a, b in zip(tail, tail[1:])))
    if cap < 2:
        return report  # the estimate compares orders cap // 2 >= 1 and cap
    half = cap // 2
    for attr, fn in (("growth_exponent_metric", jet_dim_metric),
                     ("growth_exponent_hessian", jet_dim_hessian_data)):
        ratio = Fraction(fn(n, cap), fn(n, half))
        try:
            log_ratio = math.log(float(ratio))
        except OverflowError:  # past float range: math.log takes ints of any size
            log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
        setattr(report, attr, log_ratio / math.log((cap + 1) / (half + 1)))
    return report
