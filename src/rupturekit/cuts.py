"""Knapsack cover machinery: minimal covers, cover inequalities, threshold
lifting, and an exact validity check.

A cover is a frozenset of 1-based item indices.  Every lifted cut is passed
through :func:`verify_cut`, a dynamic program over the cut's left-hand side,
before use; a cut that fails verification is downgraded to its plain cover
inequality and logged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, SizeLimitError

log = logging.getLogger(__name__)

TOL = 1e-9

# verify_cut's work: the left-side states its dynamic program may hold,
# summed over the items (see `_state_visits`).  One state visit costs about
# 0.1-0.3 us and a held state about 140 bytes, so the cap keeps a check
# under about 0.1 s and 40 MB.
VERIFY_MAX_STATES = 2**18


@dataclass(frozen=True)
class KnapsackConstraint:
    """sum_j a_j x_j <= b over binary x, with a_j >= 0 and b > 0.

    Indices are 1-based positions into `coeffs`.
    """

    coeffs: tuple[float, ...]
    capacity: float

    def __post_init__(self):
        if not all(math.isfinite(a) and a >= 0 for a in self.coeffs):
            raise InputError("knapsack coefficients must be finite and nonnegative")
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise InputError("knapsack capacity must be finite and positive")

    @property
    def size(self) -> int:
        return len(self.coeffs)

    def coeff(self, j: int) -> float:
        return self.coeffs[j - 1]


@dataclass(frozen=True)
class LiftedCoverCut:
    """sum_j coeffs[j-1] x_j <= rhs, valid for the knapsack polytope."""

    coeffs: tuple[int, ...]
    rhs: int
    abar: float
    cover: frozenset[int]
    cminus: frozenset[int]
    verified: bool = False
    dominates_ci: bool = False

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.coeffs, start=1) if c != 0)

    def to_dict(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "rhs": self.rhs,
            "abar": self.abar,
            "cover": sorted(self.cover),
            "cminus": sorted(self.cminus),
            "support": list(self.support),
            "verified": self.verified,
            "dominates_ci": self.dominates_ci,
        }


def _integer_scale(values: Sequence[float], max_denominator: int = 10**6) -> Optional[int]:
    """Smallest common multiplier turning all values into integers, or None."""
    scale = 1
    for v in values:
        f = Fraction(v).limit_denominator(max_denominator)
        if abs(float(f) - v) > TOL:
            return None
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
        if scale > max_denominator:
            return None
    return scale


def find_cover(k: KnapsackConstraint,
               order: Optional[Sequence[int]] = None) -> Optional[frozenset[int]]:
    """Greedy minimal cover: add items in descending weight (or the given
    index order) until the capacity is exceeded, then peel back to minimality.

    Returns None when no cover exists (total weight within capacity).
    """
    if sum(k.coeffs) <= k.capacity + TOL:
        return None
    if order is None:
        order = sorted(range(1, k.size + 1), key=lambda j: (-k.coeff(j), j))
    chosen: list[int] = []
    total = 0.0
    for j in order:
        chosen.append(j)
        total += k.coeff(j)
        if total > k.capacity + TOL:
            break
    for j in sorted(chosen):
        if total - k.coeff(j) > k.capacity + TOL:
            chosen.remove(j)
            total -= k.coeff(j)
    return frozenset(chosen)


def is_cover(k: KnapsackConstraint, indices: frozenset[int]) -> bool:
    return sum(k.coeff(j) for j in indices) > k.capacity + TOL


def is_minimal_cover(k: KnapsackConstraint, indices: frozenset[int]) -> bool:
    if not is_cover(k, indices):
        return False
    total = sum(k.coeff(j) for j in indices)
    return all(total - k.coeff(j) <= k.capacity + TOL for j in indices)


def cover_inequality(cover: frozenset[int], n: int) -> LiftedCoverCut:
    """Plain cover inequality: sum_{j in C} x_j <= |C|-1."""
    coeffs = tuple(1 if j in cover else 0 for j in range(1, n + 1))
    return LiftedCoverCut(coeffs, len(cover) - 1, 0.0, cover, cover)


def compute_abar(k: KnapsackConstraint, cover: frozenset[int]) -> float:
    """Unique positive threshold with sum_{j in C} min(a_j, abar) = b.

    Solved on the sorted piecewise-linear sum; exact rational arithmetic is
    used when the data admits a common denominator, 1e-9 tolerance otherwise.
    The boundary case sum(a_C) = b is accepted and yields the smallest
    solution, max(a_C).
    """
    if sum(k.coeff(j) for j in cover) < k.capacity - TOL:
        raise InputError("index set is not a cover")
    data = [k.coeff(j) for j in cover] + [k.capacity]
    scale = _integer_scale(data)
    if scale is not None:
        a = sorted(Fraction(round(k.coeff(j) * scale), scale) for j in cover)
        b = Fraction(round(k.capacity * scale), scale)
    else:
        a = sorted(Fraction(k.coeff(j)) for j in cover)
        b = Fraction(k.capacity)
    # with abar in (a[t-1], a[t]]: sum = prefix(t) + abar * (|C| - t)
    prefix = Fraction(0)
    for t in range(len(a)):
        cand = (b - prefix) / (len(a) - t)
        lo = a[t - 1] if t > 0 else Fraction(0)
        if lo < cand <= a[t] or (t == 0 and 0 < cand <= a[t]):
            return float(cand)
        prefix += a[t]
    # a proper cover always admits a threshold at or below max(a)
    raise AssertionError("no threshold found for a proper cover")


def _partial_sums(k: KnapsackConstraint, cover: frozenset[int], abar: float) -> list[float]:
    """S(r): sum of the r largest min(a_j, abar) over C, S(0)=0."""
    vals = sorted((min(k.coeff(j), abar) for j in cover), reverse=True)
    sums = [0.0]
    for v in vals:
        sums.append(sums[-1] + v)
    return sums


def lift_cover(k: KnapsackConstraint, cover: frozenset[int]) -> LiftedCoverCut:
    """Threshold lifting of a minimal cover.

    Coefficient 1 on C- = {j in C : a_j <= abar}; every other index k gets
    gamma_k = max{g : S(g) < a_k} where S are the descending partial sums of
    min(a_j, abar) over C.  The strict inequality settles the boundary case
    a_k = S(g), where the loose reading can cut off feasible points.  The
    result is always checked by verify_cut; on failure the plain cover
    inequality is returned instead.
    """
    if not is_minimal_cover(k, cover):
        raise InputError("lift_cover requires a minimal cover")
    abar = compute_abar(k, cover)
    cminus = frozenset(j for j in cover if k.coeff(j) <= abar + TOL)
    sums = _partial_sums(k, cover, abar)
    coeffs = []
    for j in range(1, k.size + 1):
        if j in cminus:
            coeffs.append(1)
            continue
        aj = k.coeff(j)
        gamma = 0
        for g in range(len(sums) - 1, -1, -1):
            if sums[g] < aj - TOL:
                gamma = g
                break
        coeffs.append(gamma)
    cut = LiftedCoverCut(tuple(coeffs), len(cover) - 1, abar, cover, cminus)
    cut = verify_cut(k, cut)
    if cut.verified:
        return cut
    log.warning(
        "lifted cut failed verification for a=%s b=%s C=%s; falling back to CI",
        k.coeffs, k.capacity, sorted(cover),
    )
    return verify_cut(k, cover_inequality(cover, k.size))


def verify_cut(k: KnapsackConstraint, cut: LiftedCoverCut) -> LiftedCoverCut:
    """Confirm that no knapsack-feasible binary point violates the cut, and
    record coefficient-wise dominance over the plain CI of the same cover.
    Returns a copy of the cut with `verified` and `dominates_ci` set.

    Walking the items in index order, least[p] is the least weight (summed
    in index order) of a 0/1 point on the items seen so far with left side
    p; states over capacity + TOL are dropped.  The cut is violated exactly
    when a state, the empty point's p = 0 included, has p > rhs + TOL.  This
    is the verdict of enumerating all 2^n points, float sums included: a
    point extended by zeros keeps its weight and left side, and float
    rounding is monotone, so the minimum commutes with adding the next
    weight (and a fitting point's prefixes fit).  A lifted cover cut has
    nonnegative integer coefficients: at most rhs + 1 <= n states, O(n^2).

    Raises SizeLimitError, before the walk, when `_state_visits` bounds its
    work above VERIFY_MAX_STATES.
    """
    n = k.size
    visits = _state_visits(cut.coeffs)
    if visits > VERIFY_MAX_STATES:
        raise SizeLimitError(f"verify_cut would visit up to {visits} left-side "
                             f"states, over the cap {VERIFY_MAX_STATES}")
    limit = k.capacity + TOL
    least = {0: 0.0}
    for a, c in zip(k.coeffs, cut.coeffs):
        for p, w in list(least.items()):
            w += a
            if w <= limit and w < least.get(p + c, math.inf):
                least[p + c] = w
    ok = max(least) <= cut.rhs + TOL
    ci = [1 if j in cut.cover else 0 for j in range(1, n + 1)]
    dominates = ok and all(c >= ref for c, ref in zip(cut.coeffs, ci))
    return LiftedCoverCut(
        cut.coeffs, cut.rhs, cut.abar, cut.cover, cut.cminus,
        verified=ok, dominates_ci=dominates,
    )


def _state_visits(coeffs: Sequence[int]) -> int:
    """A bound on the states verify_cut's dynamic program visits, summed
    over the items.  Each item at most doubles the states; with integer
    coefficients the left sides after k items also lie in a range of
    sum(|c_j|, j <= k) + 1 values, so the states after all n items are at
    most min(2^n, sum(|c_j|) + 1).  Counting stops past the cap."""
    integral = all(isinstance(c, int) for c in coeffs)
    visits, states, span = 0, 1, 0
    for c in coeffs:
        span += abs(c)
        states = min(2 * states, span + 1) if integral else 2 * states
        visits += states
        if visits > VERIFY_MAX_STATES:
            break
    return visits


def cuts_for_knapsack(k: KnapsackConstraint) -> list[LiftedCoverCut]:
    """Verified lifted cuts for a knapsack: single-item covers (variable
    fixings for items above capacity) plus greedy minimal covers seeded by
    descending-weight and natural index orders."""
    cuts: list[LiftedCoverCut] = []
    for j in range(1, k.size + 1):
        if k.coeff(j) > k.capacity + TOL:
            cuts.append(lift_cover(k, frozenset({j})))
    seen: set[frozenset[int]] = set()
    for order in (None, list(range(1, k.size + 1))):
        cover = find_cover(k, order)
        if cover is None or cover in seen:
            continue
        seen.add(cover)
        if all(k.coeff(j) <= k.capacity + TOL for j in cover):
            cuts.append(lift_cover(k, cover))
    return [c for c in cuts if c.verified]
