import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rupturekit

from rupturekit.cuts import (
    VERIFY_MAX_STATES,
    KnapsackConstraint,
    LiftedCoverCut,
    compute_abar,
    cover_inequality,
    cuts_for_knapsack,
    find_cover,
    is_cover,
    is_minimal_cover,
    lift_cover,
    verify_cut,
)
from rupturekit.errors import InputError, SizeLimitError


def feasible_points(k):
    for bits in itertools.product((0, 1), repeat=k.size):
        if sum(w * x for w, x in zip(k.coeffs, bits)) <= k.capacity + 1e-9:
            yield bits


class TestKnapsackConstraint:
    def test_coeff_is_one_based(self):
        k = KnapsackConstraint((4.0, 3.0), 6.0)
        assert k.coeff(1) == 4.0
        assert k.coeff(2) == 3.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InputError):
            KnapsackConstraint((1.0,), 0.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError):
            KnapsackConstraint((-1.0, 2.0), 3.0)

    @pytest.mark.parametrize("weights,capacity", [
        ((math.nan, 2.0), 3.0), ((1.0, 2.0), math.nan), ((1.0, 2.0), math.inf),
    ])
    def test_rejects_non_finite(self, weights, capacity):
        with pytest.raises(InputError):
            KnapsackConstraint(weights, capacity)


class TestFindCover:
    def test_greedy_descending(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 2.0), 6.0)
        c = find_cover(k)
        assert is_minimal_cover(k, c)
        assert c == frozenset({1, 2})

    def test_no_cover(self):
        assert find_cover(KnapsackConstraint((1.0, 1.0), 5.0)) is None

    def test_equal_weights_tie_break(self):
        k = KnapsackConstraint((5.0, 5.0, 5.0), 9.0)
        assert find_cover(k) == frozenset({1, 2})

    def test_explicit_order(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        assert find_cover(k, [1, 2, 3, 4]) == frozenset({1, 2})

    def test_peel_to_minimality(self):
        k = KnapsackConstraint((1.0, 1.0, 5.0), 5.0)
        c = find_cover(k, [1, 2, 3])
        assert is_minimal_cover(k, c)


class TestAbar:
    def test_spec_value(self):
        # cover {2,4} of 3x2+6x4 <= 6: min(3,abar)+min(6,abar)=6 -> abar=3
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        assert compute_abar(k, frozenset({2, 4})) == 3.0

    def test_uniform_cover(self):
        k = KnapsackConstraint((5.0, 5.0, 5.0), 9.0)
        assert compute_abar(k, frozenset({1, 2})) == 4.5

    def test_defining_identity(self):
        k = KnapsackConstraint((7.0, 2.0, 5.0, 4.0), 9.0)
        cover = find_cover(k)
        abar = compute_abar(k, cover)
        assert sum(min(k.coeff(j), abar) for j in cover) == pytest.approx(
            k.capacity, abs=1e-9
        )


class TestLifting:
    def test_cover_inequality_shape(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        ci = cover_inequality(frozenset({1, 2}), k.size)
        assert ci.coeffs == (1, 1, 0, 0)
        assert ci.rhs == 1

    def test_lift_requires_minimal_cover(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        with pytest.raises(InputError):
            lift_cover(k, frozenset({1, 2, 4}))

    def test_lifted_dominates_ci(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        cut = lift_cover(k, frozenset({1, 2}))
        assert cut.coeffs == (1, 1, 0, 1)
        assert cut.rhs == 1
        assert cut.verified
        assert cut.dominates_ci

    def test_lifted_cut_is_valid(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        cut = lift_cover(k, frozenset({1, 2}))
        for pt in feasible_points(k):
            assert sum(c * x for c, x in zip(cut.coeffs, pt)) <= cut.rhs

    def test_boundary_gamma_is_strict(self):
        # item weight exactly equal to a partial sum must not be lifted up:
        # with cover {1,4} the partial sums are 3, 6 and a_2 = a_3 = 3, so
        # both outside coefficients stay 0 (raising either cuts (0,1,1,0))
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        cut = lift_cover(k, frozenset({1, 4}))
        assert cut.coeffs == (1, 0, 0, 1)

    def test_verify_rejects_invalid(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        bad = LiftedCoverCut((1, 1, 1, 1), 1, 3.0, frozenset({1, 4}),
                             frozenset())
        bad = verify_cut(k, bad)
        assert not bad.verified


class TestCutsForKnapsack:
    def test_emits_spec_fixture_cut(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        coeff_sets = {c.coeffs for c in cuts_for_knapsack(k)}
        assert (1, 1, 0, 1) in coeff_sets

    def test_oversized_item_fixed(self):
        k = KnapsackConstraint((9.0, 2.0, 2.0), 5.0)
        cuts = cuts_for_knapsack(k)
        fixings = [c for c in cuts if c.rhs == 0]
        assert fixings and fixings[0].coeffs[0] == 1

    def test_all_emitted_cuts_verified(self):
        k = KnapsackConstraint((7.0, 5.0, 4.0, 3.0, 2.0), 11.0)
        for cut in cuts_for_knapsack(k):
            assert cut.verified
            for pt in feasible_points(k):
                assert sum(c * x for c, x in zip(cut.coeffs, pt)) <= cut.rhs

    def test_no_cover_no_cuts(self):
        assert cuts_for_knapsack(KnapsackConstraint((1.0, 1.0), 9.0)) == []


def _random_knapsack(rng, n):
    kind = rng.randrange(4)
    if kind == 0:
        weights = [float(rng.randint(0, 9)) for _ in range(n)]
    elif kind == 1:
        weights = [round(rng.randint(0, 99) / 10, 1) for _ in range(n)]
    elif kind == 2:
        weights = [rng.uniform(0, 10) for _ in range(n)]
    else:
        weights = [rng.choice((0.0, 0.0, 0.1, 0.2, 0.3, 1.0)) for _ in range(n)]
    total = sum(weights)
    capacity = rng.choice((rng.uniform(0.05, max(total, 0.1)),
                           round(rng.uniform(0.1, max(total, 0.2)), 1),
                           float(rng.randint(1, 12))))
    return KnapsackConstraint(tuple(weights), capacity)


def test_verify_cut_matches_enumeration():
    # the emitted cuts, each with rhs - 1, and random integer cuts with
    # negative coefficients and right-hand sides, against all feasible points
    rng = random.Random(23)
    verdicts = []
    for _ in range(120):
        k = _random_knapsack(rng, rng.randint(0, 14))
        points = list(feasible_points(k))
        cuts = []
        for cut in cuts_for_knapsack(k):
            cuts += [cut, LiftedCoverCut(cut.coeffs, cut.rhs - 1, cut.abar,
                                         cut.cover, cut.cminus)]
        for _ in range(3):
            coeffs = tuple(rng.randint(-2, 4) for _ in range(k.size))
            cuts.append(LiftedCoverCut(coeffs, rng.randint(-2, k.size), 0.0,
                                       frozenset(), frozenset()))
        for cut in cuts:
            valid = all(sum(itertools.compress(cut.coeffs, pt)) <= cut.rhs
                        for pt in points)
            assert verify_cut(k, cut).verified == valid, (k, cut)
            verdicts.append(valid)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


class TestVerifyCap:
    """verify_cut refuses by the states its walk may visit, not by the
    number of variables."""

    @staticmethod
    def powers(zeros):
        # `zeros` items with coefficient 0 visit one state each; then
        # 1, 2, ..., 2^16 double the states up to 2^17: 2^18 - 2 visits
        coeffs = (0,) * zeros + tuple(2**j for j in range(17))
        k = KnapsackConstraint((0.0,) * len(coeffs), 1.0)
        return k, LiftedCoverCut(coeffs, sum(coeffs), 0.0, frozenset(),
                                 frozenset())

    def test_at_the_cap(self):
        assert VERIFY_MAX_STATES == 2**18
        k, cut = self.powers(zeros=2)
        assert verify_cut(k, cut).verified

    def test_past_the_cap(self):
        k, cut = self.powers(zeros=3)
        with pytest.raises(SizeLimitError, match=f"{2**18 + 1} left-side states"):
            verify_cut(k, cut)

    def test_doubling_coefficients_refused(self):
        # 1, 2, ..., 2^19 keep 2^20 states
        coeffs = tuple(2**j for j in range(20))
        k = KnapsackConstraint((0.0,) * 20, 1.0)
        with pytest.raises(SizeLimitError):
            verify_cut(k, LiftedCoverCut(coeffs, 2**20, 0.0, frozenset(),
                                         frozenset()))

    @pytest.mark.parametrize("n", [25, 200, 720])
    def test_unit_coefficients_count_n_states(self, n):
        # after k unit items the left sides are 0..k: (n^2 + 3n) / 2 visits
        k = KnapsackConstraint((1.0,) * n, 11.5)
        cover = frozenset(range(1, 13))
        cut = LiftedCoverCut((1,) * n, 11, 11.5 / 12, cover, cover)
        assert verify_cut(k, cut).verified

    def test_non_integer_coefficients_count_every_point(self):
        # a fraction gives no range of integer left sides: 2^k states
        k = KnapsackConstraint((0.0,) * 18, 1.0)
        whole = LiftedCoverCut((1,) * 18, 18, 0.0, frozenset(), frozenset())
        half = LiftedCoverCut((0.5,) * 18, 9, 0.0, frozenset(), frozenset())
        assert verify_cut(k, whole).verified
        with pytest.raises(SizeLimitError):
            verify_cut(k, half)


def test_import_leaves_numpy_unloaded():
    # a fresh interpreter that imports rupturekit does not load numpy, and
    # the cuts command runs where numpy cannot be imported at all
    src = str(Path(rupturekit.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import rupturekit; "
         "print('numpy' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "sys.modules['numpy'] = None; from rupturekit.cli import main; "
         "main(sys.argv[2:])", src,
         "cuts", "--coeffs", "4 3 3 6", "--capacity", "6"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["cuts"]
