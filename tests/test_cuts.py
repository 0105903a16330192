import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest

import rupturekit

from rupturekit.cuts import (
    Cover,
    KnapsackConstraint,
    compute_abar,
    cover_inequality,
    cuts_for_knapsack,
    find_cover,
    is_cover,
    is_minimal_cover,
    lift_cover,
    verify_cut,
)
from rupturekit.errors import InputError


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
        assert is_minimal_cover(k, c.indices)
        assert c.indices == frozenset({1, 2})

    def test_no_cover(self):
        assert find_cover(KnapsackConstraint((1.0, 1.0), 5.0)) is None

    def test_equal_weights_tie_break(self):
        k = KnapsackConstraint((5.0, 5.0, 5.0), 9.0)
        assert find_cover(k).indices == frozenset({1, 2})

    def test_explicit_order(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        assert find_cover(k, [1, 2, 3, 4]).indices == frozenset({1, 2})

    def test_peel_to_minimality(self):
        k = KnapsackConstraint((1.0, 1.0, 5.0), 5.0)
        c = find_cover(k, [1, 2, 3])
        assert is_minimal_cover(k, c.indices)


class TestAbar:
    def test_spec_value(self):
        # cover {2,4} of 3x2+6x4 <= 6: min(3,abar)+min(6,abar)=6 -> abar=3
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        assert compute_abar(k, Cover(frozenset({2, 4}), True)) == 3.0

    def test_uniform_cover(self):
        k = KnapsackConstraint((5.0, 5.0, 5.0), 9.0)
        assert compute_abar(k, Cover(frozenset({1, 2}), True)) == 4.5

    def test_defining_identity(self):
        k = KnapsackConstraint((7.0, 2.0, 5.0, 4.0), 9.0)
        cover = find_cover(k)
        abar = compute_abar(k, cover)
        assert sum(min(k.coeff(j), abar) for j in cover.indices) == pytest.approx(
            k.capacity, abs=1e-9
        )


class TestLifting:
    def test_cover_inequality_shape(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        ci = cover_inequality(Cover(frozenset({1, 2}), True), k.size)
        assert ci.coeffs == (1, 1, 0, 0)
        assert ci.rhs == 1

    def test_lift_requires_minimal_cover(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        with pytest.raises(InputError):
            lift_cover(k, Cover(frozenset({1, 2, 4}), False))

    def test_lifted_dominates_ci(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        cut = lift_cover(k, Cover(frozenset({1, 2}), True))
        assert cut.coeffs == (1, 1, 0, 1)
        assert cut.rhs == 1
        assert cut.verified
        assert cut.dominates_ci

    def test_lifted_cut_is_valid(self):
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        cut = lift_cover(k, Cover(frozenset({1, 2}), True))
        for pt in feasible_points(k):
            assert sum(c * x for c, x in zip(cut.coeffs, pt)) <= cut.rhs

    def test_boundary_gamma_is_strict(self):
        # item weight exactly equal to a partial sum must not be lifted up:
        # with cover {1,4} the partial sums are 3, 6 and a_2 = a_3 = 3, so
        # both outside coefficients stay 0 (raising either cuts (0,1,1,0))
        k = KnapsackConstraint((4.0, 3.0, 3.0, 6.0), 6.0)
        cut = lift_cover(k, Cover(frozenset({1, 4}), True))
        assert cut.coeffs == (1, 0, 0, 1)

    def test_verify_rejects_invalid(self):
        from rupturekit.cuts import LiftedCoverCut

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


def test_import_leaves_numpy_unloaded():
    # verify_cut imports numpy on first use, so a fresh interpreter that
    # only imports rupturekit does not pay for it
    src = str(Path(rupturekit.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import rupturekit; "
         "print('numpy' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
