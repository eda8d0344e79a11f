from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posauctions.allocation import (allocate_bruteforce, allocate_greedy, allocate_optimal,
                                    greedy_slot_vector, optimal_slot_vector, weight_matrix)
from posauctions.engine import conservative_profile, random_instance
from posauctions.fixtures import greedy_gsp_gap, greedy_vcg_gap
from posauctions.model import (AuctionError, AuctionInstance, Bidder, DiscountCurve, welfare)


def apparent(instance, assignment, bids):
    return welfare(instance, assignment, bids)


class TestGreedy:
    def test_two_bidder_gap_profile(self):
        g = greedy_gsp_gap(0.1)
        a = allocate_greedy(g.instance, g.bids)
        assert a.slot_of == {1: 1, 0: 2}

    def test_three_bidder_truthful(self):
        t = greedy_vcg_gap(0.1)
        a = allocate_greedy(t.instance, t.bids)
        assert a.slot_of == {0: 1, 1: 2, 2: 3}

    def test_single_bidder(self):
        inst = AuctionInstance((Bidder(0, "a", 1.0),), {"a": DiscountCurve((0.8,))}, 1)
        assert allocate_greedy(inst, [0.4]).slot_of == {0: 1}

    def test_zero_bids_still_assigned(self):
        inst = AuctionInstance(
            (Bidder(0, "a", 1.0), Bidder(1, "a", 1.0)),
            {"a": DiscountCurve((1.0, 0.5))}, 2)
        a = allocate_greedy(inst, [0.0, 0.0])
        assert a.slot_of == {0: 1, 1: 2}  # ties break to the lowest id

    def test_more_bidders_than_slots(self):
        inst = AuctionInstance(
            tuple(Bidder(i, "a", 1.0) for i in range(3)),
            {"a": DiscountCurve((1.0,))}, 1)
        a = allocate_greedy(inst, [0.3, 0.9, 0.5])
        assert a.slot_of == {1: 1}

    def test_winning_bid_values_invariant_under_relabeling(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            inst = random_instance(rng, max_bidders=5, max_slots=3)
            bids = rng.uniform(0.05, 1.0, inst.n)
            weights = weight_matrix(inst, bids)
            if len(np.unique(weights.round(12))) < weights.size:
                continue  # only distinct discounted bids are order-free
            slots = greedy_slot_vector(weights)
            perm = rng.permutation(inst.n)
            shuffled = AuctionInstance(
                tuple(Bidder(i, inst.bidders[p].ad_type, inst.bidders[p].value)
                      for i, p in enumerate(perm)),
                inst.curves, inst.slot_count)
            slots2 = greedy_slot_vector(weight_matrix(shuffled, bids[perm]))
            for s in range(1, inst.slot_count + 1):
                w1 = [bids[i] for i in range(inst.n) if slots[i] == s]
                w2 = [bids[perm][i] for i in range(inst.n) if slots2[i] == s]
                assert w1 == w2


class TestOptimal:
    def test_two_bidder_gap_values(self):
        g = greedy_gsp_gap(0.1)
        a = allocate_optimal(g.instance, [0.9, 1.0])
        assert a.slot_of == {0: 1, 1: 2}
        assert apparent(g.instance, a, [0.9, 1.0]) == pytest.approx(1.9)

    def test_identical_curves_reduce_to_sorting(self):
        inst = AuctionInstance(
            tuple(Bidder(i, "a", 1.0) for i in range(4)),
            {"a": DiscountCurve((1.0, 0.7, 0.4, 0.1))}, 4)
        bids = [0.3, 0.9, 0.1, 0.5]
        a = allocate_optimal(inst, bids)
        order = np.argsort([-b for b in bids], kind="stable")
        assert [a.slot_of[i] for i in order] == [1, 2, 3, 4]

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(120):
            inst = random_instance(rng, max_bidders=6, max_slots=4)
            bids = conservative_profile(rng, inst)
            opt = allocate_optimal(inst, bids)
            brute = allocate_bruteforce(inst, bids)
            w_opt = apparent(inst, opt, bids)
            w_brute = apparent(inst, brute, bids)
            assert w_opt == pytest.approx(w_brute, abs=1e-12)
            assert opt.slot_of == brute.slot_of

    def test_tie_breaking_lexicographic(self):
        # two identical bidders, identical curves: the optimum is tied and
        # the lower id must take the better slot
        inst = AuctionInstance(
            (Bidder(0, "a", 1.0), Bidder(1, "a", 1.0)),
            {"a": DiscountCurve((1.0, 0.5))}, 2)
        a = allocate_optimal(inst, [0.4, 0.4])
        assert a.slot_of == {0: 1, 1: 2}

    def test_fewer_bidders_than_slots(self):
        inst = AuctionInstance(
            (Bidder(0, "a", 1.0),), {"a": DiscountCurve((0.2, 0.9 * 0.2, 0.1))}, 3)
        a = allocate_optimal(inst, [1.0])
        assert a.slot_of == {0: 1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_few_bidders_on_many_slots(self, n):
        # k bidders only ever take slots 1..k, so 16 slots cost no more than k
        rng = np.random.default_rng(n)
        curves = {t: DiscountCurve(tuple(np.sort(rng.uniform(0.0, 1.0, 16))[::-1]))
                  for t in "ab"}
        for _ in range(20):
            inst = AuctionInstance(tuple(Bidder(i, "ab"[i % 2], 1.0) for i in range(n)),
                                   curves, 16)
            bids = rng.uniform(0.0, 1.0, n)
            assert allocate_optimal(inst, bids).slot_of == allocate_bruteforce(inst, bids).slot_of

    def test_lexmin_ties_match_exact_arithmetic(self):
        # tenths-grid discounts and bids tie often in exact arithmetic while
        # their float sums differ in the last bits
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            delta = np.sort(rng.integers(0, 11, (n, m)), axis=1)[:, ::-1]
            bids = rng.integers(0, 11, n)
            got = optimal_slot_vector(delta / 10 * (bids / 10)[:, None])
            assert got.tolist() == lexmin_optimum(delta.tolist(), bids.tolist())

    @pytest.mark.parametrize("seed", range(5))
    def test_paper_scale_weight_matches_assignment_solver(self, seed):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=20, m=6)
        weights = weight_matrix(inst, conservative_profile(rng, inst))
        slot_of = optimal_slot_vector(weights)
        won = np.flatnonzero(slot_of > 0)
        rows, cols = linear_sum_assignment(weights, maximize=True)
        assert np.sort(slot_of[won]).tolist() == list(range(1, 7))
        assert weights[won, slot_of[won] - 1].sum() == pytest.approx(
            weights[rows, cols].sum(), abs=1e-12)


def lexmin_optimum(delta_tenths, bids_tenths):
    """Slot vector (-1 if none) of the lexicographically smallest max-weight
    matching, unallocated sorting last, in exact rational arithmetic."""
    n, m = len(delta_tenths), len(delta_tenths[0])
    best = [None, None]

    def extend(j, free, vector, weight):
        if j == n:  # depth-first in slot order visits vectors in lexicographic order
            if best[0] is None or weight > best[0]:
                best[:] = weight, vector
            return
        for s in range(m):
            if free & (1 << s):
                gain = Fraction(delta_tenths[j][s] * bids_tenths[j], 100)
                extend(j + 1, free ^ (1 << s), vector + [s + 1], weight + gain)
        extend(j + 1, free, vector + [-1], weight)

    extend(0, (1 << m) - 1, [], Fraction(0))
    return best[1]


class TestBruteforce:
    def test_single(self):
        inst = AuctionInstance((Bidder(0, "a", 1.0),), {"a": DiscountCurve((1.0,))}, 1)
        assert allocate_bruteforce(inst, [0.5]).slot_of == {0: 1}

    def test_three_bidder_value_optimum(self):
        t = greedy_vcg_gap(0.1)
        a = allocate_bruteforce(t.instance, t.instance.values)
        assert a.slot_of == {2: 1, 1: 2, 0: 3}
        e = 0.1
        assert welfare(t.instance, a, t.instance.values) == pytest.approx(
            3 - 2 * e - 2 * e * e, abs=1e-12)

    def test_decimal_ties_match_exact_arithmetic(self):
        # the oracle shares the exact allocator's tie rule, not its code
        rng = np.random.default_rng(7)
        for _ in range(300):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            delta = np.sort(rng.integers(0, 11, (n, m)), axis=1)[:, ::-1]
            bids = rng.integers(0, 11, n)
            curves = {str(i): DiscountCurve(tuple(delta[i] / 10)) for i in range(n)}
            inst = AuctionInstance(tuple(Bidder(i, str(i), 1.0) for i in range(n)), curves, m)
            brute = allocate_bruteforce(inst, bids / 10)
            expected = lexmin_optimum(delta.tolist(), bids.tolist())
            assert [brute.slot_of.get(i, -1) for i in range(n)] == expected

    def test_size_guard(self):
        inst = AuctionInstance(
            tuple(Bidder(i, "a", 1.0) for i in range(9)),
            {"a": DiscountCurve((1.0,))}, 1)
        with pytest.raises(AuctionError):
            allocate_bruteforce(inst, [1.0] * 9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_optimal_dominates_greedy_in_apparent_welfare(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_bidders=6, max_slots=4)
    bids = rng.uniform(0.0, 2.0, inst.n)
    w_greedy = apparent(inst, allocate_greedy(inst, bids), bids)
    w_opt = apparent(inst, allocate_optimal(inst, bids), bids)
    assert w_opt >= w_greedy - 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_partial_monotonicity_on_upward_deviation(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_bidders=6, max_slots=4)
    if inst.n < 2:
        return
    bids = rng.uniform(0.0, 1.0, inst.n)
    i = int(rng.integers(inst.n))
    higher = bids.copy()
    higher[i] = bids[i] + rng.uniform(0.01, 1.0)
    before = greedy_slot_vector(weight_matrix(inst, bids))
    after = greedy_slot_vector(weight_matrix(inst, higher))
    sigma = before[i] if before[i] > 0 else inst.slot_count + 1
    for s in range(1, int(sigma)):
        occ_before = np.flatnonzero(before == s)
        occ_after = np.flatnonzero(after == s)
        if occ_before.size and occ_after.size:
            w_before = inst.delta[occ_before[0], s - 1] * bids[occ_before[0]]
            w_after = inst.delta[occ_after[0], s - 1] * higher[occ_after[0]]
            assert w_after >= w_before - 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_downward_deviation_preserves_slots_above(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, max_bidders=6, max_slots=4)
    bids = rng.uniform(0.1, 1.0, inst.n)
    i = int(rng.integers(inst.n))
    lower = bids.copy()
    lower[i] = bids[i] * rng.uniform(0.0, 0.99)
    before = greedy_slot_vector(weight_matrix(inst, bids))
    after = greedy_slot_vector(weight_matrix(inst, lower))
    sigma = before[i] if before[i] > 0 else inst.slot_count + 1
    for s in range(1, int(sigma)):
        occ_before = np.flatnonzero(before == s)
        occ_after = np.flatnonzero(after == s)
        assert occ_before.tolist() == occ_after.tolist()
