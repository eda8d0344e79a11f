import numpy as np
import pytest

from posauctions.analytic import TwoByTwoSetting
from posauctions import pricing
from posauctions.allocation import (allocate_greedy, allocate_optimal, greedy_slot_vector,
                                   optimal_slot_vector)
from posauctions.engine import (Format, conservative_profile, counterfactual_utility,
                                random_instance, run_auction, utility_of)
from posauctions.fixtures import greedy_vcg_gap
from posauctions.model import AuctionInstance, Bidder, DiscountCurve
from posauctions.pricing import (certify_no_overcharge, greedy_slot_schedule,
                                 optimal_slot_schedule, price_gsp, price_vcg,
                                 vcg_greedy_payment_recursion)


def symmetric_two_slot(delta=1.0):
    return AuctionInstance(
        (Bidder(0, "a", 1.0), Bidder(1, "a", 1.0)),
        {"a": DiscountCurve((1.0, delta))}, 2)


class TestGspGreedy:
    def test_winner_pays_losing_bid(self):
        inst = symmetric_two_slot()
        p = price_gsp(inst, [0.6, 0.4], "greedy")
        assert p.per_conversion == (0.4, 0.0)
        assert p.expected == (0.4, 0.0)

    def test_single_bidder_free(self):
        inst = AuctionInstance((Bidder(0, "a", 1.0),), {"a": DiscountCurve((1.0,))}, 1)
        assert price_gsp(inst, [0.7], "greedy").expected == (0.0,)

    def test_zero_discount_slot_prices_zero(self):
        inst = AuctionInstance(
            (Bidder(0, "a", 1.0), Bidder(1, "b", 1.0)),
            {"a": DiscountCurve((1.0, 0.0)), "b": DiscountCurve((1.0, 1.0))}, 2)
        p = price_gsp(inst, [0.0, 1.0], "greedy")
        assert p.per_conversion == (0.0, 0.0)
        assert p.expected == (0.0, 0.0)


class TestGspOptimal:
    def test_critical_bid_closed_form_case(self):
        # premium ratio 2/3; equal bids of 0.6 put A on top at a 0.4 threshold
        inst = TwoByTwoSetting(0.5, 2.0 / 3.0).instance(1.0, 1.0)
        p = price_gsp(inst, [0.6, 0.6], "optimal")
        assert p.per_conversion[0] == pytest.approx(0.4, abs=1e-8)
        assert p.per_conversion[1] == 0.0

    def test_grid_variant_matches_scan(self):
        inst = TwoByTwoSetting(0.5, 2.0 / 3.0).instance(1.0, 1.0)
        grid = np.linspace(0.0, 1.0, 21)
        p = price_gsp(inst, [0.6, 0.6], "optimal", bid_grid=grid)
        # smallest grid point >= the 0.4 threshold is 0.4 itself
        assert p.per_conversion[0] == pytest.approx(0.4, abs=1e-12)

    def test_retention_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            inst = random_instance(rng, max_bidders=5, max_slots=3)
            bids = conservative_profile(rng, inst)
            prices = price_gsp(inst, bids, "optimal")
            slots = allocate_optimal(inst, bids).slot_of
            for i, s in slots.items():
                crit = prices.per_conversion[i]
                if inst.discount(i, s) == 0.0:
                    continue
                kept = allocate_optimal(inst, np.where(np.arange(inst.n) == i,
                                                       crit + 1e-9, bids)).slot_of
                assert kept.get(i) == s
                if crit > 1e-9:
                    dropped = allocate_optimal(inst, np.where(np.arange(inst.n) == i,
                                                              max(crit - 2e-9, 0.0),
                                                              bids)).slot_of
                    assert dropped.get(i) != s


class TestVcg:
    def test_three_bidder_truthful_payments(self):
        # A and B each displace C from slot 2 down to slot 3; C pays nothing.
        e = 0.1
        t = greedy_vcg_gap(e)
        p = price_vcg(t.instance, t.bids, "greedy")
        expected = e - 2 * e * e + e**3
        assert p.expected[0] == pytest.approx(expected, abs=1e-12)
        assert p.expected[1] == pytest.approx(expected, abs=1e-12)
        assert p.expected[2] == 0.0

    def test_two_by_two_externality(self):
        setting = TwoByTwoSetting(0.4, 0.7)
        inst = setting.instance(0.9, 0.6)
        p = price_vcg(inst, [0.9, 0.6], "optimal")
        assert p.expected[0] == pytest.approx((1 - 0.7) * 0.6, abs=1e-12)
        assert p.expected[1] == 0.0

    def test_single_bidder(self):
        inst = AuctionInstance((Bidder(0, "a", 1.0),), {"a": DiscountCurve((1.0,))}, 1)
        assert price_vcg(inst, [0.7], "optimal").expected == (0.0,)

    def test_nonnegative_under_optimal(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            inst = random_instance(rng, max_bidders=6, max_slots=4)
            bids = rng.uniform(0, 1.5, inst.n)
            p = price_vcg(inst, bids, "optimal")
            assert min(p.expected) >= 0.0

    def test_recursion_matches_externality(self):
        rng = np.random.default_rng(13)
        for _ in range(80):
            inst = random_instance(rng, max_bidders=6, max_slots=4)
            bids = rng.uniform(0, 1.5, inst.n)
            p = price_vcg(inst, bids, "greedy")
            rec = vcg_greedy_payment_recursion(inst, bids)
            assert np.allclose(rec, p.expected, atol=1e-9)

    def test_opt_vcg_truthful_is_dominant(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            inst = random_instance(rng, max_bidders=5, max_slots=3)
            truthful = inst.values.copy()
            i = int(rng.integers(inst.n))
            u_truth = utility_of(inst, truthful, i, Format.OPT_VCG)
            for dev in rng.uniform(0, 2, 5):
                u_dev = counterfactual_utility(inst, truthful, i, float(dev), Format.OPT_VCG)
                assert u_dev <= u_truth + 1e-9


class TestNoOvercharge:
    def test_random_greedy_vcg(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            inst = random_instance(rng, max_bidders=6, max_slots=4)
            bids = rng.uniform(0, 1.5, inst.n)
            ok, witness = certify_no_overcharge(inst, bids, "greedy", "vcg")
            assert ok, witness

    def test_random_opt_gsp(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            inst = random_instance(rng, max_bidders=5, max_slots=3)
            bids = conservative_profile(rng, inst)
            ok, witness = certify_no_overcharge(inst, bids, "optimal", "gsp")
            assert ok, witness

    def test_injected_violation_is_caught(self):
        from posauctions.pricing import PriceVector
        inst = symmetric_two_slot(delta=0.5)
        tampered = PriceVector((0.9, 0.0), (0.9, 0.0))  # winner charged above its 0.6 bid
        ok, witness = certify_no_overcharge(inst, [0.6, 0.4], "greedy", "gsp",
                                            prices=tampered)
        assert not ok
        assert witness == 0


def test_gsp_critical_price_greedy_retention():
    rng = np.random.default_rng(29)
    for _ in range(60):
        inst = random_instance(rng, max_bidders=6, max_slots=4)
        bids = rng.uniform(0, 1.5, inst.n)
        prices = price_gsp(inst, bids, "greedy")
        slots = allocate_greedy(inst, bids).slot_of
        for i, s in slots.items():
            if inst.discount(i, s) == 0.0:
                continue
            crit = prices.per_conversion[i]
            trial = bids.copy()
            trial[i] = crit + 1e-9
            assert allocate_greedy(inst, trial).slot_of.get(i, -1) <= s
            if crit > 1e-9:
                trial[i] = max(crit - 2e-9, 0.0)
                assert allocate_greedy(inst, trial).slot_of.get(i) != s


def test_revenue_equals_sum_of_expected_payments():
    rng = np.random.default_rng(31)
    for fmt in Format:
        inst = random_instance(rng, max_bidders=5, max_slots=3)
        bids = rng.uniform(0, 1.0, inst.n)
        out = run_auction(inst, bids, fmt)
        assert out.revenue == pytest.approx(sum(out.expected_payment), abs=1e-12)
        for i, s in out.assignment.slot_of.items():
            d = inst.discount(i, s)
            if d > 0:
                assert out.expected_payment[i] == pytest.approx(
                    d * out.per_conversion_price[i], abs=1e-9)
        for i in range(inst.n):
            if i not in out.assignment.slot_of:
                assert out.expected_payment[i] == 0.0


def schedule_cases(seed, count, tenths):
    """Instances, profiles and ascending grids for the schedule tests: n <= m,
    m = 1 and n = 1 included, every fifth bidder-0 a zero-value bidder on an
    all-zero grid, and overbidding grids up to twice the value otherwise."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 1 if k % 7 == 0 else int(rng.integers(1, 8))
        m = 1 if k % 5 == 0 else int(rng.integers(1, 5))
        inst = random_instance(rng, n=n, m=m)
        if tenths:
            curves = {t: DiscountCurve(tuple(np.sort(rng.integers(0, 11, m))[::-1] / 10))
                      for t in inst.curves}
            values = rng.integers(0, 11, n) / 10
        else:
            curves, values = inst.curves, inst.values.copy()
        if k % 5 == 0:
            values[0] = 0.0
        bidders = tuple(Bidder(b.id, b.ad_type, float(values[b.id])) for b in inst.bidders)
        inst = AuctionInstance(bidders, curves, m)
        cap = inst.values * (1.0 + (k % 2))  # truthful caps, or overbidding to 2x
        bids = (rng.integers(0, 11, n) / 10 if tenths else rng.uniform(0.0, 1.0, n)) * cap
        for i in range(n):
            yield inst, bids, i, np.linspace(0.0, cap[i], 11 if tenths else 9)


def full_vector(inst, bids, i, x):
    trial = bids.copy()
    trial[i] = x
    return optimal_slot_vector(inst.delta * trial[:, None])


class TestOptimalSlotSchedule:
    @pytest.mark.parametrize("tenths", [False, True], ids=["continuous", "tenths"])
    def test_matches_allocator_at_every_arm(self, tenths):
        for inst, bids, i, arms in schedule_cases(31 + tenths, 150, tenths):
            schedule, without = optimal_slot_schedule(inst.delta, bids, i, arms)
            others = np.arange(inst.n) != i
            assert np.array_equal(without, optimal_slot_vector(inst.delta * bids[:, None],
                                                               others))
            for a, x in enumerate(arms):
                assert np.array_equal(schedule[a], full_vector(inst, bids, i, x))

    def test_exact_line_tie_is_allocated_in_full(self, monkeypatch):
        # premium ratio 2/3 against a 0.6 bid: at 0.4 the top and bottom slots
        # weigh the same for bidder 0, so only the full allocator may decide
        inst = TwoByTwoSetting(0.5, 2.0 / 3.0).instance(1.0, 1.0)
        bids = np.array([0.6, 0.6])
        arms = np.array([0.2, 0.4, 0.8])
        calls = []
        real = pricing.optimal_slot_vector

        def counting(weights, active=None):
            calls.append(active is None)
            return real(weights, active)

        monkeypatch.setattr(pricing, "optimal_slot_vector", counting)
        schedule, _ = optimal_slot_schedule(inst.delta, bids, 0, arms)
        assert calls.count(False) == 0  # the others come from the schedule's own DP
        assert calls.count(True) == 1  # the tied arm alone
        for a, x in enumerate(arms):
            assert np.array_equal(schedule[a], full_vector(inst, bids, 0, x))

    @pytest.mark.parametrize("tenths", [False, True], ids=["continuous", "tenths"])
    def test_grid_critical_bid_matches_scan(self, tenths):
        def scan(inst, bids, i, slot, grid):
            for g in np.sort(grid):
                if full_vector(inst, bids, i, g)[i] == slot:
                    return float(g)
            return float(bids[i])

        for inst, bids, i, arms in schedule_cases(41 + tenths, 80, tenths):
            slot = int(optimal_slot_vector(inst.delta * bids[:, None])[i])
            if slot > 0:
                grid = arms[::-1]  # any order; the scan sorts
                assert (pricing._critical_bid_optimal(inst, bids, i, slot, grid)
                        == scan(inst, bids, i, slot, grid))


class TestGreedySlotSchedule:
    @pytest.mark.parametrize("tenths", [False, True], ids=["continuous", "tenths"])
    def test_matches_allocator_at_every_arm(self, tenths):
        for inst, bids, i, arms in schedule_cases(61 + tenths, 150, tenths):
            schedule, without = greedy_slot_schedule(inst.delta, bids, i, arms)
            others = np.arange(inst.n) != i
            assert np.array_equal(without, greedy_slot_vector(inst.delta * bids[:, None],
                                                              others))
            for a, x in enumerate(arms):
                trial = bids.copy()
                trial[i] = x
                assert np.array_equal(schedule[a],
                                      greedy_slot_vector(inst.delta * trial[:, None]))


@pytest.mark.parametrize("tenths", [False, True], ids=["continuous", "tenths"])
def test_per_slot_gsp_prices_match_one_row_calls(tenths):
    # one envelope price per slot held, capped per row, as one-row calls price it
    for inst, bids, i, arms in schedule_cases(81 + tenths, 80, tenths):
        arms = arms[::-1]  # any order
        weights = inst.delta * bids[:, None]
        schedule, _ = optimal_slot_schedule(inst.delta, bids, i, arms)
        per_conv, expected = pricing.payment(inst, bids, weights, schedule, i, "optimal", "gsp",
                                             arms=arms)
        for a, x in enumerate(arms):
            trial = bids.copy()
            trial[i] = x
            one = pricing.payment(inst, trial, inst.delta * trial[:, None], schedule[a:a + 1], i,
                                  "optimal", "gsp")
            assert (per_conv[a], expected[a]) == (one[0][0], one[1][0])


#: Bracket width of the bisection oracle for exact-GSP critical bids.
BISECT_WIDTH = 1e-10


def bisected_critical_bid(inst, bids, i, slot):
    """Bidder i's lowest own bid that keeps ``slot``, by bisection on the full
    allocator: an oracle independent of the envelope production uses."""
    def keeps(x):
        return full_vector(inst, bids, i, x)[i] == slot

    if keeps(0.0):
        return 0.0
    lo, hi = 0.0, float(bids[i])
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if keeps(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("tenths", [False, True], ids=["continuous", "tenths"])
def test_envelope_critical_bid_matches_bisection(tenths):
    winners = 0
    for inst, bids, i, _ in schedule_cases(51 + tenths, 300, tenths):
        slot = int(full_vector(inst, bids, i, bids[i])[i])
        if slot > 0:
            # the envelope price does not read i's bid; its callers cap it there
            price = min(pricing._critical_bid_optimal(inst, bids, i, slot, None), bids[i])
            assert 0.0 <= bisected_critical_bid(inst, bids, i, slot) - price <= BISECT_WIDTH
            assert price <= bids[i]
            assert full_vector(inst, bids, i, price)[i] == slot
            winners += 1
    assert winners > 500


@pytest.mark.parametrize("gap", [1e-4, 1e-6])
def test_retention_boundary_near_parallel_discounts(gap):
    # Slots 1 and 2 differ in discount by ``gap`` for every bidder, so the
    # allocator's tie margin spans TIE_MARGIN / gap of bid around each
    # breakpoint.  (Below a gap of about 1e-7 float rounding in the weight
    # sums alone moves the allocator's own breakpoint by more than 1e-9.)
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(80):
        base = random_instance(rng, n=int(rng.integers(2, 6)), m=int(rng.integers(2, 4)))
        curves = {}
        for name, curve in base.curves.items():
            top = float(rng.uniform(0.3, 1.0))
            rest = [min(d, top - gap) for d in curve.per_slot[2:]]
            curves[name] = DiscountCurve((top, top - gap, *rest))
        inst = AuctionInstance(base.bidders, curves, base.slot_count)
        bids = conservative_profile(rng, inst)
        prices = price_gsp(inst, bids, "optimal")
        for i, s in allocate_optimal(inst, bids).slot_of.items():
            crit = prices.per_conversion[i]
            if inst.discount(i, s) == 0.0:
                continue
            assert full_vector(inst, bids, i, crit)[i] == s
            assert full_vector(inst, bids, i, crit + 1e-9)[i] == s
            if crit > 1e-9:
                assert full_vector(inst, bids, i, max(crit - 2e-9, 0.0))[i] != s
            checked += 1
    assert checked > 150
