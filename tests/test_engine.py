import math

import numpy as np
import pytest

from posauctions.engine import (ALL_FORMATS, Format, check_semismoothness,
                                conservative_profile, counterfactual_utility, empirical_poa,
                                optimal_true_welfare, outcome_utilities, random_instance,
                                run_auction, smoothness_parameters, sweep_utilities)
from posauctions.fixtures import deviation_grid, greedy_gsp_gap, greedy_vcg_gap, optgsp_family
from posauctions.model import AuctionError, AuctionInstance, Bidder, DiscountCurve
from test_pricing import schedule_cases


class TestRunAuction:
    def test_gap_instance_greedy_gsp(self):
        g = greedy_gsp_gap(0.1)
        out = run_auction(g.instance, g.bids, Format.GREEDY_GSP)
        assert out.true_welfare == pytest.approx(1.0, abs=1e-12)
        assert out.revenue == 0.0

    def test_gap_instance_greedy_vcg_payoffs(self):
        # utility = discount*value - externality; the worked numbers at eps=0.1
        e = 0.1
        t = greedy_vcg_gap(e)
        out = run_auction(t.instance, t.bids, Format.GREEDY_VCG)
        u = outcome_utilities(t.instance, out)
        pay = e - 2 * e * e + e**3
        assert u[0] == pytest.approx((1 + e) - pay, abs=1e-12)
        assert u[1] == pytest.approx(1.0 - pay, abs=1e-12)
        assert u[2] == pytest.approx((1 - e) * e * e, abs=1e-12)

    def test_single_bidder_opt_vcg(self):
        inst = AuctionInstance((Bidder(0, "a", 2.0),), {"a": DiscountCurve((0.8,))}, 1)
        out = run_auction(inst, [2.0], Format.OPT_VCG)
        assert out.true_welfare == pytest.approx(1.6)
        assert out.revenue == 0.0

    def test_pure_function(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, max_bidders=5, max_slots=3)
        bids = conservative_profile(rng, inst)
        for fmt in Format:
            a = run_auction(inst, bids, fmt)
            b = run_auction(inst, bids, fmt)
            assert a == b

    def test_revenue_bounded_by_apparent_welfare(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            inst = random_instance(rng, max_bidders=6, max_slots=4)
            bids = rng.uniform(0, 1.5, inst.n)
            for fmt in Format:
                out = run_auction(inst, bids, fmt)
                assert out.revenue <= out.apparent_welfare + 1e-9

    def test_opt_vcg_truthful_maximizes_welfare(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            inst = random_instance(rng, max_bidders=6, max_slots=4)
            out = run_auction(inst, inst.values, Format.OPT_VCG)
            assert out.true_welfare == pytest.approx(optimal_true_welfare(inst), abs=1e-12)


class TestCounterfactual:
    @pytest.mark.parametrize("n, m", [(None, None), (9, 4)], ids=["small", "desk"])
    def test_identity_deviation(self, n, m):
        # (9, 4) is the exp2/exp3 desk shape, where numpy sums a length-9
        # vector out of order: payoffs must match the full run bit for bit
        rng = np.random.default_rng(47)
        for _ in range(3):
            inst = random_instance(rng, max_bidders=5, max_slots=3, n=n, m=m)
            bids = conservative_profile(rng, inst)
            for fmt in Format:
                out = run_auction(inst, bids, fmt)
                u = outcome_utilities(inst, out)
                for i in range(inst.n):
                    assert counterfactual_utility(inst, bids, i, float(bids[i]), fmt) == u[i]

    def test_gap_equilibrium_overtaking_loses(self):
        g = greedy_gsp_gap(0.1)
        gain = counterfactual_utility(g.instance, g.bids, 0, 1.5, Format.GREEDY_GSP)
        assert gain == pytest.approx(0.9 - 1.0, abs=1e-12)

    def test_grid_contains_realized_bid(self):
        rng = np.random.default_rng(53)
        inst = random_instance(rng, max_bidders=4, max_slots=3)
        bids = conservative_profile(rng, inst)
        for fmt in Format:
            out = run_auction(inst, bids, fmt)
            u = outcome_utilities(inst, out)
            for i in range(inst.n):
                grid = np.append(np.linspace(0, 1.5, 31), bids[i])
                best = max(counterfactual_utility(inst, bids, i, float(b), fmt) for b in grid)
                assert best >= u[i] - 1e-12

    def test_negative_bid_rejected(self):
        g = greedy_gsp_gap(0.1)
        with pytest.raises(AuctionError):
            counterfactual_utility(g.instance, g.bids, 0, -0.1, Format.GREEDY_GSP)

    @pytest.mark.parametrize("bid", [math.nan, math.inf, -math.inf])
    def test_non_finite_bid_rejected(self, bid):
        g = greedy_gsp_gap(0.1)
        with pytest.raises(AuctionError):
            counterfactual_utility(g.instance, g.bids, 0, bid, Format.GREEDY_GSP)


def sweep_cases():
    """Random instances (tenths-grid ties, n <= m and m = 1 included), then the
    bad-equilibrium fixtures on their deviation grids with one-ulp probes;
    ``optgsp_family(0.0)`` gives A a zero discount in slot 2."""
    for tenths in (False, True):
        yield from schedule_cases(71 + tenths, 120, tenths)
    for named in (greedy_gsp_gap(0.1), greedy_vcg_gap(0.1), optgsp_family(0.0),
                  optgsp_family(0.001), optgsp_family(0.25)):
        bids = np.array(named.bids)
        for i in range(named.instance.n):
            yield named.instance, bids, i, deviation_grid(named, 40)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.value)
def test_sweep_matches_counterfactuals(fmt):
    for inst, bids, i, arms in sweep_cases():
        got = sweep_utilities(inst, bids, i, fmt, arms)
        want = [counterfactual_utility(inst, bids, i, float(a), fmt) for a in arms]
        assert got.tolist() == want
        trial = bids.copy()
        trial[i] = 7.0  # the sweep never reads i's own bid
        assert sweep_utilities(inst, trial, i, fmt, arms).tolist() == want


class TestSemismoothness:
    def test_truthful_greedy_gsp_nonnegative(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            inst = random_instance(rng, max_bidders=5, max_slots=3)
            slack = check_semismoothness(inst, inst.values, Format.GREEDY_GSP)
            assert slack >= -1e-9

    def test_conservative_greedy_vcg_nonnegative(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            inst = random_instance(rng, max_bidders=5, max_slots=3)
            bids = conservative_profile(rng, inst)
            assert check_semismoothness(inst, bids, Format.GREEDY_VCG) >= -1e-9

    def test_falsified_parameters_fail_on_gap_instance(self):
        g = greedy_gsp_gap(0.1)
        slack = check_semismoothness(g.instance, g.bids, Format.GREEDY_GSP, lam=1.0, mu=0.0)
        assert slack == pytest.approx(-0.9, abs=1e-9)

    def test_parameters(self):
        inst = AuctionInstance(
            (Bidder(0, "a", 1.0), Bidder(1, "b", 1.0), Bidder(2, "b", 0.5)),
            {"a": DiscountCurve((1.0, 0.4)), "b": DiscountCurve((0.9, 0.3))}, 2)
        assert smoothness_parameters(inst, Format.GREEDY_GSP) == (0.5, 1.0)
        lam, mu = smoothness_parameters(inst, Format.OPT_GSP)
        assert lam == 0.5
        assert mu == pytest.approx(2 * 1.0 / 0.3)
        with pytest.raises(AuctionError):
            smoothness_parameters(inst, Format.OPT_VCG)

    def test_zero_last_slot_discount_is_vacuous(self):
        g = greedy_gsp_gap(0.1)  # type "a" has a zero second-slot discount
        assert math.isinf(check_semismoothness(g.instance, g.bids, Format.OPT_GSP))


class TestEmpiricalPoa:
    def test_optimal_play_gives_one(self):
        rng = np.random.default_rng(67)
        inst = random_instance(rng, max_bidders=4, max_slots=3)
        out = run_auction(inst, inst.values, Format.OPT_VCG)
        assert empirical_poa(inst, [out, out]) == pytest.approx(1.0)

    def test_gap_equilibrium_ratio(self):
        g = greedy_gsp_gap(0.1)
        out = run_auction(g.instance, g.bids, Format.GREEDY_GSP)
        assert empirical_poa(g.instance, [out]) == pytest.approx(1.9, abs=1e-12)

    def test_three_bidder_ratio(self):
        e = 0.01
        t = greedy_vcg_gap(e)
        out = run_auction(t.instance, t.bids, Format.GREEDY_VCG)
        expected = (3 - 2 * e - 2 * e * e) / (2 + e + e * e - e**3)
        assert empirical_poa(t.instance, [out]) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.4824, abs=5e-4)

    def test_zero_welfare_is_undefined(self):
        inst = AuctionInstance((Bidder(0, "a", 0.0),), {"a": DiscountCurve((1.0,))}, 1)
        out = run_auction(inst, [0.0], Format.GREEDY_GSP)
        with pytest.raises(AuctionError):
            empirical_poa(inst, [out])

    def test_empty_samples(self):
        g = greedy_gsp_gap(0.1)
        with pytest.raises(AuctionError):
            empirical_poa(g.instance, [])


def test_format_parse():
    assert Format.parse("GreedyGSP") is Format.GREEDY_GSP
    assert Format.parse("opt_vcg") is Format.OPT_VCG
    assert Format.parse("Opt-GSP") is Format.OPT_GSP
    with pytest.raises(AuctionError):
        Format.parse("first_price")
