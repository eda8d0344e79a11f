import math

import numpy as np
import pytest

from posauctions import pricing
from posauctions.engine import counterfactual_utility, utility_of
from posauctions.fixtures import (deviation_grid, greedy_gsp_gap, greedy_vcg_gap, optgsp_family,
                                  poa_suite, verify_pure_nash)
from posauctions.model import AuctionError


class TestGreedyGspGap:
    def test_is_equilibrium(self):
        named = greedy_gsp_gap(0.1)
        assert verify_pure_nash(named, resolution=4000) <= 1e-9

    def test_ratio(self):
        named = greedy_gsp_gap(0.1)
        assert named.welfare_ratio == pytest.approx(1.9, abs=1e-12)

    def test_perturbed_profile_has_improving_deviation(self):
        # A bidding its value forces B to pay 0.9 for the top slot, while
        # ceding it would earn B its full value: gain 0.9
        bad = greedy_gsp_gap(0.1)
        object.__setattr__(bad, "bids", (0.9, 1.0))
        assert verify_pure_nash(bad, resolution=4000) == pytest.approx(0.9, abs=1e-9)

    def test_conservative(self):
        named = greedy_gsp_gap(0.25)
        for bid, bidder in zip(named.bids, named.instance.bidders):
            assert bid <= bidder.value + 1e-12

    def test_epsilon_domain(self):
        with pytest.raises(AuctionError):
            greedy_gsp_gap(0.0)


class TestGreedyVcgGap:
    def test_is_equilibrium(self):
        named = greedy_vcg_gap(0.1)
        assert verify_pure_nash(named, resolution=4000) <= 1e-9

    def test_welfares(self):
        e = 0.01
        named = greedy_vcg_gap(e)
        assert named.equilibrium_welfare == pytest.approx(2 + e + e * e - e**3, abs=1e-12)
        assert named.optimal_welfare == pytest.approx(3 - 2 * e - 2 * e * e, abs=1e-12)

    def test_truthful_by_construction(self):
        named = greedy_vcg_gap(0.2)
        assert named.bids == tuple(b.value for b in named.instance.bidders)


class TestOptGspFamily:
    def test_boundary_ratio_exact(self):
        named = optgsp_family(0.0)
        assert named.equilibrium_welfare / named.optimal_welfare == 0.75

    def test_worked_quarter_case(self):
        named = optgsp_family(0.25)
        assert named.equilibrium_welfare / named.optimal_welfare == pytest.approx(0.85, abs=1e-12)

    def test_limit_towards_half(self):
        ratios = [optgsp_family(d).equilibrium_welfare / optgsp_family(d).optimal_welfare
                  for d in (0.3, 0.4, 0.45, 0.49)]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.97

    def test_is_equilibrium(self):
        for d in (0.0, 0.1, 0.25):
            named = optgsp_family(d)
            assert verify_pure_nash(named, resolution=4000) <= 1e-9

    def test_domain_error(self):
        with pytest.raises(AuctionError):
            optgsp_family(0.5)
        with pytest.raises(AuctionError):
            optgsp_family(-0.01)

    def test_conservative(self):
        for d in (0.0, 0.2, 0.4):
            named = optgsp_family(d)
            for bid, bidder in zip(named.bids, named.instance.bidders):
                assert bid <= bidder.value + 1e-12

    def test_parameter_chain_holds(self):
        named = optgsp_family(0.3)
        inst = named.instance
        v_a, v_b = inst.bidders[0].value, inst.bidders[1].value
        ratio = (1 - 0.5) / (1 - 0.3)
        chain = (ratio**2 * v_b, v_a, ratio * v_b, v_a / ratio, v_b)
        assert all(lo <= hi + 1e-12 for lo, hi in zip(chain, chain[1:]))


class TestSuite:
    def test_rows_certify_and_match_targets(self):
        rows = poa_suite(epsilon=0.01, optgsp_delta_a=0.001, resolution=3000)
        by_name = {r.name: r for r in rows}
        assert all(r.certified for r in rows)
        e = 0.01
        assert by_name["greedy_gsp_gap"].ratio == pytest.approx(2 - e, abs=1e-12)
        assert by_name["greedy_vcg_gap"].ratio == pytest.approx(
            (3 - 2 * e - 2 * e * e) / (2 + e + e * e - e**3), abs=1e-12)
        assert by_name["optgsp_family"].ratio == pytest.approx(4.0 / 3.0, rel=5e-3)
        assert by_name["greedy_gsp_gap"].upper_bound == 4.0
        assert by_name["greedy_vcg_gap"].upper_bound == 4.0
        assert by_name["optgsp_family"].upper_bound == pytest.approx(2 + 2 * 1.0 / 0.001)
        for r in rows:
            assert r.ratio <= r.upper_bound

    def test_deviation_grid_probes_tie_boundaries(self):
        named = greedy_gsp_gap(0.1)
        from posauctions.fixtures import deviation_grid
        grid = deviation_grid(named, resolution=100)
        assert 1.0 in grid
        assert np.nextafter(1.0, 0.0) in grid
        assert np.nextafter(1.0, np.inf) in grid


def per_deviation_gain(named, resolution):
    """The largest gain by one scalar counterfactual per deviation: the loop
    that :func:`verify_pure_nash` replaces with one sweep per bidder."""
    worst = -math.inf
    for i in range(named.instance.n):
        realized = utility_of(named.instance, named.bids, i, named.fmt)
        for dev in deviation_grid(named, resolution):
            gain = counterfactual_utility(named.instance, named.bids, i, float(dev),
                                          named.fmt) - realized
            if gain > worst:
                worst = gain
    return float(worst)


def perturbed_greedy_gsp_gap():
    bad = greedy_gsp_gap(0.1)
    object.__setattr__(bad, "bids", (0.9, 1.0))
    return bad


@pytest.mark.parametrize("named", [
    greedy_gsp_gap(0.01), greedy_gsp_gap(0.1), greedy_gsp_gap(0.5),
    greedy_vcg_gap(0.01), greedy_vcg_gap(0.1), greedy_vcg_gap(0.3),
    optgsp_family(0.0), optgsp_family(0.001), optgsp_family(0.25), optgsp_family(0.4),
    perturbed_greedy_gsp_gap(),
], ids=lambda named: f"{named.name}{named.bids}")
def test_verify_pure_nash_matches_per_deviation_loop(named):
    assert verify_pure_nash(named, resolution=400).hex() == per_deviation_gain(named, 400).hex()


def test_optgsp_verification_prices_once_per_slot(monkeypatch):
    named = optgsp_family(0.001)
    calls = []
    real = pricing._critical_bid_optimal

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pricing, "_critical_bid_optimal", counting)
    verify_pure_nash(named, resolution=2000)
    assert 0 < len(calls) <= named.instance.n * named.instance.slot_count
