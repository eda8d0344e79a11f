import numpy as np
import pytest

from posauctions.analytic import (EquilibriumStrategy, TwoByTwoSetting, best_response,
                                  equilibrium_revenue, equilibrium_strategy, interim_utility,
                                  revenue_hierarchy, revenue_oracle_mc, simulate_profiles,
                                  sweep_rows)
from posauctions.engine import ALL_FORMATS, Format, outcome_utilities, run_auction
from posauctions.model import AuctionError

SETTING = TwoByTwoSetting(0.5, 2.0 / 3.0)


class TestSetting:
    def test_premium_ratio(self):
        assert SETTING.premium_ratio == pytest.approx(2.0 / 3.0)

    def test_ordering_enforced(self):
        with pytest.raises(AuctionError):
            TwoByTwoSetting(0.7, 0.3)

    def test_degenerate_diagonal_allowed(self):
        assert TwoByTwoSetting(0.4, 0.4).premium_ratio == 1.0
        assert TwoByTwoSetting(1.0, 1.0).premium_ratio == 1.0


class TestStrategies:
    def test_gsp_shading(self):
        s = equilibrium_strategy(SETTING, Format.GREEDY_GSP)
        assert (s.slope_a, s.slope_b) == (0.5, pytest.approx(1.0 / 3.0))
        assert equilibrium_strategy(SETTING, Format.OPT_GSP) == s

    def test_greedy_vcg_overbidding(self):
        s = equilibrium_strategy(SETTING, Format.GREEDY_VCG)
        assert s.slope_a == pytest.approx(1.5)
        assert s.slope_b == pytest.approx(2.0 / 3.0)

    def test_opt_vcg_truthful(self):
        assert equilibrium_strategy(SETTING, Format.OPT_VCG) == EquilibriumStrategy(1.0, 1.0)


class TestRevenues:
    def test_worked_values(self):
        assert equilibrium_revenue(SETTING, Format.GREEDY_GSP) == pytest.approx(
            0.12962962962962962, abs=1e-12)
        assert equilibrium_revenue(SETTING, Format.OPT_GSP) == pytest.approx(
            0.10288065843621399, abs=1e-12)

    def test_degenerate_collapse(self):
        for delta in (0.0, 0.25, 0.4, 0.9):
            s = TwoByTwoSetting(delta, delta)
            for fmt in ALL_FORMATS:
                assert equilibrium_revenue(s, fmt) == pytest.approx((1 - delta) / 3, abs=1e-12)

    def test_hierarchy_report(self):
        report = revenue_hierarchy(SETTING)
        assert report.revenues["greedy_gsp"] == report.revenues["opt_vcg"]
        assert report.revenues["opt_gsp"] == report.revenues["greedy_vcg"]
        assert report.gap > 0.02
        assert report.ordered

    def test_gap_vanishes_at_equal_discounts(self):
        gaps = [revenue_hierarchy(TwoByTwoSetting(0.5, 0.5 + eps)).gap
                for eps in (0.2, 0.1, 0.05, 0.01)]
        assert all(g >= 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3

    def test_monotone_decreasing_where_it_holds(self):
        # The greedy+GSP (= opt+VCG) revenue falls as either discount rises.
        # The shifted formula only falls in delta_b: raising delta_a toward
        # delta_b pushes the premium ratio to 1 and *raises* that revenue
        # (e.g. 0.125 -> 0.1667 along delta_b = 0.5), so no assertion there.
        for db in (0.5, 0.8):
            revs = [equilibrium_revenue(TwoByTwoSetting(da, db), Format.GREEDY_GSP)
                    for da in np.linspace(0.0, db, 9)]
            assert all(a >= b - 1e-12 for a, b in zip(revs, revs[1:]))
        for fmt in (Format.GREEDY_GSP, Format.OPT_GSP):
            for da in (0.1, 0.3):
                revs = [equilibrium_revenue(TwoByTwoSetting(da, db), fmt)
                        for db in np.linspace(da, 1.0, 9)]
                assert all(a >= b - 1e-12 for a, b in zip(revs, revs[1:]))

    def test_shifted_formula_can_rise_in_delta_a(self):
        low = equilibrium_revenue(TwoByTwoSetting(0.0, 0.5), Format.OPT_GSP)
        high = equilibrium_revenue(TwoByTwoSetting(0.25, 0.5), Format.OPT_GSP)
        assert high > low


class TestBatchEvaluator:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("setting", [
        SETTING, TwoByTwoSetting(0.0, 1.0), TwoByTwoSetting(0.37, 0.85),
        TwoByTwoSetting(0.4, 0.4), TwoByTwoSetting(0.0, 0.0),
    ])
    def test_matches_engine_sample_by_sample(self, fmt, setting):
        rng = np.random.default_rng(hash((fmt.value, setting.delta_a)) % 2**32)
        n = 200
        ba, bb = rng.uniform(0, 2, n), rng.uniform(0, 2, n)
        va, vb = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        batch = simulate_profiles(setting, fmt, ba, bb, va, vb)
        for k in range(n):
            inst = setting.instance(va[k], vb[k])
            out = run_auction(inst, [ba[k], bb[k]], fmt)
            u = outcome_utilities(inst, out)
            assert (out.assignment.slot_of[0] == 1) == bool(batch.a_wins[k])
            assert out.expected_payment[0] == pytest.approx(batch.pay_a[k], abs=1e-8)
            assert out.expected_payment[1] == pytest.approx(batch.pay_b[k], abs=1e-8)
            assert out.revenue == pytest.approx(batch.revenue[k], abs=1e-8)
            assert out.true_welfare == pytest.approx(batch.welfare[k], abs=1e-12)
            assert out.apparent_welfare == pytest.approx(batch.apparent_welfare[k], abs=1e-12)
            assert u[0] == pytest.approx(batch.utility_a[k], abs=1e-8)
            assert u[1] == pytest.approx(batch.utility_b[k], abs=1e-8)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_batch_entries_equal_scalar_calls(self, fmt):
        # experiment 1 reads the realized profile out of a grid batch, so each
        # entry must be the scalar evaluation bit for bit, ties and zeros included
        setting = TwoByTwoSetting(0.37, 0.85)
        fields = ("utility_a", "utility_b", "revenue", "welfare")
        for va in (0.0, 0.3, 1.0):
            for vb in (0.0, 0.3, 1.0):
                grid = np.linspace(0.0, 2.0 * va, 21)
                for bid_b in np.linspace(0.0, 2.0 * vb, 21)[[0, 3, 10, 20]]:
                    batch = simulate_profiles(setting, fmt, grid, bid_b, va, vb)
                    for k, bid_a in enumerate(grid):
                        one = simulate_profiles(setting, fmt, bid_a, bid_b, va, vb)
                        for name in fields:
                            assert getattr(batch, name)[k] == getattr(one, name), (name, k)


class TestMcOracle:
    def test_matches_closed_form(self):
        for fmt in ALL_FORMATS:
            est = revenue_oracle_mc(SETTING, fmt, equilibrium_strategy(SETTING, fmt),
                                    150_000, seed=99)
            assert abs(est.mean - equilibrium_revenue(SETTING, fmt)) <= 4 * est.stderr

    def test_second_price_limit(self):
        s = TwoByTwoSetting(0.0, 0.0)
        est = revenue_oracle_mc(s, Format.OPT_VCG, EquilibriumStrategy(1.0, 1.0),
                                120_000, seed=7)
        assert abs(est.mean - 1.0 / 3.0) <= 3 * est.stderr

    def test_degenerate_diagonal(self):
        s = TwoByTwoSetting(0.4, 0.4)
        est = revenue_oracle_mc(s, Format.GREEDY_GSP, equilibrium_strategy(s, Format.GREEDY_GSP),
                                120_000, seed=8)
        assert abs(est.mean - 0.2) <= 3 * est.stderr

    def test_sample_count_validated(self):
        with pytest.raises(AuctionError):
            revenue_oracle_mc(SETTING, Format.GREEDY_GSP, EquilibriumStrategy(1, 1), 0, 1)


class TestBestResponse:
    def test_greedy_gsp_interior(self):
        b = best_response(SETTING, Format.GREEDY_GSP, opponent_slope=1.0 / 3.0,
                          own_value=0.4)
        assert b == pytest.approx(0.2, abs=3e-4)

    def test_greedy_vcg_overbid(self):
        b = best_response(SETTING, Format.GREEDY_VCG, opponent_slope=2.0 / 3.0,
                          own_value=0.4)
        assert b == pytest.approx(0.6, abs=3e-4)

    def test_zero_value(self):
        assert best_response(SETTING, Format.GREEDY_GSP, 1.0 / 3.0, 0.0) == 0.0

    def test_player_b_side(self):
        b = best_response(SETTING, Format.GREEDY_GSP, opponent_slope=0.5,
                          own_value=0.6, player="b")
        assert b == pytest.approx((1 - 2.0 / 3.0) * 0.6, abs=3e-4)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_tracks_prescription_across_values(self, fmt):
        from posauctions.experiments import flat_payoff_threshold

        strat = equilibrium_strategy(SETTING, fmt)
        cap = flat_payoff_threshold(SETTING, fmt, "a")
        grid_step = 2.0 / 9999
        for v in np.linspace(0, 1, 21):
            prescribed = strat.slope_a * v
            found = best_response(SETTING, fmt, strat.slope_b, float(v))
            if prescribed < cap - 1e-9:
                assert abs(found - prescribed) <= grid_step + 1e-9, (fmt, v)
            else:
                # best responses are non-unique in the cap region: compare payoffs
                u = interim_utility(SETTING, fmt, strat.slope_b, "a", float(v),
                                    np.array([min(prescribed, 2.0), found]))
                assert u[0] == pytest.approx(u[1], abs=1e-9), (fmt, v)


def test_sweep_rows_shape():
    rows = sweep_rows([(0.5, 2.0 / 3.0)], list(ALL_FORMATS), 2_000, seed=1)
    assert len(rows) == 4
    assert {r["format"] for r in rows} == {f.value for f in ALL_FORMATS}
    for r in rows:
        assert r["mc_stderr"] > 0
