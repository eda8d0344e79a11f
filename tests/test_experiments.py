import json

import numpy as np
import pytest

from posauctions import datasets, pricing
from posauctions.allocation import allocate_greedy
from posauctions.engine import (Format, conservative_profile, counterfactual_utility,
                                outcome_utilities, random_instance, run_auction)
from posauctions.experiments import (ExperimentConfig, _arm_utilities,
                                     flat_payoff_threshold, run_experiment1,
                                     run_experiment23, summarize)
from posauctions.analytic import TwoByTwoSetting
from posauctions.model import AuctionError, AuctionInstance, Bidder, DiscountCurve, TOL
from posauctions.pricing import vcg_greedy_payment_recursion


def exp1_config(**overrides):
    base = dict(formats=(Format.GREEDY_GSP,), d=8, V=4, M=2, S=2, N_l=250, N_e=40,
                OB=True, value_dependent=True, delta0=1.0, delta=(0.37, 0.85), seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def exp23_config(**overrides):
    base = dict(formats=(Format.GREEDY_GSP,), d=5, M=3, S=2, N_s=2, N_l=15, N_t=8,
                OB=False, value_dependent=True, delta0=1.0, delta=(0.9, 0.8, 0.7),
                seed=7, dataset="inline", dataset_mode="independent")
    base.update(overrides)
    return ExperimentConfig(**base)


def small_dataset(mode="independent"):
    recs = datasets.synth_generate(4, 50, seed=13)
    if mode == "independent":
        return datasets.normalize_advertisers(recs)
    return datasets.normalize_auctions(recs)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = exp1_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        back = ExperimentConfig.from_json_file(path)
        assert back == cfg

    def test_table_keys(self):
        doc = exp1_config().to_dict()
        for key in ("d", "V", "M", "S", "N_s", "N_l", "N_t", "N_e", "OB", "delta0", "delta"):
            assert key in doc

    def test_unknown_keys_rejected(self):
        with pytest.raises(AuctionError):
            ExperimentConfig.from_dict({"formats": [], "bogus": 1})

    def test_exp1_rejects_dataset(self):
        cfg = exp1_config(dataset="some.csv")
        with pytest.raises(AuctionError):
            cfg.validate_bayesian()

    def test_exp23_requires_dataset(self):
        cfg = exp23_config(dataset=None, dataset_mode=None)
        with pytest.raises(AuctionError):
            cfg.validate_dataset_run()

    def test_delta_per_bidder(self):
        cfg = exp23_config(delta=(0.9, 0.8))
        with pytest.raises(AuctionError):
            cfg.validate_dataset_run()


def tenths_instance(rng, n, m):
    """Discounts, values and bids on the tenths grid, where slots tie often."""
    curves = {f"t{k}": DiscountCurve(tuple(np.sort(rng.integers(0, 11, m))[::-1] / 10))
              for k in range(3)}
    bidders = tuple(Bidder(i, f"t{int(rng.integers(3))}", float(rng.integers(0, 11)) / 10)
                    for i in range(n))
    return AuctionInstance(bidders, curves, m), rng.integers(0, 11, n) / 10


class TestArmUtilities:
    @pytest.mark.parametrize("fmt", [Format.GREEDY_GSP, Format.GREEDY_VCG, Format.OPT_VCG])
    def test_matches_counterfactuals_continuous(self, fmt):
        # continuous prices, so not opt_gsp, whose sweep charges grid prices;
        # the tenths instances put ties at grid bids, n <= m and m = 1 included
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(6):
            inst = random_instance(rng, n=4, m=3, min_discount=0.05)
            cases.append((inst, conservative_profile(rng, inst), np.linspace(0.0, 1.0, 7)))
        for k in range(40):
            cases.append((*tenths_instance(rng, n=1 + k % 9, m=1 + k % 4),
                          np.linspace(0.0, 1.0, 11)))
        for inst, bids, arms in cases:
            for i in range(inst.n):
                got = _arm_utilities(inst, bids, i, fmt, arms)
                want = [counterfactual_utility(inst, bids, i, float(a), fmt) for a in arms]
                assert got.tolist() == want

    @pytest.mark.parametrize("tenths", [False, True], ids=["continuous", "tenths"])
    def test_greedy_vcg_matches_payment_recursion(self, tenths):
        # the recursion is an independent derivation of greedy-VCG payments
        rng = np.random.default_rng(27)
        arms = np.linspace(0.0, 1.0, 11)
        for k in range(30):
            if tenths:
                inst, bids = tenths_instance(rng, n=1 + k % 8, m=1 + k % 4)
            else:
                inst = random_instance(rng, n=1 + k % 8, m=1 + k % 4)
                bids = conservative_profile(rng, inst)
            for i in range(inst.n):
                got = _arm_utilities(inst, bids, i, Format.GREEDY_VCG, arms)
                for a, x in enumerate(arms):
                    trial = bids.copy()
                    trial[i] = x
                    s = allocate_greedy(inst, trial).slot_of.get(i)
                    want = 0.0 if s is None else (
                        inst.discount(i, s) * inst.values[i]
                        - vcg_greedy_payment_recursion(inst, trial)[i])
                    assert abs(got[a] - want) <= TOL

    @pytest.mark.parametrize("fmt", [Format.GREEDY_GSP, Format.GREEDY_VCG])
    def test_greedy_sweep_allocates_m_plus_one_times(self, monkeypatch, fmt):
        # greedy once without the bidder, then once per slot it could enter,
        # however many arms the sweep scores
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=9, m=4)
        arms = np.linspace(0.0, 1.0, 21)
        calls = []
        real = pricing.greedy_slot_vector

        def counting(weights, active=None):
            calls.append(active)
            return real(weights, active)

        monkeypatch.setattr(pricing, "greedy_slot_vector", counting)
        _arm_utilities(inst, arms[rng.integers(arms.size, size=inst.n)], 3, fmt, arms)
        assert len(calls) == inst.slot_count + 1

    def test_opt_gsp_grid_pricing_matches_full_run(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng, n=4, m=3, min_discount=0.05)
        bids = conservative_profile(rng, inst)
        arms = np.linspace(0.0, 1.0, 6)
        for i in range(inst.n):
            got = _arm_utilities(inst, bids, i, Format.OPT_GSP, arms)
            for k, arm in enumerate(arms):
                trial = bids.copy()
                trial[i] = arm
                out = run_auction(inst, trial, Format.OPT_GSP, gsp_bid_grid=arms)
                assert got[k] == pytest.approx(outcome_utilities(inst, out)[i], abs=1e-9)

    @pytest.mark.parametrize("fmt", list(Format))
    def test_realized_arm_matches_run_auction(self, fmt):
        # the sweep is the learners' only payoff source, so its realized arm
        # must equal the realized auction's payoff bit for bit; nine bidders
        # because numpy sums length-9 vectors out of order
        rng = np.random.default_rng(23)
        arms = np.linspace(0.0, 1.0, 21)
        for _ in range(4):
            inst = random_instance(rng, n=9, m=4, min_discount=0.1)
            picks = rng.integers(arms.size, size=inst.n)
            bids = arms[picks]
            u_real = outcome_utilities(inst, run_auction(inst, bids, fmt, gsp_bid_grid=arms))
            for i in range(inst.n):
                assert _arm_utilities(inst, bids, i, fmt, arms)[picks[i]] == u_real[i]


class TestExperiment1:
    def test_accounting_and_determinism(self):
        cfg = exp1_config()
        res1 = run_experiment1(cfg)
        res2 = run_experiment1(cfg)
        r = res1.reports[0]
        assert r.learning_evaluations == cfg.N_l * (cfg.d * cfg.M + 1)
        assert json.dumps([x.to_dict() for x in res1.reports], sort_keys=True) == \
            json.dumps([x.to_dict() for x in res2.reports], sort_keys=True)
        assert [vars(a) for a in res1.bid_table] == [vars(b) for b in res2.bid_table]

    def test_zero_value_population_bids_zero(self):
        res = run_experiment1(exp1_config())
        for row in res.bid_table:
            if row.valuation == 0.0:
                assert row.mean_bid == 0.0

    def test_poa_at_least_one(self):
        res = run_experiment1(exp1_config(N_l=600))
        for r in res.reports:
            assert r.empirical_poa >= 1.0 - 1e-9

    def test_interior_threshold_logic(self):
        setting = TwoByTwoSetting(0.37, 0.85)
        # payoff caps against the equilibrium opponent, per format and side
        assert flat_payoff_threshold(setting, Format.GREEDY_GSP, "a") == pytest.approx(0.15)
        assert flat_payoff_threshold(setting, Format.GREEDY_GSP, "b") == pytest.approx(0.63)
        ratio = setting.premium_ratio
        assert flat_payoff_threshold(setting, Format.OPT_GSP, "a") == pytest.approx(ratio * 0.15)
        assert flat_payoff_threshold(setting, Format.GREEDY_VCG, "a") == pytest.approx(ratio)
        assert flat_payoff_threshold(setting, Format.OPT_VCG, "b") == pytest.approx(1.0 / ratio)

    def test_validation(self):
        with pytest.raises(AuctionError):
            run_experiment1(exp1_config(M=3))
        with pytest.raises(AuctionError):
            run_experiment1(exp1_config(delta=(0.9, 0.2)))


class TestExperiment23:
    def test_accounting_welfare_bound_and_determinism(self):
        cfg = exp23_config(formats=(Format.GREEDY_GSP, Format.OPT_VCG))
        ds = small_dataset()
        reps1 = run_experiment23(cfg, ds)
        reps2 = run_experiment23(cfg, ds)
        assert [r.to_dict() for r in reps1] == [r.to_dict() for r in reps2]
        for r in reps1:
            assert r.learning_evaluations == cfg.N_s * cfg.N_l * (cfg.d * cfg.M + 1)
            assert r.test_evaluations == cfg.N_s * cfg.N_t
            assert r.mean_welfare <= r.mean_optimal_welfare + 1e-9
            assert r.empirical_poa >= 1.0 - 1e-9

    def test_correlated_mode(self):
        cfg = exp23_config(dataset_mode="correlated", formats=(Format.OPT_VCG,))
        reps = run_experiment23(cfg, small_dataset("correlated"))
        assert reps[0].empirical_poa >= 1.0 - 1e-9

    def test_mode_mismatch(self):
        cfg = exp23_config(dataset_mode="correlated")
        with pytest.raises(AuctionError):
            run_experiment23(cfg, small_dataset("independent"))

    def test_identical_values_and_curves_opt_vcg_is_efficient(self):
        # equal bids within each auction normalize to all-ones value vectors,
        # and with identical curves every matching has the same welfare
        recs = [datasets.BidRecord(f"adv{a}", f"auc{k}", 5.0 + (k % 17))
                for a in range(3) for k in range(40)]
        ds = datasets.normalize_auctions(recs)
        cfg = exp23_config(formats=(Format.OPT_VCG,), delta=(0.8, 0.8, 0.8),
                           dataset_mode="correlated", N_s=2, N_l=25, N_t=20)
        rep = run_experiment23(cfg, ds)[0]
        assert rep.empirical_poa == pytest.approx(1.0, abs=1e-12)


class TestSummarize:
    def test_single_report(self):
        reps = run_experiment23(exp23_config(), small_dataset())
        doc = summarize(reps)
        row = doc["rows"][0]
        assert row["runs"] == 1
        assert row["mean_revenue_mean"] == row["mean_revenue_median"]

    def test_hierarchy_flag(self):
        cfg = exp23_config(formats=(Format.GREEDY_GSP, Format.OPT_GSP), N_s=2, N_l=10, N_t=5)
        doc = summarize(run_experiment23(cfg, small_dataset()))
        assert doc["greedy_gsp_revenue_at_least_opt_gsp"] in (True, False)

    def test_empty_rejected(self):
        with pytest.raises(AuctionError):
            summarize([])
