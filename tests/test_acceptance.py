"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion log.
Grids, sample counts, and tolerances are pinned here; the experiment
criteria (9 and 10) run the desk-scale parameterizations.
"""
import json
import math

import numpy as np
import pytest

from posauctions import datasets
from posauctions.analytic import (TwoByTwoSetting, equilibrium_revenue, equilibrium_strategy,
                                  revenue_hierarchy, revenue_oracle_mc)
from posauctions.allocation import allocate_bruteforce, allocate_greedy, allocate_optimal
from posauctions.engine import (ALL_FORMATS, Format, check_semismoothness,
                                conservative_profile, random_instance, run_auction)
from posauctions.experiments import ExperimentConfig, run_experiment1, run_experiment23
from posauctions.fixtures import greedy_gsp_gap, greedy_vcg_gap, optgsp_family, verify_pure_nash
from posauctions.learning import BidGrid, ExpWeights, certify_cce, optimal_learning_rate
from posauctions.model import welfare
from posauctions.pricing import certify_no_overcharge, price_vcg, vcg_greedy_payment_recursion

DELTA_GRID = ((0.0, 0.3), (0.0, 0.6), (0.1, 0.5), (0.1, 0.9), (0.2, 0.4),
              (0.3, 0.7), (0.37, 0.85), (0.5, 2.0 / 3.0), (0.6, 0.8), (0.7, 0.95))

EXP23_DELTAS = (0.9, 0.9, 0.8, 0.8, 0.7, 0.7, 0.6, 0.6, 0.5)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_closed_form_vs_mc_oracle():
    """Four formats x ten settings: 1e6-sample MC within 4 stderr of Table values."""
    worst_z = 0.0
    for k, (da, db) in enumerate(DELTA_GRID):
        setting = TwoByTwoSetting(da, db)
        for j, fmt in enumerate(ALL_FORMATS):
            est = revenue_oracle_mc(setting, fmt, equilibrium_strategy(setting, fmt),
                                    1_000_000, seed=90_000 + 10 * k + j)
            z = abs(est.mean - equilibrium_revenue(setting, fmt)) / est.stderr
            worst_z = max(worst_z, z)
    report("C1 closed-form vs MC oracle", worst_z <= 4.0, f"worst |z| = {worst_z:.2f}")


def test_c02_revenue_hierarchy():
    ok = True
    min_gap = math.inf
    for da in np.arange(0.05, 0.95, 0.05):
        for db in np.arange(da + 0.05, 0.96, 0.05):
            rep = revenue_hierarchy(TwoByTwoSetting(float(da), float(db)))
            ok = ok and rep.revenues["opt_vcg"] == rep.revenues["greedy_gsp"]
            ok = ok and rep.revenues["opt_gsp"] == rep.revenues["greedy_vcg"]
            ok = ok and rep.gap >= 0.0
            min_gap = min(min_gap, rep.gap)
    report("C2 revenue hierarchy", ok, f"min gap = {min_gap:.3e}")


def test_c03_degenerate_collapse():
    ok = True
    for delta in np.linspace(0.0, 1.0, 11):
        s = TwoByTwoSetting(float(delta), float(delta))
        for fmt in ALL_FORMATS:
            ok = ok and equilibrium_revenue(s, fmt) == pytest.approx((1 - delta) / 3, abs=1e-12)
    s0 = TwoByTwoSetting(0.0, 0.0)
    est = revenue_oracle_mc(s0, Format.OPT_VCG, equilibrium_strategy(s0, Format.OPT_VCG),
                            1_000_000, seed=424242)
    z = abs(est.mean - 1.0 / 3.0) / est.stderr
    ok = ok and z <= 4.0
    report("C3 degenerate collapse", ok, f"second-price MC |z| = {z:.2f}")


def test_c04_poa_fixtures():
    eps = 0.01
    g = greedy_gsp_gap(eps)
    gain_g = verify_pure_nash(g, resolution=10_000)
    ratio_g = g.welfare_ratio
    t = greedy_vcg_gap(eps)
    gain_t = verify_pure_nash(t, resolution=10_000)
    ratio_t = t.welfare_ratio
    f0 = optgsp_family(0.0)
    ok = (gain_g <= 1e-6 and ratio_g == pytest.approx(2 - eps, abs=1e-12)
          and gain_t <= 1e-6
          and ratio_t == pytest.approx((3 - 2 * eps - 2 * eps**2)
                                       / (2 + eps + eps**2 - eps**3), abs=1e-12)
          and f0.equilibrium_welfare / f0.optimal_welfare == 0.75)
    report("C4 PoA fixtures", ok,
           f"gains = ({gain_g:.2e}, {gain_t:.2e}), ratios = ({ratio_g:.4f}, {ratio_t:.4f})")


def test_c05_semismoothness_property_suite():
    rng = np.random.default_rng(31337)
    violations = 0
    worst = math.inf
    for _ in range(1000):
        inst = random_instance(rng, max_bidders=6, max_slots=4, min_discount=0.05)
        bids = conservative_profile(rng, inst)
        for fmt in (Format.GREEDY_GSP, Format.GREEDY_VCG, Format.OPT_GSP):
            slack = check_semismoothness(inst, bids, fmt)
            if not math.isinf(slack):
                worst = min(worst, slack)
            if slack < -1e-9:
                violations += 1
    report("C5 semismoothness suite", violations == 0,
           f"violations = {violations}, worst slack = {worst:.3e}")


def test_c06_no_overcharge_and_payment_recursion():
    rng = np.random.default_rng(60_606)
    ok = True
    worst_gap = 0.0
    for _ in range(1000):
        inst = random_instance(rng, max_bidders=6, max_slots=4)
        bids = conservative_profile(rng, inst)
        good, _ = certify_no_overcharge(inst, bids, "greedy", "vcg")
        ok = ok and good
        good, _ = certify_no_overcharge(inst, bids, "optimal", "gsp")
        ok = ok and good
        rec = vcg_greedy_payment_recursion(inst, bids)
        gap = float(np.max(np.abs(rec - np.asarray(price_vcg(inst, bids, "greedy").expected))))
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 1e-9
    report("C6 no-overcharge + recursion", ok, f"worst recursion gap = {worst_gap:.2e}")


def test_c07_matching_oracle():
    rng = np.random.default_rng(70_707)
    ok = True
    for _ in range(500):
        inst = random_instance(rng, max_bidders=7, max_slots=4)
        bids = rng.uniform(0.0, 1.5, inst.n)
        w_opt = welfare(inst, allocate_optimal(inst, bids), bids)
        w_brute = welfare(inst, allocate_bruteforce(inst, bids), bids)
        w_greedy = welfare(inst, allocate_greedy(inst, bids), bids)
        ok = ok and abs(w_opt - w_brute) <= 1e-12 and w_greedy <= w_opt + 1e-12
    report("C7 matching oracle", ok)


def test_c08_exponential_weights_regret():
    ok = True
    detail = []
    k = 21
    for horizon in (100, 10_000):
        eta = optimal_learning_rate(k, horizon)
        bound = 2.0 * math.sqrt(math.log(k) / horizon)
        rng = np.random.default_rng(horizon)
        streams = {
            "alternating": lambda t: _alternating(k, t),
            "random": lambda t: rng.random(k),
            "drifting": lambda t: _drifting(k, t, horizon),
        }
        for name, gen in streams.items():
            learner = ExpWeights(BidGrid.evenly(k - 1, 1.0), eta, track_history=False)
            for t in range(horizon):
                learner.step(gen(t))
            regret = learner.average_regret()
            ok = ok and regret <= bound
            ok = ok and certify_cce([learner], bound + 1e-9)
            detail.append(f"{name}@T={horizon}: {regret:.4f}<={bound:.4f}")
    report("C8 EW regret bound", ok, "; ".join(detail))


def _alternating(k, t):
    u = np.full(k, 0.5)
    u[t % 2] = 1.0
    u[(t + 1) % 2] = 0.0
    return u


def _drifting(k, t, horizon):
    u = np.zeros(k)
    u[(t * k) // horizon % k] = 1.0
    return u


def exp1_desk_config() -> ExperimentConfig:
    return ExperimentConfig(
        formats=ALL_FORMATS, d=20, V=10, M=2, S=2, N_l=50_000, N_e=1037,
        OB=True, value_dependent=True, delta0=1.0, delta=(0.37, 0.85),
        eta=0.3, seed=20240801)


def test_c09_experiment1_tracks_equilibrium_lines():
    res = run_experiment1(exp1_desk_config())
    worst = 0.0
    worst_row = None
    interior_rows = 0
    for row in res.bid_table:
        if row.interior:
            interior_rows += 1
            err = abs(row.mean_bid - row.theoretical_bid)
            if err > worst:
                worst, worst_row = err, row
    ok = worst <= 0.1 and interior_rows >= 20
    report("C9 experiment 1 bid lines", ok,
           f"worst |mean - line| = {worst:.4f} at "
           f"{worst_row.format}/{worst_row.population}/v={worst_row.valuation}")


def exp23_desk_config(mode: str) -> ExperimentConfig:
    return ExperimentConfig(
        formats=ALL_FORMATS, d=20, M=9, S=4, N_s=20, N_l=100, N_t=200, N_e=0,
        OB=False, value_dependent=True, delta0=1.0, delta=EXP23_DELTAS,
        eta="auto", seed=2025, dataset="synthetic", dataset_mode=mode)


def test_c10_experiments_2_and_3_empirical_poa():
    records = datasets.synth_generate(10, 400, seed=1234)
    ok = True
    details = []
    for which, ds in (("exp2", datasets.normalize_advertisers(records)),
                      ("exp3", datasets.normalize_auctions(records))):
        reports = run_experiment23(exp23_desk_config(ds.mode), ds)
        poas = {r.format: r.empirical_poa for r in reports}
        in_range = all(1.0 - 1e-9 <= p < 4.0 for p in poas.values())
        vcg_best = all(poas["opt_vcg"] <= p + 0.05 for f, p in poas.items() if f != "opt_vcg")
        ok = ok and in_range and vcg_best
        details.append(f"{which}: " + ", ".join(f"{f}={p:.3f}" for f, p in sorted(poas.items())))
    report("C10 experiments 2/3 empirical PoA", ok, " | ".join(details))


def test_c11_cli_determinism(tmp_path):
    from posauctions.cli import main
    from posauctions.model import instance_to_json

    def run_all(base):
        base.mkdir()
        inst_path = base / "instance.json"
        inst_path.write_text(instance_to_json(greedy_gsp_gap(0.1).instance), encoding="utf-8")
        cfg = exp1_desk_config().to_dict()
        cfg.update({"N_l": 400, "N_e": 50, "formats": ["GreedyGSP"]})
        cfg_path = base / "exp1.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = []
        for name, argv in (
            ("auction", ["auction", "run", "--instance", str(inst_path),
                         "--bids", "0,1", "--format", "GreedyGSP"]),
            ("equilibrium", ["equilibrium", "--delta-a", "0.5", "--delta-b", "0.6667",
                             "--samples", "30000"]),
            ("poa", ["poa", "--resolution", "3000"]),
            ("synth", ["dataset", "synth", "--advertisers", "4", "--records", "50"]),
            ("learn", ["--config", str(cfg_path), "learn", "exp1"]),
        ):
            out = base / name
            rc = main(["--seed", "77", "--out", str(out)] + argv)
            assert rc == 0, name
            outs.append(out)
        return {
            f"{out.name}/{p.name}": p.read_bytes()
            for out in outs for p in sorted(out.iterdir()) if p.is_file()
        }

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    report("C11 CLI determinism", first == second,
           f"{len(first)} files byte-compared")
