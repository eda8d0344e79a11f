import json
from pathlib import Path

import pytest

from posauctions.cli import main
from posauctions.fixtures import greedy_gsp_gap
from posauctions.model import AuctionInstance, Bidder, DiscountCurve, instance_to_json


def read_all_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_auction_run(tmp_path):
    g = greedy_gsp_gap(0.1)
    inst = tmp_path / "instance.json"
    inst.write_text(instance_to_json(g.instance), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["--seed", "1", "--out", str(out), "auction", "run", "--instance", str(inst),
               "--bids", "0,1", "--format", "GreedyGSP"])
    assert rc == 0
    doc = json.loads((out / "outcome.json").read_text())
    assert doc["revenue"] == 0.0
    assert doc["true_welfare"] == 1.0
    assert doc["assignment"] == {"0": 2, "1": 1}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is True


def test_equilibrium_single_pair(tmp_path):
    out = tmp_path / "out"
    rc = main(["--seed", "11", "--out", str(out), "equilibrium",
               "--delta-a", "0.5", "--delta-b", "0.6667", "--samples", "20000"])
    assert rc == 0
    rows = (out / "equilibrium_revenue.csv").read_text().strip().split("\n")
    assert rows[0].startswith("delta_a,delta_b,format,closed_form,mc_mean,mc_stderr")
    greedy_gsp = next(r for r in rows[1:] if ",greedy_gsp," in r)
    closed = float(greedy_gsp.split(",")[3])
    assert closed == pytest.approx(0.12963, abs=1e-3)


def test_poa_suite_csv(tmp_path):
    out = tmp_path / "out"
    rc = main(["--seed", "0", "--out", str(out), "poa", "--resolution", "2000"])
    assert rc == 0
    text = (out / "poa_suite.csv").read_text()
    row = next(r for r in text.splitlines() if "greedy_gsp_gap" in r)
    fields = row.split(",")
    assert float(fields[5]) == pytest.approx(1.99, abs=1e-9)  # ratio at eps=0.01
    assert float(fields[6]) == 4.0  # upper bound


def test_dataset_pipeline_and_learn(tmp_path):
    out1 = tmp_path / "raw"
    assert main(["--seed", "5", "--out", str(out1), "dataset", "synth",
                 "--advertisers", "4", "--records", "40"]) == 0
    out2 = tmp_path / "norm"
    assert main(["--seed", "5", "--out", str(out2), "dataset", "normalize",
                 "--mode", "advertisers", "--input", str(out1 / "raw_bids.csv")]) == 0
    cfg = {
        "formats": ["GreedyGSP", "OptVCG"], "d": 5, "M": 3, "S": 2,
        "N_s": 2, "N_l": 10, "N_t": 5, "N_e": 0, "OB": False,
        "value_dependent": True, "delta0": 1.0, "delta": [0.9, 0.8, 0.7],
        "eta": "auto", "seed": 21, "dataset": str(out2 / "normalized.csv"),
        "dataset_mode": "independent",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out3 = tmp_path / "learn"
    assert main(["--out", str(out3), "--config", str(cfg_path), "learn", "exp2"]) == 0
    reports = json.loads((out3 / "reports.json").read_text())
    assert {r["format"] for r in reports} == {"greedy_gsp", "opt_vcg"}


def test_learn_trace_export(tmp_path):
    cfg = {"formats": ["GreedyGSP"], "d": 4, "V": 2, "M": 2, "S": 2, "N_s": 0,
           "N_l": 20, "N_t": 0, "N_e": 5, "OB": True, "value_dependent": True,
           "delta0": 1.0, "delta": [0.37, 0.85], "eta": 0.3, "seed": 5,
           "dataset": None, "dataset_mode": None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--out", str(out), "--config", str(cfg_path), "learn", "exp1",
                 "--trace"]) == 0
    lines = (out / "trace_greedy_gsp.csv").read_text().splitlines()
    assert lines[0] == "round,player,arm,weight"
    # every selected representative logs one weight per arm per played round
    assert len(lines) - 1 == cfg["N_l"] * 2 * (cfg["d"] + 1)
    assert (out / "summary_table.csv").exists()


def test_seed_repeatability_bytes(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["--seed", "123", "--out", str(out), "equilibrium",
                   "--delta-a", "0.3", "--delta-b", "0.8", "--samples", "5000"])
        assert rc == 0
        runs.append(read_all_bytes(out))
    assert runs[0] == runs[1]


def test_unknown_format_is_an_error(tmp_path):
    g = greedy_gsp_gap(0.1)
    inst = tmp_path / "instance.json"
    inst.write_text(instance_to_json(g.instance), encoding="utf-8")
    rc = main(["--seed", "1", "--out", str(tmp_path / "o"), "auction", "run",
               "--instance", str(inst), "--bids", "0,1", "--format", "FirstPrice"])
    assert rc == 2


@pytest.mark.parametrize("row", ["adv0,auc1,abc", "adv0,auc1,-1.5", "adv0,auc1,nan",
                                 "adv0,auc1,inf", "adv0,auc1"],
                         ids=["non_numeric", "negative", "nan", "infinite", "missing_field"])
def test_normalize_rejects_malformed_bid(tmp_path, row):
    raw = tmp_path / "raw.csv"
    raw.write_text(f"advertiser_id,auction_id,bid\nadv0,auc0,1.5\n{row}\n", encoding="utf-8")
    assert main(["--seed", "1", "--out", str(tmp_path / "o"), "dataset", "normalize",
                 "--mode", "advertisers", "--input", str(raw)]) == 2


def test_learn_rejects_missing_dataset_sidecar(tmp_path):
    data = tmp_path / "normalized.csv"
    data.write_text("advertiser_id,auction_id,bid\nadv0,0,0.5\n", encoding="utf-8")
    cfg = {"formats": ["GreedyGSP"], "d": 4, "M": 1, "S": 1, "N_s": 1, "N_l": 2, "N_t": 1,
           "delta": [0.9], "seed": 3, "dataset": str(data)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--out", str(tmp_path / "o"), "--config", str(cfg_path), "learn", "exp2"]) == 2


def test_learn_rejects_string_count(tmp_path):
    cfg = {"formats": ["GreedyGSP"], "d": 4, "V": 2, "N_l": "100", "delta": [0.37, 0.85],
           "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--out", str(tmp_path / "o"), "--config", str(cfg_path), "learn", "exp1"]) == 2


@pytest.mark.parametrize("case", ["normalize_missing_csv", "config_missing", "config_bad_json",
                                  "config_not_object", "instance_missing", "instance_bad_json"])
def test_unreadable_input_file_exits_2(tmp_path, case):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    number = tmp_path / "number.json"
    number.write_text("3", encoding="utf-8")
    missing = str(tmp_path / "missing.json")
    run = ["auction", "run", "--bids", "0,1", "--format", "GreedyGSP", "--instance"]
    argv = {
        "normalize_missing_csv": ["dataset", "normalize", "--mode", "advertisers",
                                  "--input", str(tmp_path / "missing.csv")],
        "config_missing": ["--config", missing, "learn", "exp1"],
        "config_bad_json": ["--config", str(bad), "learn", "exp1"],
        "config_not_object": ["--config", str(number), "learn", "exp1"],
        "instance_missing": run + [missing],
        "instance_bad_json": run + [str(bad)],
    }[case]
    assert main(["--seed", "1", "--out", str(tmp_path / "o")] + argv) == 2


@pytest.mark.parametrize("case", ["bids_non_numeric", "value_non_numeric", "id_non_integer",
                                  "slots_non_integer"])
def test_non_numeric_input_exits_2(tmp_path, case):
    doc = json.loads(instance_to_json(greedy_gsp_gap(0.1).instance))
    bids = "0,1"
    if case == "bids_non_numeric":
        bids = "a,b"
    elif case == "value_non_numeric":
        doc["bidders"][0]["value"] = "abc"
    elif case == "id_non_integer":
        doc["bidders"][0]["id"] = 0.5
    else:
        doc["slots"] = "two"
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--seed", "1", "--out", str(tmp_path / "o"), "auction", "run",
                 "--instance", str(inst), "--bids", bids, "--format", "GreedyGSP"]) == 2


def test_instance_over_exact_table_guard_exits_2(tmp_path):
    # 17 bidders on 17 slots need 18 * 2**17 cells, over the exact allocator's guard
    curve = {"a": DiscountCurve(tuple(1.0 - s / 20 for s in range(17)))}
    instance = AuctionInstance(tuple(Bidder(i, "a", 1.0) for i in range(17)), curve, 17)
    inst = tmp_path / "instance.json"
    inst.write_text(instance_to_json(instance), encoding="utf-8")
    bids = ",".join(str(0.05 * (i + 1)) for i in range(17))
    assert main(["--seed", "1", "--out", str(tmp_path / "o"), "auction", "run",
                 "--instance", str(inst), "--bids", bids, "--format", "OptGSP"]) == 2
