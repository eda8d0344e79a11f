"""Command-line entry point.

Subcommands: ``auction run`` (one-shot mechanism evaluation), ``equilibrium``
(closed forms with Monte-Carlo cross-check and the revenue ordering),
``poa`` (lower-bound instance suite), ``learn exp1|exp2|exp3`` (learning
experiments from a JSON config), and ``dataset synth|normalize``.  Every
command writes UTF-8 CSV/JSON files plus a machine-readable ``summary.json``
into the output directory; the exit code is 0 iff all requested checks pass.
All randomness flows from ``--seed`` (a generated seed is logged if omitted).
"""
from __future__ import annotations

import argparse
import csv
import json
import secrets
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analytic, datasets, engine, fixtures
from .experiments import (ExperimentConfig, SCHEMA_VERSION, run_experiment1,
                          run_experiment23, summarize)
from .model import AuctionError, BidProfile, instance_from_json

DEFAULT_GRID = ((0.0, 0.3), (0.0, 0.6), (0.1, 0.5), (0.1, 0.9), (0.2, 0.4),
                (0.3, 0.7), (0.37, 0.85), (0.5, 2.0 / 3.0), (0.6, 0.8), (0.7, 0.95))


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row[c]) for c in columns])


def _fmt_cell(x):
    if isinstance(x, float):
        return repr(float(x))
    return x


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _finish(out: Path, command: str, seed: int, ok: bool, outputs: list[str],
            details: dict | None = None) -> int:
    summary = {"schema_version": SCHEMA_VERSION, "command": command, "seed": seed,
               "ok": bool(ok), "outputs": sorted(outputs)}
    if details:
        summary["details"] = details
    _write_json(out / "summary.json", summary)
    print(f"[posauctions] {command}: {'ok' if ok else 'FAILED'} -> {out}")
    return 0 if ok else 1


def _cmd_auction_run(args, out: Path, seed: int) -> int:
    try:
        instance = instance_from_json(Path(args.instance).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise AuctionError(f"unreadable instance {args.instance}: {exc}") from None
    try:
        bids = BidProfile(tuple(float(x) for x in args.bids.split(",")))
    except ValueError as exc:
        raise AuctionError(f"--bids must be comma-separated numbers: {exc}") from None
    fmt = engine.Format.parse(args.format)
    outcome = engine.run_auction(instance, bids, fmt)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "format": fmt.value,
        "bids": list(bids.bids),
        "assignment": {str(b): s for b, s in sorted(outcome.assignment.slot_of.items())},
        "per_conversion_price": list(outcome.per_conversion_price),
        "expected_payment": list(outcome.expected_payment),
        "true_welfare": outcome.true_welfare,
        "apparent_welfare": outcome.apparent_welfare,
        "revenue": outcome.revenue,
    }
    _write_json(out / "outcome.json", doc)
    return _finish(out, "auction run", seed, True, ["outcome.json"])


def _cmd_equilibrium(args, out: Path, seed: int) -> int:
    if (args.delta_a is None) != (args.delta_b is None):
        raise AuctionError("give both --delta-a and --delta-b, or neither for the grid")
    pairs = [(args.delta_a, args.delta_b)] if args.delta_a is not None else list(DEFAULT_GRID)
    rows = analytic.sweep_rows(pairs, list(engine.ALL_FORMATS), args.samples, seed)
    ok = True
    for row in rows:
        gap = abs(row["mc_mean"] - row["closed_form"])
        row["within_4_stderr"] = bool(gap <= 4.0 * row["mc_stderr"])
        ok = ok and row["within_4_stderr"]
    _write_csv(out / "equilibrium_revenue.csv", rows,
               ["delta_a", "delta_b", "format", "closed_form", "mc_mean", "mc_stderr",
                "within_4_stderr"])
    hier = []
    for da, db in pairs:
        if da >= db:
            continue
        report = analytic.revenue_hierarchy(analytic.TwoByTwoSetting(da, db))
        hier.append({"delta_a": da, "delta_b": db, "gap": report.gap,
                     "ordered": report.ordered, **report.revenues})
        ok = ok and report.ordered
    _write_json(out / "revenue_hierarchy.json", hier)
    return _finish(out, "equilibrium", seed, ok,
                   ["equilibrium_revenue.csv", "revenue_hierarchy.json"],
                   {"pairs": len(pairs), "samples": args.samples})


def _cmd_poa(args, out: Path, seed: int) -> int:
    rows = fixtures.poa_suite(args.epsilon, args.optgsp_delta_a,
                              resolution=args.resolution)
    docs = [asdict(r) for r in rows]
    _write_csv(out / "poa_suite.csv", docs,
               ["fmt", "name", "epsilon", "equilibrium_welfare", "optimal_welfare",
                "ratio", "upper_bound", "nash_gain", "certified"])
    ok = all(r.certified for r in rows)
    return _finish(out, "poa", seed, ok, ["poa_suite.csv"])


def _cmd_learn(args, out: Path, seed: int | None) -> int:
    if args.config is None:
        raise AuctionError("learning experiments need --config")
    config = ExperimentConfig.from_json_file(args.config)
    if seed is not None:
        config.seed = seed
    outputs = []
    trace_dir = out if args.trace else None
    if args.which == "exp1":
        result = run_experiment1(config, trace_dir=trace_dir)
        reports = result.reports
        table = [asdict(r) for r in result.bid_table]
        _write_csv(out / "exp1_bids.csv", table,
                   ["format", "population", "valuation", "mean_bid", "theoretical_bid",
                    "interior", "samples"])
        outputs.append("exp1_bids.csv")
    else:
        mode = datasets.INDEPENDENT if args.which == "exp2" else datasets.CORRELATED
        if config.dataset_mode is None:
            config.dataset_mode = mode
        dataset = datasets.load_dataset(config.dataset, Path(config.dataset).with_suffix(".json"))
        reports = run_experiment23(config, dataset, trace_dir=trace_dir)
    _write_json(out / "reports.json", [r.to_dict() for r in reports])
    table = summarize(reports)
    _write_json(out / "summary_table.json", table)
    columns = list(table["rows"][0].keys())
    _write_csv(out / "summary_table.csv", table["rows"], columns)
    outputs += ["reports.json", "summary_table.json", "summary_table.csv"]
    if args.trace:
        outputs += [f"trace_{r.format}.csv" for r in reports]
    ok = all(np.isfinite(r.empirical_poa) and r.empirical_poa >= 1.0 - 1e-6 for r in reports)
    return _finish(out, f"learn {args.which}", config.seed, ok, outputs)


def _cmd_dataset(args, out: Path, seed: int) -> int:
    if args.which == "synth":
        records = datasets.synth_generate(args.advertisers, args.records, seed=seed)
        path = out / args.name
        datasets.write_bid_csv(path, records)
        return _finish(out, "dataset synth", seed, True, [args.name],
                       {"advertisers": args.advertisers, "records_per": args.records})
    records = datasets.read_bid_csv(args.input)
    if args.mode == "advertisers":
        ds = datasets.normalize_advertisers(records)
    else:
        ds = datasets.normalize_auctions(records)
    csv_path = out / args.name
    datasets.save_dataset(ds, csv_path, csv_path.with_suffix(".json"))
    return _finish(out, "dataset normalize", seed, True,
                   [args.name, csv_path.with_suffix(".json").name],
                   {"mode": ds.mode})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="posauctions")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed; generated and logged when omitted")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--config", type=Path, default=None, help="experiment config JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    auction = sub.add_parser("auction").add_subparsers(dest="which", required=True)
    run = auction.add_parser("run")
    run.add_argument("--instance", required=True)
    run.add_argument("--bids", required=True, help="comma-separated per-bidder bids")
    run.add_argument("--format", required=True)
    run.set_defaults(func=_cmd_auction_run)

    eq = sub.add_parser("equilibrium")
    eq.add_argument("--delta-a", type=float, default=None)
    eq.add_argument("--delta-b", type=float, default=None)
    eq.add_argument("--samples", type=int, default=100_000)
    eq.set_defaults(func=_cmd_equilibrium)

    poa = sub.add_parser("poa")
    poa.add_argument("--epsilon", type=float, default=0.01)
    poa.add_argument("--optgsp-delta-a", type=float, default=0.001)
    poa.add_argument("--resolution", type=int, default=10_000)
    poa.set_defaults(func=_cmd_poa)

    learn = sub.add_parser("learn")
    learn.add_argument("which", choices=["exp1", "exp2", "exp3"])
    learn.add_argument("--trace", action="store_true",
                       help="dump per-round learner weights (round, player, arm, weight)")
    learn.set_defaults(func=_cmd_learn, needs_config_seed=True)

    dataset = sub.add_parser("dataset").add_subparsers(dest="which", required=True)
    synth = dataset.add_parser("synth")
    synth.add_argument("--advertisers", type=int, default=10)
    synth.add_argument("--records", type=int, default=200)
    synth.add_argument("--name", default="raw_bids.csv")
    synth.set_defaults(func=_cmd_dataset)
    norm = dataset.add_parser("normalize")
    norm.add_argument("--mode", choices=["advertisers", "auctions"], required=True)
    norm.add_argument("--input", required=True)
    norm.add_argument("--name", default="normalized.csv")
    norm.set_defaults(func=_cmd_dataset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    if seed is None and not getattr(args, "needs_config_seed", False):
        seed = secrets.randbelow(2**31)
        print(f"[posauctions] no --seed given; using generated seed {seed}")
    try:
        return args.func(args, out, seed)
    except AuctionError as exc:
        print(f"[posauctions] error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
