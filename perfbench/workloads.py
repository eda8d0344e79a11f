"""The benchmark's workloads: generated inputs, timed units, checks, oracles.

A workload is a fixed list of CLI invocations (its units), driven through
``posauctions.cli.main`` exactly as a user would run them.  Every input the
program sees -- the synthetic bid data and each config JSON -- is generated
here from the workload seed.  A pass runs every unit once; its result carries
the pass wall time and, per auction format, throughput samples (mechanism
evaluations per second) whose median is the reported rate.
"""
from __future__ import annotations

import contextlib
import csv
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from posauctions import cli, datasets
from posauctions.allocation import allocate_bruteforce
from posauctions.analytic import TwoByTwoSetting, equilibrium_strategy
from posauctions.engine import ALL_FORMATS, Format, run_auction
from posauctions.fixtures import deviation_grid, greedy_gsp_gap, greedy_vcg_gap, optgsp_family
from posauctions.learning import BidGrid
from posauctions.model import AuctionInstance, Bidder, geometric_curve
from posauctions.pricing import PriceVector, certify_no_overcharge

from tracer import SpanRecorder, install

FORMAT_NAMES = tuple(f.value for f in ALL_FORMATS)
EXP23_DELTAS = (0.9, 0.9, 0.8, 0.8, 0.7, 0.7, 0.6, 0.6, 0.5)


class Checks:
    """Correctness checks attempted and failed; failures are kept, never filtered."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Unit:
    label: str
    argv: list[str]
    out: Path
    fmt: str | None = None


@dataclass
class PassResult:
    wall_s: float = 0.0
    rates: dict[str, list[float]] = field(default_factory=lambda: {f: [] for f in FORMAT_NAMES})
    unit_s: dict[str, float] = field(default_factory=dict)


def call_cli(argv: list) -> tuple[int, float]:
    """One CLI invocation, timed; its console lines go to stderr."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return rc, time.perf_counter() - t0


def summary_ok(out: Path) -> bool:
    try:
        return bool(json.loads((out / "summary.json").read_text(encoding="utf-8"))["ok"])
    except (OSError, ValueError, KeyError):
        return False


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def record_learn_rate(unit: Unit, result: PassResult, seconds: float) -> list[dict]:
    """A learn run's evaluations over its wall time; returns its reports."""
    reports = json.loads((unit.out / "reports.json").read_text(encoding="utf-8"))
    evals = sum(r["learning_evaluations"] + r["test_evaluations"] for r in reports)
    result.rates[unit.fmt].append(evals / seconds)
    return reports


def oracle_check(checks: Checks, label: str, instance: AuctionInstance, bids: np.ndarray,
                 fmt: Format, gsp_bid_grid=None) -> None:
    """One profile through ``run_auction``, against the brute-force matching
    (exact formats) and the no-overcharge certificate on the run's own prices."""
    outcome = run_auction(instance, bids, fmt, gsp_bid_grid=gsp_bid_grid)
    if fmt.allocation == "optimal":
        brute = allocate_bruteforce(instance, bids, max_bidders=9)
        checks.record(outcome.assignment == brute, f"{label}: {fmt.value} matching != brute force")
    prices = PriceVector(outcome.per_conversion_price, outcome.expected_payment)
    ok, witness = certify_no_overcharge(instance, bids, fmt.allocation, fmt.pricing,
                                        prices=prices)
    checks.record(ok, f"{label}: {fmt.value} overcharges bidder {witness}")


class Workload:
    name = ""

    def __init__(self, base: Path, seed: int) -> None:
        self.base = base
        self.seed = seed
        self.inputs = base / "inputs"
        self.runs = base / "runs"

    def size(self) -> dict:
        raise NotImplementedError

    def clear(self) -> None:
        """Remove the generated inputs; untimed, before each set-up."""
        shutil.rmtree(self.inputs, ignore_errors=True)

    def setup(self) -> None:
        """Generate every input the units read (repeated to time set-up)."""
        self.inputs.mkdir(parents=True)

    def units(self, warm_up: bool = False) -> list[Unit]:
        raise NotImplementedError

    def run_pass(self, checks: Checks, warm_up: bool = False) -> PassResult:
        result = PassResult()
        for unit in self.units(warm_up):
            rc, seconds = call_cli(unit.argv)
            result.wall_s += seconds
            result.unit_s[unit.label] = seconds
            checks.record(rc == 0 and summary_ok(unit.out), f"{unit.label}: exit {rc} or not ok")
            if not warm_up:
                self.check_unit(unit, checks, result, seconds)
        if not warm_up:
            self.check_pass(checks, result)
        return result

    def check_unit(self, unit: Unit, checks: Checks, result: PassResult, seconds: float) -> None:
        pass

    def check_pass(self, checks: Checks, result: PassResult) -> None:
        pass

    def spot_check(self, checks: Checks) -> None:
        raise NotImplementedError

    def _write_config(self, name: str, doc: dict) -> None:
        (self.inputs / f"{name}.json").write_text(json.dumps(doc, sort_keys=True),
                                                  encoding="utf-8")


# --- learn_dataset ---------------------------------------------------------------

class LearnDataset(Workload):
    """exp2 and exp3 at the desk shape, one CLI run per (mode, format, draw).

    Each run makes one valuation draw and the formats are interleaved, so a
    slow spell on a shared machine touches every format alike and the
    per-format rate is a median over many runs.
    """

    name = "learn_dataset"
    MODES = (("exp2", "normalized.csv"), ("exp3", "normalized_auctions.csv"))
    # Runs (one draw each) per mode and format.  The greedy formats are 5-9x
    # cheaper per evaluation, so they get more runs; opt_gsp's cost per
    # evaluation depends on the draw (the grid scan stops at the critical bid),
    # so it averages over more draws than opt_vcg, whose cost does not.
    DRAWS = {"greedy_gsp": 4, "greedy_vcg": 4, "opt_gsp": 3, "opt_vcg": 2}
    ADVERTISERS, RECORDS = 10, 400
    SHAPE = dict(d=20, M=9, S=4, N_s=1, N_l=100, N_t=200, N_e=0)

    def size(self) -> dict:
        return {**self.SHAPE, "runs_per_mode": self.DRAWS, "advertisers": self.ADVERTISERS,
                "records_per_advertiser": self.RECORDS}

    def _runs(self, warm_up: bool):
        """(label, mode index, format index, draw) of every run in pass order."""
        if warm_up:
            return [(f"warm_{which}_{fmt}", m, k, 0) for m, (which, _) in enumerate(self.MODES)
                    for k, fmt in enumerate(FORMAT_NAMES)]
        return [(f"{which}_{fmt}_{r}", m, k, r) for r in range(max(self.DRAWS.values()))
                for m, (which, _) in enumerate(self.MODES)
                for k, fmt in enumerate(FORMAT_NAMES) if r < self.DRAWS[fmt]]

    def setup(self) -> None:
        super().setup()
        raw = self.inputs / "raw_bids.csv"
        seed = sub_seed(self.seed, 0)
        call_cli(["--seed", seed, "--out", self.inputs, "dataset", "synth",
                  "--advertisers", self.ADVERTISERS, "--records", self.RECORDS])
        for mode, name in (("advertisers", "normalized.csv"), ("auctions", "normalized_auctions.csv")):
            call_cli(["--seed", seed, "--out", self.inputs, "dataset", "normalize",
                      "--mode", mode, "--input", raw, "--name", name])
            path = self.inputs / name
            datasets.load_dataset(path, path.with_suffix(".json"))
        for warm_up in (False, True):
            for label, m, k, r in self._runs(warm_up):
                shape = dict(self.SHAPE, N_l=3, N_t=3) if warm_up else self.SHAPE
                self._write_config(label, {
                    "formats": [FORMAT_NAMES[k]], **shape, "V": None, "OB": False,
                    "value_dependent": True, "delta0": 1.0, "delta": list(EXP23_DELTAS),
                    "eta": "auto", "seed": sub_seed(self.seed, 1, m, k, r),
                    "dataset": str(self.inputs / self.MODES[m][1]),
                    "dataset_mode": (datasets.INDEPENDENT, datasets.CORRELATED)[m]})

    def units(self, warm_up: bool = False) -> list[Unit]:
        return [Unit(label, ["--out", self.runs / label, "--config",
                             self.inputs / f"{label}.json", "learn", self.MODES[m][0]],
                     self.runs / label, FORMAT_NAMES[k])
                for label, m, k, _ in self._runs(warm_up)]

    def check_unit(self, unit, checks, result, seconds) -> None:
        for r in record_learn_rate(unit, result, seconds):
            poa = r["empirical_poa"]
            checks.record(1.0 <= poa < 4.0, f"{unit.label}: empirical PoA {poa} outside [1, 4)")

    def spot_check(self, checks: Checks) -> None:
        """Profiles from the run's own value draws and bid grids."""
        rng = np.random.default_rng(sub_seed(self.seed, 2))
        m, s, d = self.SHAPE["M"], self.SHAPE["S"], self.SHAPE["d"]
        for which, data in self.MODES:
            path = self.inputs / data
            ds = datasets.load_dataset(path, path.with_suffix(".json"))
            for p in range(8):
                values = datasets.sample_valuations(ds, m, rng)
                instance = AuctionInstance(
                    bidders=tuple(Bidder(i, f"t{i}", float(values[i])) for i in range(m)),
                    curves={f"t{i}": geometric_curve(1.0, EXP23_DELTAS[i], s) for i in range(m)},
                    slot_count=s)
                grids = [BidGrid.evenly(d, float(v)).points for v in values]
                bids = np.array([g[rng.integers(d + 1)] for g in grids])
                for fmt in ALL_FORMATS:
                    oracle_check(checks, f"{which} profile {p}", instance, bids, fmt,
                                 grids if fmt is Format.OPT_GSP else None)


# --- learn_population --------------------------------------------------------------

class LearnPopulation(Workload):
    """exp1 at its desk config, one CLI run per format."""

    name = "learn_population"
    CONFIG = dict(d=20, V=10, M=2, S=2, N_s=0, N_l=50_000, N_t=0, N_e=1037, OB=True,
                  value_dependent=True, delta0=1.0, delta=[0.37, 0.85], eta=0.3,
                  dataset=None, dataset_mode=None)
    LINE_TOLERANCE = 0.1      # the C9 acceptance gate
    MIN_INTERIOR_ROWS = 20

    def size(self) -> dict:
        return dict(self.CONFIG)

    def setup(self) -> None:
        super().setup()
        for k, fmt in enumerate(FORMAT_NAMES):
            for warm_up in (False, True):
                doc = dict(self.CONFIG, formats=[fmt], seed=sub_seed(self.seed, 1, k))
                if warm_up:
                    doc.update(N_l=300, N_e=50)
                self._write_config(f"{'warm_' if warm_up else ''}exp1_{fmt}", doc)

    def units(self, warm_up: bool = False) -> list[Unit]:
        prefix = "warm_" if warm_up else ""
        return [Unit(f"{prefix}exp1_{fmt}",
                     ["--out", self.runs / f"{prefix}exp1_{fmt}", "--config",
                      self.inputs / f"{prefix}exp1_{fmt}.json", "learn", "exp1"],
                     self.runs / f"{prefix}exp1_{fmt}", fmt)
                for fmt in FORMAT_NAMES]

    def run_pass(self, checks: Checks, warm_up: bool = False) -> PassResult:
        self._interior = 0
        return super().run_pass(checks, warm_up)

    def check_unit(self, unit, checks, result, seconds) -> None:
        record_learn_rate(unit, result, seconds)
        interior = [r for r in read_csv(unit.out / "exp1_bids.csv") if r["interior"] == "True"]
        self._interior += len(interior)
        worst = max((abs(float(r["mean_bid"]) - float(r["theoretical_bid"])) for r in interior),
                    default=0.0)
        checks.record(worst <= self.LINE_TOLERANCE,
                      f"{unit.label}: interior bid line off by {worst:.4f}")

    def check_pass(self, checks, result) -> None:
        checks.record(self._interior >= self.MIN_INTERIOR_ROWS,
                      f"only {self._interior} interior bid-line rows")

    def spot_check(self, checks: Checks) -> None:
        """Profiles of the 2x2 setting on the learners' own (overbidding) grids."""
        rng = np.random.default_rng(sub_seed(self.seed, 2))
        cfg = self.CONFIG
        setting = TwoByTwoSetting(*cfg["delta"])
        vals = np.arange(cfg["V"] + 1) / cfg["V"]
        for p in range(40):
            va, vb = (float(x) for x in rng.choice(vals, size=2))
            instance = setting.instance(va, vb)
            bids = np.array([BidGrid.evenly(cfg["d"], 2.0 * v).points[rng.integers(cfg["d"] + 1)]
                             for v in (va, vb)])
            for fmt in ALL_FORMATS:
                oracle_check(checks, f"exp1 profile {p}", instance, bids, fmt)


# --- analysis ------------------------------------------------------------------------

class Analysis(Workload):
    """``equilibrium`` over the default grid plus the ``poa`` suite.

    The CLI evaluates all formats inside each command, so the per-format split
    comes from a clock on the two per-format entry points the commands call:
    ``analytic.revenue_oracle_mc`` (one Monte-Carlo estimate) and
    ``fixtures.verify_pure_nash`` (one fixture's deviation scan); 43 calls a
    pass, so the clock costs nothing measurable.
    """

    name = "analysis"
    SAMPLES = 1_000_000
    RESOLUTION = 10_000

    def size(self) -> dict:
        return {"samples": self.SAMPLES, "pairs": len(cli.DEFAULT_GRID),
                "resolution": self.RESOLUTION}

    def units(self, warm_up: bool = False) -> list[Unit]:
        samples, resolution = (1000, 50) if warm_up else (self.SAMPLES, self.RESOLUTION)
        seed = sub_seed(self.seed, 1)
        eq, poa = self.runs / "equilibrium", self.runs / "poa"
        return [Unit("equilibrium", ["--seed", seed, "--out", eq, "equilibrium",
                                     "--samples", samples], eq),
                Unit("poa", ["--seed", seed, "--out", poa, "poa",
                             "--resolution", resolution], poa)]

    def run_pass(self, checks: Checks, warm_up: bool = False) -> PassResult:
        clock = SpanRecorder()
        restore = install(clock, [
            ("mc", "posauctions.analytic", "revenue_oracle_mc", _count_mc),
            ("nash", "posauctions.fixtures", "verify_pure_nash", _count_nash)])
        try:
            result = super().run_pass(checks, warm_up)
        finally:
            restore()
        for fmt in FORMAT_NAMES:
            result.rates[fmt].append(clock.counters[f"{fmt}.evals"] / clock.counters[f"{fmt}.s"])
        return result

    def check_unit(self, unit, checks, result, seconds) -> None:
        if unit.label == "equilibrium":
            for row in read_csv(unit.out / "equilibrium_revenue.csv"):
                checks.record(row["within_4_stderr"] == "True",
                              f"MC revenue {row['format']} at ({row['delta_a']}, "
                              f"{row['delta_b']}) beyond 4 stderr")
            for row in json.loads((unit.out / "revenue_hierarchy.json").read_text("utf-8")):
                checks.record(bool(row["ordered"]),
                              f"revenue order fails at ({row['delta_a']}, {row['delta_b']})")
        else:
            for row in read_csv(unit.out / "poa_suite.csv"):
                checks.record(row["certified"] == "True", f"poa row {row['name']} not certified")

    def spot_check(self, checks: Checks) -> None:
        """The poa suite's own deviation profiles, and equilibrium-line profiles."""
        rng = np.random.default_rng(sub_seed(self.seed, 2))
        for named in (greedy_gsp_gap(0.01), greedy_vcg_gap(0.01), optgsp_family(0.001)):
            grid = deviation_grid(named, self.RESOLUTION)
            for p in range(12):
                bids = np.array(named.bids)
                bids[rng.integers(named.instance.n)] = grid[rng.integers(grid.size)]
                for fmt in ALL_FORMATS:
                    oracle_check(checks, f"{named.name} profile {p}", named.instance, bids, fmt)
        for p in range(20):
            da, db = cli.DEFAULT_GRID[p % len(cli.DEFAULT_GRID)]
            setting = TwoByTwoSetting(da, db)
            va, vb = rng.random(2)
            instance = setting.instance(float(va), float(vb))
            for fmt in ALL_FORMATS:
                strat = equilibrium_strategy(setting, fmt)
                bids = np.array([strat.slope_a * va, strat.slope_b * vb])
                oracle_check(checks, f"2x2 ({da}, {db}) profile {p}", instance, bids, fmt)


def _count_mc(counters, args, kwargs, result, seconds) -> None:
    fmt = args[1].value
    counters[f"{fmt}.evals"] = counters.get(f"{fmt}.evals", 0.0) + args[3]
    counters[f"{fmt}.s"] = counters.get(f"{fmt}.s", 0.0) + seconds


def _count_nash(counters, args, kwargs, result, seconds) -> None:
    named = args[0]
    fmt = named.fmt.value
    grid = deviation_grid(named, kwargs.get("resolution", 10_000))
    # one realized utility plus one counterfactual per grid point, per bidder
    counters[f"{fmt}.evals"] = counters.get(f"{fmt}.evals", 0.0) + named.instance.n * (grid.size + 1)
    counters[f"{fmt}.s"] = counters.get(f"{fmt}.s", 0.0) + seconds


WORKLOADS = {w.name: w for w in (LearnDataset, LearnPopulation, Analysis)}
