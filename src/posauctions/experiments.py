"""Learning-dynamics experiment protocols and their reports.

Three protocols share one engine loop: every round each learner's full grid
of bids is evaluated against everyone else's realized bids.  That sweep is the
only place a round's payoffs are computed; it scores all ``d + 1`` arms, the
realized one included.  The evaluation counter keeps the logical count of one
realized auction plus ``d`` counterfactuals per bidder, ``d*M + 1`` per round.

* Experiment 1 plays two populations of fixed-valuation representatives of
  the analytic two-bidder setting and compares mean learned bids against the
  closed-form equilibrium lines.
* Experiments 2 and 3 draw bidder valuations from a normalized bid dataset
  (independently per advertiser, or whole auctions at a time), learn, then
  sample outcomes from the time-averaged joint play.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import pricing as _pricing
from .analytic import TwoByTwoSetting, equilibrium_strategy, simulate_profiles
from .datasets import BidDataset, sample_valuations
from .engine import Format, optimal_true_welfare, run_auction
from .learning import (AverageEmpiricalDistribution, BidGrid, ExpWeights,
                       optimal_learning_rate, write_trace_csv)
from .model import AuctionError, AuctionInstance, Bidder, geometric_curve

SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    """Run parameters; JSON keys track the experiment-table variable names."""

    formats: tuple[Format, ...]
    d: int = 20
    V: int | None = None
    M: int = 2
    S: int = 2
    N_s: int = 0
    N_l: int = 0
    N_t: int = 0
    N_e: int = 0
    OB: bool = False
    value_dependent: bool = True
    delta0: float = 1.0
    delta: tuple[float, ...] = ()
    eta: float | str = "auto"
    seed: int = 0
    dataset: str | None = None
    dataset_mode: str | None = None

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["formats"] = [f.value for f in self.formats]
        doc["delta"] = list(self.delta)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise AuctionError(f"config must be a JSON object, got {type(doc).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise AuctionError(f"unknown config keys: {sorted(extra)}")
        for key in ("d", "V", "M", "S", "N_s", "N_l", "N_t", "N_e", "seed"):
            value = doc.get(key, 0)
            if type(value) is not int and not (key == "V" and value is None):
                raise AuctionError(f"config key {key!r} must be an integer, got {value!r}")
        kwargs = dict(doc)
        kwargs["formats"] = tuple(Format.parse(f) for f in doc.get("formats", []))
        kwargs["delta"] = tuple(float(x) for x in doc.get("delta", ()))
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise AuctionError(f"unreadable config {path}: {exc}") from None
        return cls.from_dict(doc)

    def validate_bayesian(self) -> None:
        if self.dataset is not None:
            raise AuctionError("the population experiment is synthetic; remove the dataset")
        if self.V is None or self.V < 1:
            raise AuctionError("need a value discretization V >= 1")
        if self.M != 2 or self.S != 2 or len(self.delta) != 2:
            raise AuctionError("population experiment is the 2-bidder 2-slot setting")
        if self.delta0 != 1.0:
            raise AuctionError("first-slot discount must be 1 to compare with the closed forms")
        if not self.delta[0] <= self.delta[1]:
            raise AuctionError("order the discount factors: delta[0] <= delta[1]")
        self._common()

    def validate_dataset_run(self) -> None:
        if self.dataset is None or self.dataset_mode is None:
            raise AuctionError("dataset experiments need a dataset path and mode")
        if len(self.delta) != self.M:
            raise AuctionError("need one geometric discount factor per bidder")
        if self.N_s < 1 or self.N_t < 1:
            raise AuctionError("need N_s >= 1 valuation draws and N_t >= 1 test samples")
        self._common()

    def _common(self) -> None:
        if self.d < 1 or self.N_l < 1 or self.N_e < 0 or self.M < 1 or self.S < 1:
            raise AuctionError("counts must be positive (N_e may be zero)")
        if not all(0.0 < f <= 1.0 for f in self.delta):
            raise AuctionError("geometric factors must lie in (0, 1]")
        if isinstance(self.eta, str) and self.eta != "auto":
            raise AuctionError("eta must be a float or 'auto'")


@dataclass
class ExperimentReport:
    """Per-format aggregates over one experiment run."""

    format: str
    mean_revenue: float
    mean_welfare: float
    mean_optimal_welfare: float
    empirical_poa: float
    avg_regret: tuple[float, ...]
    n_value_draws: int
    n_test_samples: int
    learning_evaluations: int
    test_evaluations: int
    history_sampled: bool
    seed: int
    config: dict
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["avg_regret"] = list(self.avg_regret)
        return doc


@dataclass
class BidTableRow:
    format: str
    population: str
    valuation: float
    mean_bid: float
    theoretical_bid: float
    interior: bool
    samples: int


@dataclass
class Experiment1Result:
    reports: list[ExperimentReport]
    bid_table: list[BidTableRow]


def _bid_cap(value: float, overbidding: bool, value_dependent: bool) -> float:
    cap = value if value_dependent else 1.0
    return 2.0 * cap if overbidding else cap


def _normalize_utilities(u: np.ndarray, value: float, overbidding: bool) -> np.ndarray:
    """Map payoffs into [0, 1] by the bidder's best-case payoff.

    With overbidding allowed payoffs can be negative (never below -value by
    the no-overcharge guarantees), so the map is affine; the shift cancels in
    the weight normalization and only the scale matters to the learner.
    """
    if value <= 0.0:
        return np.zeros_like(u)
    return (u / value + 1.0) / 2.0 if overbidding else u / value


def flat_payoff_threshold(setting: TwoByTwoSetting, fmt: Format, population: str) -> float:
    """Bid level where payoff flattens against the equilibrium opponent.

    Above the opponent's maximum relevant bid the win probability saturates
    and every higher bid earns the same payoff; theoretical-line comparisons
    only make sense strictly below this cap.
    """
    strat = equilibrium_strategy(setting, fmt)
    ratio = setting.premium_ratio
    if population == "a":
        theta = 1.0 if fmt.allocation == "greedy" else ratio
        return theta * strat.slope_b
    theta = 1.0 if fmt.allocation == "greedy" else (1.0 / ratio if ratio > 0 else math.inf)
    return theta * strat.slope_a


def run_experiment1(config: ExperimentConfig, *, trace_dir=None) -> Experiment1Result:
    """Population-interpretation learning of the two-bidder Bayesian game.

    Each population holds one representative per discretized valuation; a
    round draws one representative per population, explores uniformly for the
    first ``N_e`` rounds, and always updates on full counterfactual feedback.
    Mean bids are taken over the representatives' post-exploration play.
    """
    config.validate_bayesian()
    setting = TwoByTwoSetting(config.delta0 * config.delta[0], config.delta0 * config.delta[1])
    vals = np.arange(config.V + 1) / config.V
    reports: list[ExperimentReport] = []
    table: list[BidTableRow] = []
    format_seeds = np.random.SeedSequence(config.seed).spawn(len(config.formats))
    for fmt, fmt_seed in zip(config.formats, format_seeds):
        report, rows = _run_exp1_format(config, setting, vals, fmt, fmt_seed,
                                        trace_dir=trace_dir)
        reports.append(report)
        table.extend(rows)
    return Experiment1Result(reports, table)


def _run_exp1_format(config, setting, vals, fmt, fmt_seed, *,
                     trace_dir=None) -> tuple[ExperimentReport, list[BidTableRow]]:
    rng = np.random.default_rng(fmt_seed)
    pops = 2
    reps = len(vals)
    if config.eta == "auto":
        eta = optimal_learning_rate(config.d + 1, max(1, config.N_l // reps))
    else:
        eta = float(config.eta)
    learners = [[ExpWeights(BidGrid.evenly(config.d,
                                           _bid_cap(v, config.OB, config.value_dependent)),
                            eta, track_history=trace_dir is not None)
                 for v in vals] for _ in range(pops)]
    bid_sum = np.zeros((pops, reps))
    bid_cnt = np.zeros((pops, reps), dtype=np.int64)
    rev_sum = wel_sum = opt_sum = 0.0
    observed = 0
    evaluations = 0
    for t in range(config.N_l):
        ja = int(rng.integers(reps))
        jb = int(rng.integers(reps))
        la, lb = learners[0][ja], learners[1][jb]
        if t < config.N_e:
            arm_a = int(rng.integers(la.arm_count))
            arm_b = int(rng.integers(lb.arm_count))
        else:
            arm_a = la.sample_arm(rng)
            arm_b = lb.sample_arm(rng)
        va, vb = float(vals[ja]), float(vals[jb])
        bid_a = float(la.grid.points[arm_a])
        bid_b = float(lb.grid.points[arm_b])
        out_a = simulate_profiles(setting, fmt, la.grid.points, bid_b, va, vb)
        out_b = simulate_profiles(setting, fmt, bid_a, lb.grid.points, va, vb)
        # logical count: the realized profile once, plus d counterfactuals each
        evaluations += la.arm_count + lb.arm_count - 1
        la.step(_normalize_utilities(out_a.utility_a, va, config.OB))
        lb.step(_normalize_utilities(out_b.utility_b, vb, config.OB))
        if t >= config.N_e:
            bid_sum[0, ja] += bid_a
            bid_cnt[0, ja] += 1
            bid_sum[1, jb] += bid_b
            bid_cnt[1, jb] += 1
            rev_sum += float(out_a.revenue[arm_a])
            wel_sum += float(out_a.welfare[arm_a])
            opt_sum += max(va + setting.delta_b * vb, vb + setting.delta_a * va)
            observed += 1
    if trace_dir is not None:
        flat = [l for pop in learners for l in pop]
        labels = [f"{p}/v={v:g}" for p, pop in zip("ab", learners) for v, _ in zip(vals, pop)]
        write_trace_csv(Path(trace_dir) / f"trace_{fmt.value}.csv", flat, labels)
    strat = equilibrium_strategy(setting, fmt)
    rows = []
    for p, pop in enumerate("ab"):
        slope = strat.slope_a if pop == "a" else strat.slope_b
        cap = flat_payoff_threshold(setting, fmt, pop)
        for j, v in enumerate(vals):
            line = slope * float(v)
            rows.append(BidTableRow(
                format=fmt.value, population=pop, valuation=float(v),
                mean_bid=float(bid_sum[p, j] / bid_cnt[p, j]) if bid_cnt[p, j] else math.nan,
                theoretical_bid=line, interior=bool(line < cap - 1e-12),
                samples=int(bid_cnt[p, j]),
            ))
    regrets = tuple(
        float(np.mean([l.average_regret() for l in learners[p] if l.rounds > 0]))
        for p in range(2))
    report = ExperimentReport(
        format=fmt.value,
        mean_revenue=rev_sum / observed,
        mean_welfare=wel_sum / observed,
        mean_optimal_welfare=opt_sum / observed,
        empirical_poa=opt_sum / wel_sum,
        avg_regret=regrets,
        n_value_draws=observed,
        n_test_samples=0,
        learning_evaluations=evaluations,
        test_evaluations=0,
        history_sampled=False,
        seed=config.seed,
        config=config.to_dict(),
    )
    return report, rows


# --- dataset experiments -----------------------------------------------------

def _arm_utilities(instance: AuctionInstance, bids: np.ndarray, i: int, fmt: Format,
                   arms: np.ndarray) -> np.ndarray:
    """Bidder i's payoff at every bid on its grid, others' bids fixed.

    Every arm is scored, the realized one included, so this sweep is the only
    place a learning round's payoffs come from.  One slot schedule gives i's
    allocation at every arm (:func:`~posauctions.pricing.greedy_slot_schedule`
    or :func:`~posauctions.pricing.optimal_slot_schedule`, m+1 allocations
    either way), and its i-absent allocation gives VCG the others' welfare
    without i; one :func:`~posauctions.pricing.payment` call prices all the
    rows.  Under optimal+GSP the price is the grid one: the lowest arm that
    wins the same slot, read off the schedule.
    """
    delta = instance.delta
    weights = delta * bids[:, None]
    schedule_of = (_pricing.greedy_slot_schedule if fmt.allocation == "greedy"
                   else _pricing.optimal_slot_schedule)
    schedule, without = schedule_of(delta, bids, i, arms)
    _, pay = _pricing.payment(instance, bids, weights, schedule, i, fmt.allocation,
                              fmt.pricing, arms=arms,
                              others_without=_pricing.welfare_of(weights, without), grid=arms)
    held = schedule[:, i]
    won = held > 0
    u = np.zeros(arms.size)
    u[won] = delta[i, held[won] - 1] * float(instance.values[i]) - pay[won]
    return u


def run_experiment23(config: ExperimentConfig, dataset: BidDataset, *,
                     trace_dir=None) -> list[ExperimentReport]:
    """Dataset-driven learning runs (fixed valuations per draw).

    For each of ``N_s`` valuation draws: fresh learners on value-capped
    grids, ``N_l`` full-feedback rounds, then ``N_t`` samples from the
    uniform-round mixture of the played distributions.  Aggregates use the
    ratio of mean optimal welfare to mean realized welfare.
    """
    config.validate_dataset_run()
    if dataset.mode != config.dataset_mode:
        raise AuctionError(f"dataset mode {dataset.mode!r} != config {config.dataset_mode!r}")
    reports = []
    format_seeds = np.random.SeedSequence(config.seed).spawn(len(config.formats))
    for fmt, fmt_seed in zip(config.formats, format_seeds):
        reports.append(_run_exp23_format(config, dataset, fmt, fmt_seed, trace_dir=trace_dir))
    return reports


def _run_exp23_format(config, dataset, fmt, fmt_seed, *, trace_dir=None) -> ExperimentReport:
    draw_seeds = fmt_seed.spawn(config.N_s)
    revenues: list[float] = []
    welfares: list[float] = []
    optima: list[float] = []
    regrets = np.zeros(config.M)
    learn_evals = 0
    test_evals = 0
    history_sampled = False
    eta = (optimal_learning_rate(config.d + 1, config.N_l)
           if config.eta == "auto" else float(config.eta))
    for draw_seed in draw_seeds:
        rng = np.random.default_rng(draw_seed)
        values = sample_valuations(dataset, config.M, rng)
        instance = AuctionInstance(
            bidders=tuple(Bidder(i, f"t{i}", float(values[i])) for i in range(config.M)),
            curves={f"t{i}": geometric_curve(config.delta0, config.delta[i], config.S)
                    for i in range(config.M)},
            slot_count=config.S,
        )
        grids = [BidGrid.evenly(config.d, _bid_cap(float(values[i]), config.OB,
                                                   config.value_dependent))
                 for i in range(config.M)]
        learners = [ExpWeights(grids[i], eta) for i in range(config.M)]
        gsp_grids = [g.points for g in grids] if fmt is Format.OPT_GSP else None
        for t in range(config.N_l):
            if t < config.N_e:
                arms = [int(rng.integers(l.arm_count)) for l in learners]
            else:
                arms = [l.sample_arm(rng) for l in learners]
            bids = np.array([grids[i].points[arms[i]] for i in range(config.M)])
            learn_evals += 1
            for i in range(config.M):
                u = _arm_utilities(instance, bids, i, fmt, grids[i].points)
                learn_evals += grids[i].points.size - 1
                learners[i].step(_normalize_utilities(u, float(values[i]), config.OB))
        if trace_dir is not None and not revenues:
            write_trace_csv(Path(trace_dir) / f"trace_{fmt.value}.csv", learners,
                            [f"bidder{i}" for i in range(config.M)])
        mixture = AverageEmpiricalDistribution(learners)
        for _ in range(config.N_t):
            _, bids = mixture.sample(rng)
            outcome = run_auction(instance, bids, fmt, gsp_bid_grid=gsp_grids)
            test_evals += 1
            revenues.append(outcome.revenue)
            welfares.append(outcome.true_welfare)
        optima.append(optimal_true_welfare(instance))
        regrets += np.array([l.average_regret() for l in learners])
        history_sampled = history_sampled or any(l.history_sampled for l in learners)
    mean_welfare = float(np.mean(welfares))
    mean_opt = float(np.mean(optima))
    return ExperimentReport(
        format=fmt.value,
        mean_revenue=float(np.mean(revenues)),
        mean_welfare=mean_welfare,
        mean_optimal_welfare=mean_opt,
        empirical_poa=mean_opt / mean_welfare,
        avg_regret=tuple(regrets / config.N_s),
        n_value_draws=config.N_s,
        n_test_samples=config.N_t,
        learning_evaluations=learn_evals,
        test_evaluations=test_evals,
        history_sampled=history_sampled,
        seed=config.seed,
        config=config.to_dict(),
    )


def summarize(reports: Sequence[ExperimentReport]) -> dict:
    """Per-format mean/median rows over a batch of reports, plus the revenue
    ordering flag between the greedy+GSP and optimal+GSP formats."""
    if not reports:
        raise AuctionError("need at least one report")
    by_fmt: dict[str, list[ExperimentReport]] = {}
    for r in reports:
        by_fmt.setdefault(r.format, []).append(r)
    rows = []
    for fmt in sorted(by_fmt):
        group = by_fmt[fmt]
        def agg(metric):
            xs = [getattr(r, metric) for r in group]
            return float(np.mean(xs)), float(np.median(xs))
        row = {"format": fmt, "runs": len(group)}
        for metric in ("mean_revenue", "mean_welfare", "mean_optimal_welfare", "empirical_poa"):
            mean, median = agg(metric)
            row[f"{metric}_mean"] = mean
            row[f"{metric}_median"] = median
        rows.append(row)
    means = {r["format"]: r["mean_revenue_mean"] for r in rows}
    hierarchy = None
    if "greedy_gsp" in means and "opt_gsp" in means:
        hierarchy = bool(means["greedy_gsp"] >= means["opt_gsp"])
    return {"schema_version": SCHEMA_VERSION, "rows": rows,
            "greedy_gsp_revenue_at_least_opt_gsp": hierarchy}
