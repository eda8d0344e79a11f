"""Exponential-weights bidders with full counterfactual feedback.

Each learner keeps a probability vector over a discrete bid grid, multiplies
weights by ``exp(eta * utility)`` arm-by-arm every round, and renormalizes.
Utilities fed in are expected to lie in [0, 1]; normalization is the
caller's job.  Regret is accounted on expected play (weight-averaged
realized utility), which avoids the extra concentration rounds a
realized-draw account would need.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import AuctionError


def optimal_learning_rate(arm_count: int, horizon: int) -> float:
    """Known-horizon learning rate ``sqrt(ln K / T)``."""
    if arm_count < 2:
        raise AuctionError("need at least two arms")
    if horizon < 1:
        raise AuctionError("horizon must be positive")
    return math.sqrt(math.log(arm_count) / horizon)


def horizon_for_regret(arm_count: int, epsilon: float) -> int:
    """Rounds needed for worst-case average regret epsilon: ``4 ln K / eps^2``."""
    if arm_count < 2 or epsilon <= 0:
        raise AuctionError("need arm_count >= 2 and epsilon > 0")
    return math.ceil(4.0 * math.log(arm_count) / epsilon**2)


@dataclass(frozen=True)
class BidGrid:
    """Evenly spaced bid levels from 0 to a cap, ``d + 1`` points.

    A zero cap (a zero-value bidder with a value-scaled grid) degenerates to
    all-zero points; every other grid is strictly increasing from 0.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1 or pts[0] != 0.0:
            raise AuctionError("grid must be a 1-d array starting at 0")
        if pts[-1] > 0.0 and np.any(np.diff(pts) <= 0):
            raise AuctionError("grid points must be strictly increasing")

    @classmethod
    def evenly(cls, d: int, cap: float) -> "BidGrid":
        if d < 1 or cap < 0:
            raise AuctionError("need d >= 1 and cap >= 0")
        return cls(np.linspace(0.0, cap, d + 1) if cap > 0 else np.zeros(d + 1))

    def __len__(self) -> int:
        return int(self.points.size)


class ExpWeights:
    """One learner: weights over a bid grid plus regret bookkeeping.

    ``history`` snapshots the distribution each round was *played with*
    (pre-update), which is exactly what time-averaged sampling needs.  Above
    ``history_cap`` rounds the snapshots switch to reservoir sampling and
    ``history_sampled`` flips on.
    """

    def __init__(self, grid: BidGrid, eta: float, *, track_history: bool = True,
                 history_cap: int = 1_000_000, history_seed: int = 0):
        if eta < 0 or not math.isfinite(eta):
            raise AuctionError("eta must be finite and non-negative")
        self.grid = grid
        self.eta = float(eta)
        k = len(grid)
        self.weights = np.full(k, 1.0 / k)
        self.rounds = 0
        self.cumulative_utility = np.zeros(k)  # per-arm counterfactual sums
        self.cumulative_expected = 0.0         # sum of <weights, utilities>
        self.track_history = track_history
        self.history_cap = history_cap
        self.history_sampled = False
        self._history: list[np.ndarray] = []
        self._history_rng = np.random.default_rng(history_seed)

    @property
    def arm_count(self) -> int:
        return len(self.grid)

    def step(self, utilities: Sequence[float] | np.ndarray) -> "ExpWeights":
        u = np.asarray(utilities, dtype=float)
        if u.shape != self.weights.shape:
            raise AuctionError(f"expected {self.weights.size} utilities, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise AuctionError("utilities must be finite")
        self._snapshot()
        self.cumulative_utility += u
        self.cumulative_expected += float(self.weights @ u)
        if self.eta > 0.0:
            w = self.weights * np.exp(self.eta * u)
            self.weights = w / w.sum()
        self.rounds += 1
        return self

    def _snapshot(self) -> None:
        if not self.track_history:
            return
        if len(self._history) < self.history_cap:
            self._history.append(self.weights.copy())
            return
        # Reservoir sampling keeps a uniform subsample of played rounds.
        self.history_sampled = True
        j = int(self._history_rng.integers(self.rounds + 1))
        if j < self.history_cap:
            self._history[j] = self.weights.copy()

    def weights_at(self, t: int) -> np.ndarray:
        if not self.track_history:
            raise AuctionError("history tracking disabled for this learner")
        return self._history[t]

    def history_length(self) -> int:
        return len(self._history)

    def sample_arm(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.arm_count, p=self.weights))

    def average_regret(self) -> float:
        """External regret per round against the best fixed arm, expected play."""
        if self.rounds == 0:
            raise AuctionError("no rounds played")
        best = float(self.cumulative_utility.max())
        return (best - self.cumulative_expected) / self.rounds


def certify_cce(states: Iterable[ExpWeights], epsilon: float) -> bool:
    """Every player's average regret at most epsilon.

    Along no-regret play this is exactly the certificate that the uniform
    mixture of per-round joint distributions is an epsilon-approximate
    coarse correlated equilibrium.
    """
    return all(s.average_regret() <= epsilon for s in states)


def write_trace_csv(path, learners: Sequence[ExpWeights], player_labels: Sequence[str]) -> None:
    """Dump per-round weight histories as CSV rows (round, player, arm, weight).

    Requires history tracking; meant for small diagnostic runs, so callers
    gate it behind a verbosity flag.
    """
    import csv

    if len(learners) != len(player_labels):
        raise AuctionError("one label per learner")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "player", "arm", "weight"])
        for label, learner in zip(player_labels, learners):
            for t in range(learner.history_length()):
                for arm, w in enumerate(learner.weights_at(t)):
                    writer.writerow([t, label, arm, repr(float(w))])


class AverageEmpiricalDistribution:
    """Uniform-round mixture of the learners' per-round distributions.

    Sampling picks one round index uniformly, then draws each player's bid
    from the distribution it played that round.  With a fixed generator the
    draw sequence is reproducible bit for bit.
    """

    def __init__(self, learners: Sequence[ExpWeights]):
        lengths = {s.history_length() for s in learners}
        if len(lengths) != 1 or 0 in lengths:
            raise AuctionError("learners must share a positive history length")
        self.learners = list(learners)
        self._length = lengths.pop()

    def sample(self, rng: np.random.Generator) -> tuple[int, np.ndarray]:
        t = int(rng.integers(self._length))
        bids = np.empty(len(self.learners))
        for k, s in enumerate(self.learners):
            arm = int(rng.choice(s.arm_count, p=s.weights_at(t)))
            bids[k] = s.grid.points[arm]
        return t, bids
