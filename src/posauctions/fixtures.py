"""Hand-built instances with known bad equilibria, plus a Nash verifier.

Three families anchor the engine to worked examples whose equilibrium and
welfare-ratio arithmetic is known in closed form:

* a two-bidder greedy+GSP instance whose equilibrium loses half the welfare
  as its tuning parameter goes to zero (ratio -> 2);
* a three-bidder greedy+VCG instance with truthful equilibrium bids and
  ratio -> 3/2;
* a two-bidder optimal+GSP family with ratio -> 4/3 as the low type's
  second-slot discount goes to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import allocate_bruteforce
from .engine import Format, optimal_true_welfare, run_auction, sweep_utilities
from .model import AuctionError, AuctionInstance, Bidder, DiscountCurve, as_bids, welfare


@dataclass(frozen=True)
class NamedInstance:
    """An instance plus its claimed equilibrium profile and welfare ratio."""

    name: str
    fmt: Format
    instance: AuctionInstance
    bids: tuple[float, ...]
    equilibrium_welfare: float
    optimal_welfare: float
    poa_upper_bound: float

    @property
    def welfare_ratio(self) -> float:
        """Optimal over equilibrium welfare (>= 1 for a genuinely bad equilibrium)."""
        return self.optimal_welfare / self.equilibrium_welfare


def greedy_gsp_gap(epsilon: float = 0.1) -> NamedInstance:
    """Two slots, type A worthless below slot 1, type B indifferent.

    In the equilibrium A bids 0 and B bids its value; B takes slot 1 free
    while the efficient order would seat A first.  Ratio ``2 - epsilon``.
    """
    if not 0 < epsilon < 1:
        raise AuctionError("epsilon must lie in (0, 1)")
    v_b = 1.0
    v_a = (1.0 - epsilon) * v_b
    instance = AuctionInstance(
        bidders=(Bidder(0, "a", v_a), Bidder(1, "b", v_b)),
        curves={"a": DiscountCurve((1.0, 0.0)), "b": DiscountCurve((1.0, 1.0))},
        slot_count=2,
    )
    return NamedInstance(
        name="greedy_gsp_gap",
        fmt=Format.GREEDY_GSP,
        instance=instance,
        bids=(0.0, v_b),
        equilibrium_welfare=v_b,
        optimal_welfare=v_a + v_b,
        poa_upper_bound=4.0,
    )


def greedy_vcg_gap(epsilon: float = 0.1) -> NamedInstance:
    """Three bidders, truthful bids, greedy order (A, B, C) vs optimum (C, B, A).

    Equilibrium welfare ``2 + eps + eps^2 - eps^3`` against the optimum
    ``3 - 2 eps - 2 eps^2``; the ratio approaches 3/2 from below.
    """
    if not 0 < epsilon < 0.5:
        raise AuctionError("epsilon must lie in (0, 0.5)")
    e = epsilon
    instance = AuctionInstance(
        bidders=(Bidder(0, "a", 1.0 + e), Bidder(1, "b", 1.0), Bidder(2, "c", 1.0 - e)),
        curves={
            "a": DiscountCurve((1.0, 1.0, 1.0 - 2.0 * e)),
            "b": DiscountCurve((1.0, 1.0, 0.0)),
            "c": DiscountCurve((1.0, e, e * e)),
        },
        slot_count=3,
    )
    return NamedInstance(
        name="greedy_vcg_gap",
        fmt=Format.GREEDY_VCG,
        instance=instance,
        bids=(1.0 + e, 1.0, 1.0 - e),
        equilibrium_welfare=2.0 + e + e * e - e**3,
        optimal_welfare=3.0 - 2.0 * e - 2.0 * e * e,
        poa_upper_bound=4.0,
    )


def optgsp_family(delta_a: float, epsilon: float | None = None) -> NamedInstance:
    """Optimal+GSP family: B has unit value and second-slot discount 1/2.

    A's value ``1 / (4 (1 - delta_a)^2)`` makes the value ratio equal the
    squared premium ratio, the boundary of the equilibrium conditions.  The
    instance-parameter chain ``r^2 <= v_a <= r <= v_a/r <= 1`` (with
    ``r`` the premium ratio) is asserted before use.  The default tie
    epsilon keeps A conservative: half the slack ``v_a - r (1 - delta_b)``,
    which vanishes exactly at ``delta_a = 0`` where the deterministic
    tie-break still lets A win with the bids equal.
    """
    if not 0.0 <= delta_a < 0.5:
        raise AuctionError("delta_a must lie in [0, 0.5)")
    delta_b = 0.5
    v_b = 1.0
    v_a = 1.0 / (4.0 * (1.0 - delta_a) ** 2)
    ratio = (1.0 - delta_b) / (1.0 - delta_a)
    chain = (ratio**2 * v_b, v_a, ratio * v_b, v_a / ratio, v_b)
    for lo, hi in zip(chain, chain[1:]):
        if lo > hi + 1e-12:
            raise AuctionError("equilibrium parameter chain violated")
    slack = v_a - ratio * (1.0 - delta_b) * v_b
    if epsilon is None:
        epsilon = 0.5 * max(slack, 0.0)
    if epsilon > slack + 1e-12:
        raise AuctionError("tie epsilon would push A above its value")
    b_b = ratio * (1.0 - delta_b) * v_b
    instance = AuctionInstance(
        bidders=(Bidder(0, "a", v_a), Bidder(1, "b", v_b)),
        curves={"a": DiscountCurve((1.0, delta_a)), "b": DiscountCurve((1.0, delta_b))},
        slot_count=2,
    )
    n = instance.n
    d_max, d_min = 1.0, min(delta_a, delta_b)
    bound = 2.0 + 2.0 * (n - 1) * d_max / d_min if d_min > 0 else math.inf
    return NamedInstance(
        name="optgsp_family",
        fmt=Format.OPT_GSP,
        instance=instance,
        bids=(b_b + epsilon, b_b),
        equilibrium_welfare=v_a + delta_b * v_b,
        optimal_welfare=v_b + delta_a * v_a,
        poa_upper_bound=bound,
    )


def deviation_grid(named: NamedInstance, resolution: int) -> np.ndarray:
    """Candidate deviations: an even grid to twice the top value, plus every
    other player's bid nudged by one ulp either way to probe tie boundaries."""
    top = 2.0 * max(b.value for b in named.instance.bidders)
    base = np.linspace(0.0, top, resolution)
    probes = []
    for b in named.bids:
        probes.extend((b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)))
    return np.unique(np.concatenate([base, np.asarray(probes)]))


def verify_pure_nash(named: NamedInstance, *, resolution: int = 10_000) -> float:
    """Largest utility gain any bidder can grab on the deviation grid.

    Each bidder's whole grid, plus its own bid for the realized payoff, is
    scored by one :func:`~posauctions.engine.sweep_utilities` call with
    continuous prices: one slot schedule and one payment call per bidder,
    each entry equal to ``counterfactual_utility`` at that bid.
    """
    grid = deviation_grid(named, resolution)
    bids = as_bids(named.instance, named.bids)
    worst = -math.inf
    for i in range(named.instance.n):
        u = sweep_utilities(named.instance, bids, i, named.fmt, np.append(grid, bids[i]))
        worst = max(worst, float((u[:-1] - u[-1]).max()))
    return float(worst)


@dataclass(frozen=True)
class PoaRow:
    fmt: str
    name: str
    epsilon: float
    equilibrium_welfare: float
    optimal_welfare: float
    ratio: float
    upper_bound: float
    nash_gain: float
    certified: bool


def poa_suite(epsilon: float = 0.01, optgsp_delta_a: float = 0.001, *,
              resolution: int = 10_000, tolerance: float = 1e-6) -> list[PoaRow]:
    """Instantiate every lower-bound family, certify it, and report ratios.

    Each row cross-checks the stored welfare numbers against the engine (the
    equilibrium welfare from running the mechanism, the optimum from the
    brute-force matching) and verifies ratio <= upper bound.
    """
    rows = []
    for named, eps in ((greedy_gsp_gap(epsilon), epsilon),
                       (greedy_vcg_gap(epsilon), epsilon),
                       (optgsp_family(optgsp_delta_a), optgsp_delta_a)):
        outcome = run_auction(named.instance, named.bids, named.fmt)
        opt = optimal_true_welfare(named.instance)
        brute = welfare(named.instance, allocate_bruteforce(named.instance, named.instance.values),
                        named.instance.values)
        if abs(outcome.true_welfare - named.equilibrium_welfare) > 1e-9 \
                or abs(opt - named.optimal_welfare) > 1e-9 or abs(brute - opt) > 1e-9:
            raise AuctionError(f"fixture {named.name} disagrees with the engine")
        gain = verify_pure_nash(named, resolution=resolution)
        ratio = named.welfare_ratio
        rows.append(PoaRow(
            fmt=named.fmt.value, name=named.name, epsilon=eps,
            equilibrium_welfare=outcome.true_welfare, optimal_welfare=opt,
            ratio=ratio, upper_bound=named.poa_upper_bound, nash_gain=gain,
            certified=bool(gain <= tolerance and ratio <= named.poa_upper_bound),
        ))
    return rows
