"""The four formats behind one interface, and the queries built on them.

``run_auction`` composes an allocator with its pricing rule (both from
:mod:`.pricing`); ``utility_of`` prices one bidder only.  Also here: the
deviation-inequality check behind the welfare-loss bounds, the empirical
welfare ratio, and the random instances the property tests draw.
"""
from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

import numpy as np

from . import pricing as _pricing
from .allocation import optimal_slot_vector, weight_matrix
from .model import (Assignment, AuctionError, AuctionInstance, AuctionOutcome, Bidder,
                    DiscountCurve, TOL, as_bids)


class Format(enum.Enum):
    """The four mechanisms: {greedy, optimal} allocation x {GSP, VCG} pricing."""

    GREEDY_GSP = "greedy_gsp"
    GREEDY_VCG = "greedy_vcg"
    OPT_GSP = "opt_gsp"
    OPT_VCG = "opt_vcg"

    @property
    def allocation(self) -> str:
        return "greedy" if self in (Format.GREEDY_GSP, Format.GREEDY_VCG) else "optimal"

    @property
    def pricing(self) -> str:
        return "gsp" if self in (Format.GREEDY_GSP, Format.OPT_GSP) else "vcg"

    @classmethod
    def parse(cls, name: str) -> "Format":
        key = name.replace("_", "").replace("-", "").lower()
        table = {"greedygsp": cls.GREEDY_GSP, "greedyvcg": cls.GREEDY_VCG,
                 "optgsp": cls.OPT_GSP, "optvcg": cls.OPT_VCG}
        if key not in table:
            raise AuctionError(f"unknown auction format {name!r}")
        return table[key]


ALL_FORMATS = (Format.GREEDY_GSP, Format.GREEDY_VCG, Format.OPT_GSP, Format.OPT_VCG)


def run_auction(instance: AuctionInstance, bids, fmt: Format, *,
                gsp_bid_grid=None) -> AuctionOutcome:
    """Evaluate one bid profile under one mechanism; pure and deterministic.

    ``gsp_bid_grid`` restricts GSP critical bids under the optimal allocator
    to a discrete grid (used when bids themselves live on a learner grid).
    """
    b = as_bids(instance, bids)
    if fmt.pricing == "gsp":
        grid = gsp_bid_grid if fmt.allocation == "optimal" else None
        prices = _pricing.price_gsp(instance, b, fmt.allocation, bid_grid=grid)
    else:
        prices = _pricing.price_vcg(instance, b, fmt.allocation)
    slot_of = prices.slot_of
    delta = instance.delta
    allocated = slot_of > 0
    idx = np.flatnonzero(allocated)
    d = np.zeros(instance.n)
    d[idx] = delta[idx, slot_of[idx] - 1]
    return AuctionOutcome(
        assignment=Assignment.from_slot_vector(slot_of),
        per_conversion_price=prices.per_conversion,
        expected_payment=prices.expected,
        true_welfare=float(d @ instance.values),
        apparent_welfare=float(d @ b),
        revenue=float(sum(prices.expected)),
    )


def outcome_utilities(instance: AuctionInstance, outcome: AuctionOutcome) -> np.ndarray:
    """Per-bidder payoffs ``discount*(value) - expected_payment`` for an outcome."""
    u = np.zeros(instance.n)
    for i, s in outcome.assignment.slot_of.items():
        u[i] = instance.delta[i, s - 1] * instance.values[i] - outcome.expected_payment[i]
    return u


def utility_of(instance: AuctionInstance, bids, bidder_id: int, fmt: Format) -> float:
    """Payoff of one bidder without pricing everyone else (hot-path helper)."""
    b = as_bids(instance, bids)
    instance._check_bidder(bidder_id)
    weights = weight_matrix(instance, b)
    slot_of = _pricing.allocator(fmt.allocation)(weights)
    s = int(slot_of[bidder_id])
    if s < 0:
        return 0.0
    _, (expected,) = _pricing.payment(instance, b, weights, slot_of[None], bidder_id,
                                      fmt.allocation, fmt.pricing)
    return instance.delta[bidder_id, s - 1] * instance.values[bidder_id] - expected


def counterfactual_utility(instance: AuctionInstance, bids, bidder_id: int,
                           alternative_bid: float, fmt: Format) -> float:
    """Payoff of ``bidder_id`` after unilaterally deviating to ``alternative_bid``."""
    if alternative_bid < 0:
        raise AuctionError("alternative bid must be non-negative")
    b = as_bids(instance, bids)
    b[bidder_id] = alternative_bid
    return utility_of(instance, b, bidder_id, fmt)


def optimal_true_welfare(instance: AuctionInstance, values: np.ndarray | None = None) -> float:
    """Best achievable welfare: max-weight matching on the true values (or ``values``)."""
    weights = weight_matrix(instance, instance.values if values is None else values)
    return _pricing.welfare_of(weights, optimal_slot_vector(weights))


def smoothness_parameters(instance: AuctionInstance, fmt: Format) -> tuple[float, float]:
    """The (lambda, mu) pair the deviation inequality is asserted with."""
    if fmt.allocation == "greedy":
        return 0.5, 1.0
    if fmt is Format.OPT_GSP:
        d_max = float(instance.delta[:, 0].max())
        d_min = float(instance.delta[:, -1].min())
        if d_min <= 0.0:
            return 0.5, math.inf
        return 0.5, (instance.n - 1) * d_max / d_min
    raise AuctionError("deviation inequality is asserted for greedy formats and opt+gsp only")


def check_semismoothness(instance: AuctionInstance, bids, fmt: Format, *,
                         values: Sequence[float] | None = None,
                         lam: float | None = None, mu: float | None = None) -> float:
    """Slack of the half-value deviation inequality; negative slack falsifies it.

    Returns ``sum_i u_i(v_i/2, b_-i) - (lam*OPT - mu*W(b))`` where OPT is the
    value-optimal welfare and W the realized true welfare.  Defaults for
    (lam, mu) come from :func:`smoothness_parameters`.
    """
    b = as_bids(instance, bids)
    vals = instance.values if values is None else np.asarray(values, dtype=float)
    if vals.shape != (instance.n,):
        raise AuctionError("value vector length mismatch")
    lam0, mu0 = smoothness_parameters(instance, fmt)
    lam = lam0 if lam is None else lam
    mu = mu0 if mu is None else mu
    if math.isinf(mu):
        return math.inf
    slot_of = _pricing.allocator(fmt.allocation)(weight_matrix(instance, b))
    realized_w = _pricing.welfare_of(weight_matrix(instance, vals), slot_of)
    opt = optimal_true_welfare(instance, vals)
    dev_total = 0.0
    for i in range(instance.n):
        dev_total += counterfactual_utility(instance, b, i, vals[i] / 2.0, fmt)
    return dev_total - (lam * opt - mu * realized_w)


def empirical_poa(instance: AuctionInstance, outcomes: Iterable[AuctionOutcome]) -> float:
    """Value-optimal welfare divided by the mean realized welfare of samples."""
    welfares = [o.true_welfare for o in outcomes]
    if not welfares:
        raise AuctionError("need at least one outcome sample")
    mean_w = float(np.mean(welfares))
    if mean_w <= TOL:
        raise AuctionError("mean realized welfare is zero; ratio undefined")
    return optimal_true_welfare(instance) / mean_w


# --- random instances for property suites -----------------------------------

def random_instance(rng: np.random.Generator, *, max_bidders: int = 6, max_slots: int = 4,
                    n: int | None = None, m: int | None = None,
                    min_discount: float = 0.0, max_types: int | None = None) -> AuctionInstance:
    """Random instance with monotone curves; some bidders share a type."""
    n = int(rng.integers(1, max_bidders + 1)) if n is None else n
    m = int(rng.integers(1, max_slots + 1)) if m is None else m
    k = int(rng.integers(1, (max_types or n) + 1))
    curves = {}
    for t in range(k):
        raw = rng.uniform(min_discount, 1.0, size=m)
        raw.sort()
        curves[f"t{t}"] = DiscountCurve(tuple(raw[::-1]))
    bidders = tuple(Bidder(i, f"t{int(rng.integers(k))}", float(rng.uniform(0.0, 1.0)))
                    for i in range(n))
    return AuctionInstance(bidders, curves, m)


def conservative_profile(rng: np.random.Generator, instance: AuctionInstance) -> np.ndarray:
    """Bids drawn uniformly in [0, v_i]: nobody bids above value."""
    return rng.uniform(0.0, instance.values)
