"""The mechanism rules: allocator lookup, welfare, and every format's payment.

GSP charges the minimum bid under which a bidder retains the slot it was
assigned (closed threshold: the critical bid itself retains).  VCG charges
the externality, re-running the allocation with the bidder removed and
measuring everyone else's change in discounted bids.  :func:`payment` is the
one implementation of both rules under both allocators; the pricers, the
engine's single-bidder payoff and the learners' arm sweep all call it.
:func:`optimal_slot_schedule` gives one bidder's exact allocation at every
bid of a grid from m+1 allocations of the others.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .allocation import greedy_slot_vector, optimal_slot_vector, weight_matrix
from .model import AuctionError, AuctionInstance, TOL, as_bids

AllocationName = Literal["greedy", "optimal"]

#: Bracket width for the bisection that finds critical bids under the
#: optimal allocator (well inside the 1e-9 contract).
BISECT_WIDTH = 1e-10

_SLOT_FN: dict[str, Callable] = {"greedy": greedy_slot_vector, "optimal": optimal_slot_vector}


def allocator(allocation: str) -> Callable:
    """The slot-vector function of an allocation algorithm, by name."""
    try:
        return _SLOT_FN[allocation]
    except KeyError:
        raise AuctionError(f"unknown allocation algorithm {allocation!r}") from None


def welfare_of(weights: np.ndarray, slot_of: np.ndarray) -> float:
    """Winners' total weight, summed over winners only, in bidder-id order."""
    idx = np.flatnonzero(slot_of > 0)
    return float(weights[idx, slot_of[idx] - 1].sum())


def welfare_without(weights: np.ndarray, i: int, allocation: str) -> float:
    """Welfare of the allocation that the others get when bidder i is absent."""
    active = np.ones(weights.shape[0], dtype=bool)
    active[i] = False
    return welfare_of(weights, allocator(allocation)(weights, active))


def optimal_slot_schedule(delta: np.ndarray, bids: np.ndarray, i: int,
                          arms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-allocation slot vectors with bidder i bidding each of ``arms``.

    Returns ``(schedule, without)``: row a of ``schedule`` is the slot
    vector of the profile with ``bids[i]`` replaced by ``arms[a]``, and
    ``without`` is the others' allocation with i absent; ``bids[i]`` itself
    is ignored.  The others enter i's choice only through m+1 numbers: their
    best welfare H_t on the slots left when i holds slot t, and H without i.
    So i's slot at x is the best of the lines ``delta[i, t]*x + H_t`` (plus
    the flat line H when n > m, the only case in which i can lose), and the
    others take their allocation for that option.  An arm whose two best
    lines lie within 1e-9 relative is allocated in full instead, so the
    enumeration's tie rule decides every near-tie of i's slot.  i's slot
    always equals ``optimal_slot_vector``'s; the others' slots do too unless
    decimal ties among them round differently with i's weight added, when
    they are another of their optima.
    """
    n, m = delta.shape
    weights = delta * bids[:, None]
    others = np.ones(n, dtype=bool)
    others[i] = False
    without = optimal_slot_vector(weights, others)
    vectors = np.empty((m + 1, n), dtype=np.intp)
    heights = np.empty(m + 1)
    for t in range(m):
        cols = np.delete(np.arange(m), t)
        sub = optimal_slot_vector(weights[:, cols], others)
        won = sub > 0
        vectors[t] = -1
        vectors[t, won] = cols[sub[won] - 1] + 1
        vectors[t, i] = t + 1
        heights[t] = welfare_of(weights[:, cols], sub)
    vectors[m] = without
    heights[m] = welfare_of(weights, without)
    options = m + 1 if n > m else m
    lines = np.empty((arms.size, options))
    lines[:, :m] = arms[:, None] * delta[i] + heights[:m]
    lines[:, m:] = heights[m]
    schedule = vectors[np.argmax(lines, axis=1)]
    if options > 1:
        top = np.sort(lines, axis=1)
        best = top[:, -1]
        near = np.flatnonzero(best - top[:, -2] <= 1e-9 * np.maximum(1.0, np.abs(best)))
        for a in near:
            weights[i] = delta[i] * arms[a]
            schedule[a] = optimal_slot_vector(weights)
    return schedule, without


def payment(instance: AuctionInstance, bids: np.ndarray, weights: np.ndarray,
            slot_of: np.ndarray, i: int, allocation: str, pricing: str, *,
            others_without: float | None = None, critical: float | None = None,
            grid: np.ndarray | None = None) -> tuple[float, float]:
    """Winner i's ``(per-conversion price, expected payment)`` under one format.

    ``weights`` and ``slot_of`` describe the profile ``bids`` and its
    allocation; i must hold a slot.  VCG takes the others' welfare without i
    precomputed when ``others_without`` is given; GSP under optimal allocation
    takes a known critical bid as ``critical``; otherwise it bisects it, or,
    given ``grid``, takes the lowest grid bid that :func:`optimal_slot_schedule`
    places in the same slot.  A winner whose discount at its slot is zero has
    per-conversion price 0; the expected payment carries the whole charge.
    """
    s = int(slot_of[i])
    d = instance.delta[i, s - 1]
    if pricing == "vcg":
        if others_without is None:
            others_without = welfare_without(weights, i, allocation)
        e = others_without - (welfare_of(weights, slot_of) - float(weights[i, s - 1]))
        if -TOL <= e < 0.0:
            e = 0.0
    elif allocation == "greedy":
        # The best discounted bid at slot s among the bidders greedy had not
        # yet placed when it filled s (i itself holds s); matching it keeps the slot.
        unplaced = (slot_of < 0) | (slot_of > s)
        e = max(float(np.where(unplaced, weights[:, s - 1], -1.0).max()), 0.0)
    else:
        if critical is None:
            critical = _critical_bid_optimal(instance, bids, i, s, grid)
        return (critical if d > 0 else 0.0), d * critical
    return (e / d if d > 0 else 0.0), e


@dataclass(frozen=True)
class PriceVector:
    """Per-conversion prices plus the expected (discounted) payments.

    When a winner's discount at its slot is zero the per-conversion price is
    recorded as 0 and the expected payment carries the whole charge.
    """

    per_conversion: tuple[float, ...]
    expected: tuple[float, ...]
    #: the allocation priced (set by :func:`price_gsp`/:func:`price_vcg`)
    slot_of: np.ndarray | None = field(default=None, compare=False, repr=False)


def price_gsp(instance: AuctionInstance, bids, allocation: AllocationName, *,
              bid_grid=None) -> PriceVector:
    """Critical-bid prices for the given allocator.

    Under greedy allocation the critical bid has a closed form: the best
    discounted bid among bidders still unallocated when the winner's slot was
    filled.  Under optimal allocation it is found by bisection on the
    winner's own bid, or read off the winner's slot schedule over the grid
    when ``bid_grid`` restricts bids to a discrete grid (pass one grid, or
    one per bidder).
    """
    return _price_winners(instance, bids, allocation, "gsp", bid_grid)


def price_vcg(instance: AuctionInstance, bids, allocation: AllocationName) -> PriceVector:
    """Externality payments: others' discounted bids without i, minus with i.

    The expected payment is the quantity VCG defines directly; per-conversion
    divides by the winner's discount when positive.  Expected payments that
    come out negative within tolerance are clamped to zero.
    """
    return _price_winners(instance, bids, allocation, "vcg", None)


def _price_winners(instance: AuctionInstance, bids, allocation: str, pricing: str,
                   bid_grid) -> PriceVector:
    b = as_bids(instance, bids)
    weights = weight_matrix(instance, b)
    slot_of = allocator(allocation)(weights)
    per_conv = np.zeros(instance.n)
    expected = np.zeros(instance.n)
    for i in map(int, np.flatnonzero(slot_of > 0)):
        per_conv[i], expected[i] = payment(instance, b, weights, slot_of, i, allocation,
                                           pricing, grid=_grid_for(bid_grid, i))
    return PriceVector(tuple(map(float, per_conv)), tuple(map(float, expected)), slot_of)


def _grid_for(bid_grid, i: int):
    if bid_grid is None:
        return None
    if isinstance(bid_grid, (list, tuple)) and bid_grid and hasattr(bid_grid[0], "__len__"):
        return np.asarray(bid_grid[i], dtype=float)
    return np.asarray(bid_grid, dtype=float)


def _critical_bid_optimal(instance: AuctionInstance, b: np.ndarray, i: int, slot: int,
                          grid: np.ndarray | None) -> float:
    delta = instance.delta
    if grid is not None:
        grid = np.sort(grid)
        schedule, _ = optimal_slot_schedule(delta, b, i, grid)
        kept = np.flatnonzero(schedule[:, i] == slot)
        # the realized bid always keeps its own slot
        return float(grid[kept[0]]) if kept.size else float(b[i])

    def keeps(x: float) -> bool:
        trial = b.copy()
        trial[i] = x
        return int(optimal_slot_vector(delta * trial[:, None])[i]) == slot

    if keeps(0.0):
        return 0.0
    lo, hi = 0.0, float(b[i])
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if keeps(mid):
            hi = mid
        else:
            lo = mid
    return hi


def vcg_greedy_payment_recursion(instance: AuctionInstance, bids) -> np.ndarray:
    """Expected greedy-VCG payments via the bottom-up displacement recursion.

    Each winner pays what its displaced successor pays, plus the successor's
    discounted-bid gain from moving up into the winner's slot.  Serves as an
    independent check of :func:`price_vcg` under greedy allocation.
    """
    b = as_bids(instance, bids)
    weights = weight_matrix(instance, b)
    slot_of = greedy_slot_vector(weights)
    n, m = weights.shape
    p = np.zeros(n)
    occupant = {int(s): i for i, s in enumerate(slot_of) if s > 0}
    for s in range(m, 0, -1):  # bottom-up: successors are priced first
        if s not in occupant:
            continue
        i = occupant[s]
        active = np.ones(n, dtype=bool)
        active[i] = False
        without = greedy_slot_vector(weights, active)
        successor = np.flatnonzero(without == s)
        if successor.size == 0:
            p[i] = 0.0
            continue
        j = int(successor[0])
        realized = weights[j, slot_of[j] - 1] if slot_of[j] > 0 else 0.0
        p[i] = p[j] + (instance.delta[j, s - 1] * b[j] - realized)
    return p


def certify_no_overcharge(instance: AuctionInstance, bids,
                          allocation: AllocationName, pricing: Literal["gsp", "vcg"],
                          tolerance: float = TOL, *,
                          prices: PriceVector | None = None) -> tuple[bool, int | None]:
    """Check expected payment <= discounted bid for every bidder.

    For (greedy, vcg) additionally validates the payment recursion against
    the externality computation.  Returns ``(ok, witness)`` where witness is
    the first violating bidder id, if any.  ``prices`` overrides the computed
    vector (negative-control seam for tests).
    """
    b = as_bids(instance, bids)
    if prices is None:
        if pricing == "gsp":
            prices = price_gsp(instance, b, allocation)
        elif pricing == "vcg":
            prices = price_vcg(instance, b, allocation)
        else:
            raise AuctionError(f"unknown pricing rule {pricing!r}")
    weights = weight_matrix(instance, b)
    slot_of = allocator(allocation)(weights)
    for i in range(instance.n):
        s = int(slot_of[i])
        bound = weights[i, s - 1] if s > 0 else 0.0
        if prices.expected[i] > bound + tolerance:
            return False, i
    if allocation == "greedy" and pricing == "vcg":
        rec = vcg_greedy_payment_recursion(instance, b)
        gap = np.abs(rec - np.asarray(prices.expected))
        if gap.max(initial=0.0) > tolerance:
            return False, int(np.argmax(gap))
    return True, None
