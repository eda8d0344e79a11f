"""The mechanism rules: allocator lookup, welfare, and every format's payment.

GSP charges the minimum bid under which a bidder retains the slot it was
assigned (closed threshold: the critical bid itself retains).  VCG charges
the externality, re-running the allocation with the bidder removed and
measuring everyone else's change in discounted bids.  :func:`payment` is the
one implementation of both rules under both allocators; the pricers, the
engine's single-bidder payoff and the learners' arm sweep all call it.
Under exact allocation one DP over the others gives a bidder's allocation
at every bid (:func:`optimal_slot_schedule`) and its exact-GSP critical bid,
both from the upper envelope of one line per slot it could hold, read with
the allocator's own tie rule (:mod:`.allocation`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .allocation import (SlotTable, greedy_slot_vector, optimal_slot_vector, tie_margin,
                         tie_point, weight_matrix)
from .model import AuctionError, AuctionInstance, TOL, as_bids

AllocationName = Literal["greedy", "optimal"]

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


def _options(delta: np.ndarray, bids: np.ndarray,
             i: int) -> tuple[SlotTable, list[int], np.ndarray, np.ndarray]:
    """Bidder i's options as lines in its bid: the others' DP, the free-slot
    mask each option leaves (slot t+1 for t < m; none for t = m), and, per
    option i can take, the slope ``delta[i, t]`` (0 for none, an option only
    when n > m) and the others' best weight H_t on that mask.  Only slots
    1..min(n, m) are options (see :func:`optimal_slot_vector`)."""
    n = delta.shape[0]
    m = min(n, delta.shape[1])
    table = SlotTable(delta[:, :m] * bids[:, None], np.arange(n) != i)
    full = (1 << m) - 1
    masks = [full ^ (1 << t) for t in range(m)] + [full]
    slopes = np.append(delta[i, :m], 0.0)[:m + 1 if n > m else m]
    return table, masks, slopes, table.best[0, masks[:slopes.size]]


def optimal_slot_schedule(delta: np.ndarray, bids: np.ndarray, i: int,
                          arms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-allocation slot vectors with bidder i bidding each of ``arms``.

    Returns ``(schedule, without)``: row a of ``schedule`` is the slot
    vector of the profile with ``bids[i]`` replaced by ``arms[a]``, and
    ``without`` is the others' allocation with i absent; ``bids[i]`` itself
    is ignored.  At each arm i takes the top line of :func:`_options` and the
    others the DP's allocation of the slots left.  An arm whose two best
    lines lie within twice the allocator's :func:`tie_margin` is allocated in
    full instead, so :func:`optimal_slot_vector` decides every near-tie of
    i's slot.
    """
    table, masks, slopes, heights = _options(delta, bids, i)
    # the last row, i taking no slot, is also the others' allocation without i
    vectors = np.array([table.vector(mask) for mask in masks])
    vectors[np.arange(len(masks) - 1), i] = np.arange(1, len(masks))
    lines = arms[:, None] * slopes + heights
    schedule = vectors[np.argmax(lines, axis=1)]
    if slopes.size > 1:
        top = np.sort(lines, axis=1)
        # twice the margin: the allocator sums the same weights in another order
        near = [a for a, (second, best) in enumerate(top[:, -2:].tolist())
                if best - second <= 2.0 * tie_margin(best)]
        weights = delta * bids[:, None]
        for a in near:
            weights[i] = delta[i] * arms[a]
            schedule[a] = optimal_slot_vector(weights)
    return schedule, vectors[-1]


def payment(instance: AuctionInstance, bids: np.ndarray, weights: np.ndarray,
            slot_of: np.ndarray, i: int, allocation: str, pricing: str, *,
            others_without: float | None = None, critical: float | None = None,
            grid: np.ndarray | None = None) -> tuple[float, float]:
    """Winner i's ``(per-conversion price, expected payment)`` under one format.

    ``weights`` and ``slot_of`` describe the profile ``bids`` and its
    allocation; i must hold a slot.  VCG takes the others' welfare without i
    precomputed when ``others_without`` is given; GSP under optimal allocation
    takes a known critical bid as ``critical``; otherwise it takes the lowest
    bid at which the allocator's tie rule puts i's slot on top of the upper
    envelope of its option lines (:func:`_options`), or, given ``grid``, the
    lowest grid bid that :func:`optimal_slot_schedule` places in the same
    slot.  A winner whose discount at its slot is zero has per-conversion
    price 0; the expected payment carries the whole charge.
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
    filled.  Under optimal allocation it is where the winner's slot starts on
    the envelope of its options' lines in its own bid, or it is read off the
    winner's slot schedule over the grid when ``bid_grid`` restricts bids to
    a discrete grid (pass one grid, or one per bidder).
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
    table, masks, slopes, heights = _options(delta, b, i)
    s = slot - 1
    flatter = np.flatnonzero(slopes < slopes[s])
    if not flatter.size:
        return 0.0

    def ahead(t: int) -> list[int]:
        """The slots of the bidders before i when i takes option t (none last)."""
        head = table.vector(masks[t])[:i]
        return np.where(head > 0, head, len(masks)).tolist()

    # Slot s's interval starts where its line comes within the allocator's tie
    # margin of every flatter line.  A tied option wins instead if its slot
    # vector sorts first, which (as it puts i lower) only the bidders before i
    # can make it do; it then keeps i out until its line leaves the margin.
    line, own, price = (slopes[s], heights[s]), ahead(s), 0.0
    for t in flatter:
        other = (slopes[t], heights[t])
        price = max(price, tie_point(line, other))
        if ahead(t) < own:
            price = max(price, tie_point(other, line))
    price = min(price, float(b[i]))
    trial = b.copy()
    trial[i] = price
    if price < b[i] and optimal_slot_vector(delta * trial[:, None])[i] != slot:
        # the allocator sums in another order than these lines, off by a few
        # ulps of the top weight: step past that
        gap = slopes[s] - slopes[flatter].max()
        price = min(price + 1e-3 * tie_margin(slopes[s] * price + heights[s]) / gap,
                    float(b[i]))
    return float(price)


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
