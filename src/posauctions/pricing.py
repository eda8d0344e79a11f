"""The mechanism rules: allocator lookup, welfare, and every format's payment.

GSP charges the minimum bid under which a bidder retains the slot it was
assigned (closed threshold: the critical bid itself retains).  VCG charges
the externality, re-running the allocation with the bidder removed and
measuring everyone else's change in discounted bids.  :func:`payment` is the
one implementation of both rules under both allocators, array-valued over
the rows of a bidder's slot schedule: its allocation at every bid of a grid
from m+1 allocations (:func:`greedy_slot_schedule`,
:func:`optimal_slot_schedule`).  The exact-GSP critical bid is read off the
upper envelope of one line per slot the bidder could hold, with the
allocator's own tie rule (:mod:`.allocation`).
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


def greedy_slot_schedule(delta: np.ndarray, bids: np.ndarray, i: int,
                         arms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy slot vectors with bidder i bidding each of ``arms``; the same
    contract as :func:`optimal_slot_schedule`.

    Greedy without i gives each slot s its winner w_s and threshold c_s, w_s's
    weight there (-1 when no other bidder is left).  Bidder i enters at the
    first s where its weight beats c_s, or ties it with i < w_s: above s the
    run is greedy's without i, and below s it is greedy on the others not yet
    placed.  So m+1 greedy runs give every row.
    """
    weights = delta * bids[:, None]
    n, m = weights.shape
    remaining = np.arange(n) != i
    without = greedy_slot_vector(weights, remaining)
    winner = np.full(m, -1)
    placed = np.flatnonzero(without > 0)
    winner[without[placed] - 1] = placed
    threshold = np.where(winner >= 0, weights[winner, np.arange(m)], -1.0)
    own = delta[i] * arms[:, None]
    enters = (own > threshold) | ((own == threshold) & (i < winner))
    vectors = np.empty((m + 1, n), dtype=np.intp)
    vectors[m] = without  # i enters nowhere
    for s in range(m):
        row = np.where(without <= s, without, -1)
        row[i] = s + 1
        below = greedy_slot_vector(weights[:, s + 1:], remaining)
        row[below > 0] = below[below > 0] + s + 1
        vectors[s] = row
        if winner[s] >= 0:
            remaining[winner[s]] = False
    return vectors[np.where(enters.any(axis=1), enters.argmax(axis=1), m)], without


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
            schedule: np.ndarray, i: int, allocation: str, pricing: str, *,
            arms: np.ndarray | None = None, others_without: float | None = None,
            grid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bidder i's ``(per-conversion prices, expected payments)`` under one
    format, one entry per row of ``schedule``; 0 where i holds no slot.

    Row a of ``schedule`` is the allocation of ``bids`` with i bidding
    ``arms[a]`` (a schedule from :func:`greedy_slot_schedule` or
    :func:`optimal_slot_schedule`; without ``arms``, one row at ``bids[i]``).
    ``weights`` is ``bids``' weight matrix; its row i is not read.  VCG
    takes the others' welfare without i as ``others_without``, or allocates
    it.  GSP under optimal allocation charges, given ``grid``, the lowest
    grid bid that places i in the same slot (read off the rows when
    ``arms`` is the grid itself); otherwise the lowest bid at which the
    allocator's tie rule puts i's slot on top of the upper envelope of its
    option lines (:func:`_options`).  A winner whose discount at its slot is
    zero has per-conversion price 0; the expected payment carries the whole
    charge.
    """
    arms = bids[i:i + 1] if arms is None else arms
    n, m = weights.shape
    held = schedule[:, i]
    won = held > 0
    s = held - won  # i's slot index; a row where i holds none reads slot m...
    d = instance.delta[i][s] * won  # ...with a zero discount, and pays 0
    if pricing == "vcg":
        if others_without is None:
            others_without = welfare_of(weights, allocator(allocation)(weights, np.arange(n) != i))
        # Every row fills min(n, m) slots, so its winners, taken in id order,
        # form one row of a rectangle: each summed as welfare_of sums them.
        placed = schedule > 0
        bidder = np.nonzero(placed)[1]
        values = weights[bidder, schedule[placed] - 1]
        own = d * arms  # i's weight in its slot
        values[bidder == i] = own[won]
        e = others_without - (values.reshape(-1, min(n, m)).sum(axis=1) - own)
        e[(-TOL <= e) & (e < 0.0)] = 0.0
    elif allocation == "greedy":
        # The best discounted bid at slot s among the bidders greedy had not
        # yet placed when it filled s (i itself holds s); matching it keeps the slot.
        unplaced = (schedule < 0) | (schedule > held[:, None])
        e = np.maximum(np.where(unplaced, weights.T[s], -1.0).max(axis=1), 0.0)
    else:
        if grid is not None and np.array_equal(arms, grid):
            lowest = np.full(m + 1, np.inf)
            np.minimum.at(lowest, held[won], arms[won])
            critical = np.where(won, lowest[held], 0.0)
        else:
            trial, critical = bids.copy(), np.zeros(arms.size)
            for a in np.flatnonzero(won).tolist():
                trial[i] = arms[a]
                critical[a] = _critical_bid_optimal(instance, trial, i, int(held[a]), grid)
        return np.where(d > 0, critical, 0.0), d * critical
    e = e * won
    return np.divide(e, d, out=np.zeros(e.size), where=d > 0), e


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
        (per_conv[i],), (expected[i],) = payment(instance, b, weights, slot_of[None], i,
                                                 allocation, pricing,
                                                 grid=_grid_for(bid_grid, i))
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
