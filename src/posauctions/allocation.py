"""Slot allocation algorithms: greedy top-down, exact max-weight, brute force.

All three operate on the weight matrix ``delta[i, s] * bid[i]``.  Greedy breaks
ties at a slot by lowest bidder id.  The exact algorithms break ties between
equal-weight matchings by the lexicographically smallest per-bidder slot vector
(unallocated sorts last), and count weights within :func:`tie_margin` of the
best as equal, so float summation order cannot decide a tie.  This module is
the one home of that rule: :func:`tie_point` gives the bid at which it starts
or stops counting two options as tied, for the exact-GSP price.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .model import Assignment, AuctionError, AuctionInstance, as_bids

#: Matchings tie when their weights differ by at most this times max(1, best):
#: far above float summation noise, far below gaps between decimal sums.
TIE_MARGIN = 1e-12

#: Size guard for the exact allocator: (active bidders + 1) * 2**slots cells.
MAX_TABLE_CELLS = 1 << 17


def tie_margin(top: float) -> float:
    """How far below the best weight ``top`` a matching may weigh and still tie."""
    return TIE_MARGIN * max(1.0, abs(top))


def tie_point(low: tuple[float, float], top: tuple[float, float]) -> float:
    """The bid x at which the line ``low`` (slope, height) lies exactly
    :func:`tie_margin` below the line ``top`` that weighs the most there."""
    (a, h), (a_top, h_top) = low, top
    x = (h_top - TIE_MARGIN - h) / (a - a_top)
    if a_top * x + h_top > 1.0:  # above weight 1 the margin is relative
        keep = 1.0 - TIE_MARGIN
        x = (keep * h_top - h) / (a - keep * a_top)
    return x


@functools.lru_cache(maxsize=None)
def _moves(m: int) -> tuple[np.ndarray, list[list[int]]]:
    """Row t < m, column ``mask``: the free slots left after taking slot t+1,
    or the sentinel 2**m when it is not free; row m: ``mask`` itself (no slot
    taken).  Returned as an array, and transposed as nested lists."""
    masks, bits = np.arange(1 << m), 1 << np.arange(m)[:, None]
    moves = np.vstack([np.where(masks & bits, masks ^ bits, 1 << m), masks])
    moves.flags.writeable = False  # shared by every caller through the cache
    return moves, moves.T.tolist()


class SlotTable:
    """Exact allocation of the active bidders by a DP over slot masks:
    ``best[j, mask]`` is the most weight that the active bidders from the j-th
    on (in id order) can get from the slots in ``mask`` (bit t for slot t+1),
    each taking one free slot or none; column 2**m, a slot not free, is -inf."""

    def __init__(self, weights: np.ndarray, active: np.ndarray | None = None) -> None:
        n, m = self.n, self.m = weights.shape
        self.idx = np.arange(n) if active is None else np.flatnonzero(active)
        k, size = self.idx.size, 1 << m
        if (k + 1) * size > MAX_TABLE_CELLS:
            raise AuctionError(f"instance too large for exact matching: {k} bidders, {m} "
                               f"slots need {(k + 1) * size} cells > {MAX_TABLE_CELLS}")
        moves, _ = _moves(m)
        self.gains = np.zeros((k, m + 1, 1))  # row m: the bidder takes no slot
        self.gains[:, :m, 0] = weights[self.idx]
        self.best = np.zeros((k + 1, size + 1))
        self.best[:, size] = -np.inf
        for j in range(k - 1, -1, -1):
            np.maximum.reduce(self.best[j + 1][moves] + self.gains[j], axis=0,
                              out=self.best[j, :size])
        self._lists = (self.gains[:, :, 0].tolist(), self.best.tolist(), self.idx.tolist())

    def vector(self, mask: int) -> np.ndarray:
        """Per-bidder slots (-1 if none) of the lexicographically smallest
        matching into the slots of ``mask`` whose weight is within
        :func:`tie_margin` of the best; inactive bidders get -1."""
        gains, best, idx = self._lists
        _, moves = _moves(self.m)
        top = best[0][mask]
        need = top - tie_margin(top)
        slot_of = [-1] * self.n
        for j, bidder in enumerate(idx):
            # best[j][mask] is the best option's value, so float noise never leaves none
            floor, rest, nxt = min(need, best[j][mask]), best[j + 1], moves[mask]
            for t, gain in enumerate(gains[j]):
                if gain + rest[nxt[t]] >= floor:
                    break
            slot_of[bidder] = t + 1 if t < self.m else -1
            need -= gain
            mask = nxt[t]
        return np.array(slot_of, dtype=np.intp)


def weight_matrix(instance: AuctionInstance, bids: np.ndarray) -> np.ndarray:
    return instance.delta * bids[:, None]


def greedy_slot_vector(weights: np.ndarray, active: np.ndarray | None = None) -> np.ndarray:
    """Greedy assignment on a weight matrix; returns per-bidder slots, -1 if none.

    Slots are processed in order; each receives the unallocated bidder with
    the highest weight there, even when that weight is zero.
    """
    n, m = weights.shape
    slot_of = np.full(n, -1, dtype=np.intp)
    if active is None:
        eff, k = weights.copy(), n
    else:
        eff, k = np.where(active[:, None], weights, -1.0), int(np.count_nonzero(active))
    for s in range(min(k, m)):
        winner = int(eff[:, s].argmax())  # first maximum = lowest id
        slot_of[winner] = s + 1
        eff[winner] = -1.0  # placed bidders rank below every weight
    return slot_of


def optimal_slot_vector(weights: np.ndarray, active: np.ndarray | None = None) -> np.ndarray:
    """Max-weight assignment of the active bidders, ties to the lexicographically
    smallest slot vector (see :class:`SlotTable`).

    Rows must be non-increasing along the slots, as every discount curve is,
    so k active bidders only ever take slots 1..k: one in a lower slot could
    move up to a free one, weighing no less and sorting first.
    """
    k = weights.shape[0] if active is None else int(np.count_nonzero(active))
    m = min(k, weights.shape[1])
    return SlotTable(weights[:, :m], active).vector((1 << m) - 1)


def allocate_greedy(instance: AuctionInstance, bids) -> Assignment:
    b = as_bids(instance, bids)
    return Assignment.from_slot_vector(greedy_slot_vector(weight_matrix(instance, b)))


def allocate_optimal(instance: AuctionInstance, bids) -> Assignment:
    b = as_bids(instance, bids)
    return Assignment.from_slot_vector(optimal_slot_vector(weight_matrix(instance, b)))


def allocate_bruteforce(instance: AuctionInstance, bids, max_bidders: int = 8) -> Assignment:
    """Exact optimum by plain enumeration; the ground-truth oracle for tests.

    Deliberately written from first principles (no shared weight-matrix code)
    so it stays independent of :func:`allocate_optimal`; it shares only the
    tie rule: the smallest slot vector within :func:`tie_margin` of the best.
    """
    b = as_bids(instance, bids)
    n, m = instance.n, instance.slot_count
    if n > max_bidders:
        raise AuctionError(f"refusing to enumerate: {n} bidders > {max_bidders}")

    scored = []
    if n >= m:
        for combo in itertools.permutations(range(n), m):
            score = sum(instance.discount(combo[s], s + 1) * b[combo[s]] for s in range(m))
            slots = [m + 1] * n
            for s, i in enumerate(combo):
                slots[i] = s + 1
            scored.append((score, tuple(slots)))
    else:
        for combo in itertools.permutations(range(1, m + 1), n):
            scored.append((sum(instance.discount(i, combo[i]) * b[i] for i in range(n)), combo))
    best = max(score for score, _ in scored)
    slots = min(slots for score, slots in scored if score >= best - tie_margin(best))
    return Assignment.from_slot_vector([s if s <= m else -1 for s in slots])
