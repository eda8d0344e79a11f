"""Core domain types for position auctions with typed discount curves.

Every ad carries a public type; each type has its own monotone per-slot
discount curve, so the setting sits between the fully separable position
auction (one shared curve) and a general matching market.  Bidders submit a
single per-conversion bid; a mechanism assigns slots and per-conversion
prices.  All types here are immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

#: Default absolute tolerance for floating-point comparisons in checks/tests.
TOL = 1e-9


class AuctionError(ValueError):
    """Malformed instance, profile, or out-of-domain query."""


@dataclass(frozen=True)
class DiscountCurve:
    """Per-slot conversion probabilities, non-increasing in the slot index.

    ``per_slot[s-1]`` is the probability that an ad of this type converts in
    slot ``s`` (1-based; slot 1 is the best slot).
    """

    per_slot: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_slot", tuple(float(d) for d in self.per_slot))
        if not self.per_slot:
            raise AuctionError("discount curve must cover at least one slot")
        prev = 1.0 + 1e-12
        for d in self.per_slot:
            if not 0.0 <= d <= 1.0:
                raise AuctionError(f"discount {d} outside [0, 1]")
            if d > prev:
                raise AuctionError("discount curve must be non-increasing")
            prev = d

    def __len__(self) -> int:
        return len(self.per_slot)

    def at(self, slot: int) -> float:
        """Discount for a 1-based slot index."""
        if not 1 <= slot <= len(self.per_slot):
            raise AuctionError(f"slot {slot} out of range 1..{len(self.per_slot)}")
        return self.per_slot[slot - 1]


def geometric_curve(constant: float, factor: float, slots: int) -> DiscountCurve:
    """Curve ``(c, c*f, c*f^2, ...)``: the first slot gets the constant itself."""
    return DiscountCurve(tuple(constant * factor**s for s in range(slots)))


@dataclass(frozen=True)
class Bidder:
    """One ad: integer id, public ad type, non-negative value per conversion.

    Any advertiser-specific conversion multiplier is assumed to be folded
    into ``value`` already.
    """

    id: int
    ad_type: str
    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise AuctionError(f"bidder {self.id} has negative value {self.value}")


@dataclass(frozen=True)
class AuctionInstance:
    """Immutable game description: bidders, per-type curves, slot count.

    Bidder ids must be ``0..n-1`` in listed order; the id doubles as the
    deterministic tie-break key everywhere downstream.
    """

    bidders: tuple[Bidder, ...]
    curves: Mapping[str, DiscountCurve]
    slot_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bidders", tuple(self.bidders))
        object.__setattr__(self, "curves", dict(self.curves))
        if self.slot_count < 1:
            raise AuctionError("need at least one slot")
        for pos, b in enumerate(self.bidders):
            if b.id != pos:
                raise AuctionError("bidder ids must be 0..n-1 in order")
            if b.ad_type not in self.curves:
                raise AuctionError(f"bidder {b.id} references unknown type {b.ad_type!r}")
        for name, curve in self.curves.items():
            if len(curve) != self.slot_count:
                raise AuctionError(f"curve {name!r} has length {len(curve)} != {self.slot_count} slots")

    @property
    def n(self) -> int:
        return len(self.bidders)

    @cached_property
    def values(self) -> np.ndarray:
        v = np.array([b.value for b in self.bidders], dtype=float)
        v.flags.writeable = False
        return v

    @cached_property
    def delta(self) -> np.ndarray:
        """n x m matrix of discounts: ``delta[i, s-1]`` for bidder i, slot s."""
        d = np.array([self.curves[b.ad_type].per_slot for b in self.bidders], dtype=float)
        d.flags.writeable = False
        return d

    def discount(self, bidder_id: int, slot: int) -> float:
        self._check_bidder(bidder_id)
        return self.curves[self.bidders[bidder_id].ad_type].at(slot)

    def _check_bidder(self, bidder_id: int) -> None:
        if not 0 <= bidder_id < self.n:
            raise AuctionError(f"unknown bidder {bidder_id}")


def as_bids(instance: AuctionInstance, bids: "BidProfile | Sequence[float] | np.ndarray") -> np.ndarray:
    """Coerce a profile to a fresh float array, validating length and sign."""
    if isinstance(bids, BidProfile):
        arr = np.array(bids.bids, dtype=float)
    else:
        arr = np.array(bids, dtype=float)
    if arr.shape != (instance.n,):
        raise AuctionError(f"expected {instance.n} bids, got shape {arr.shape}")
    if (arr < 0).any() or not np.isfinite(arr).all():
        raise AuctionError("bids must be finite and non-negative")
    return arr


@dataclass(frozen=True)
class BidProfile:
    """One non-negative per-conversion bid per bidder."""

    bids: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bids", tuple(float(b) for b in self.bids))
        for b in self.bids:
            if b < 0 or not np.isfinite(b):
                raise AuctionError(f"bid {b} must be finite and non-negative")

    def replaced(self, bidder_id: int, bid: float) -> "BidProfile":
        new = list(self.bids)
        new[bidder_id] = bid
        return BidProfile(tuple(new))

    def __len__(self) -> int:
        return len(self.bids)


@dataclass(frozen=True, eq=True)
class Assignment:
    """Partial bidder-to-slot matching; both directions kept explicitly."""

    slot_of: Mapping[int, int]  # bidder id -> 1-based slot
    bidder_in: Mapping[int, int]  # 1-based slot -> bidder id

    def __post_init__(self) -> None:
        object.__setattr__(self, "slot_of", dict(self.slot_of))
        object.__setattr__(self, "bidder_in", dict(self.bidder_in))
        inverse = {s: b for b, s in self.slot_of.items()}
        if inverse != dict(self.bidder_in) or len(inverse) != len(self.slot_of):
            raise AuctionError("slot_of and bidder_in must be mutually inverse")

    __hash__ = None  # dict fields; identity-free value object, not hashable

    @classmethod
    def from_slot_vector(cls, slots: Sequence[int]) -> "Assignment":
        """Build from a per-bidder slot vector; -1 marks unallocated."""
        slot_of = {i: int(s) for i, s in enumerate(slots) if s > 0}
        return cls(slot_of, {s: i for i, s in slot_of.items()})


@dataclass(frozen=True)
class AuctionOutcome:
    """Full mechanism result: matching, prices, payments, welfare, revenue.

    ``expected_payment[i] = discount(i, slot) * per_conversion_price[i]`` for
    allocated bidders with positive discount; unallocated bidders pay 0 and
    revenue is exactly the sum of expected payments.
    """

    assignment: Assignment
    per_conversion_price: tuple[float, ...]
    expected_payment: tuple[float, ...]
    true_welfare: float
    apparent_welfare: float
    revenue: float


def utility(instance: AuctionInstance, bidder_id: int, slot: int | None,
            per_conversion_price: float = 0.0) -> float:
    """Expected payoff ``discount * (value - price)``; 0 when unallocated."""
    instance._check_bidder(bidder_id)
    if slot is None:
        return 0.0
    if per_conversion_price < 0:
        raise AuctionError("price must be non-negative")
    d = instance.discount(bidder_id, slot)
    return d * (instance.bidders[bidder_id].value - per_conversion_price)


def welfare(instance: AuctionInstance, assignment: Assignment,
            values: Sequence[float] | np.ndarray) -> float:
    """Sum of discounted values over allocated bidders.

    Passing bids instead of values yields the apparent welfare, which is all
    the mechanism itself can observe.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (instance.n,):
        raise AuctionError(f"expected {instance.n} values, got shape {vals.shape}")
    total = 0.0
    for b, s in sorted(assignment.slot_of.items()):
        total += instance.discount(b, s) * vals[b]
    return total


# --- JSON serialization ----------------------------------------------------
# Schema: {"slots": m, "curves": {type: [deltas...]}, "bidders": [{id,type,value}]}
# Floats survive a round-trip bit-exactly (json uses repr, the shortest
# representation that parses back to the same double).

def instance_to_dict(instance: AuctionInstance) -> dict:
    return {
        "slots": instance.slot_count,
        "curves": {name: list(curve.per_slot) for name, curve in instance.curves.items()},
        "bidders": [{"id": b.id, "type": b.ad_type, "value": b.value} for b in instance.bidders],
    }


def _integer(x) -> int:
    if int(x) != x:
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def instance_from_dict(doc: Mapping) -> AuctionInstance:
    try:
        curves = {name: DiscountCurve(tuple(ds)) for name, ds in doc["curves"].items()}
        bidders = tuple(Bidder(_integer(b["id"]), str(b["type"]), float(b["value"]))
                        for b in doc["bidders"])
        return AuctionInstance(bidders, curves, _integer(doc["slots"]))
    except AuctionError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise AuctionError(f"malformed instance document: {exc}") from exc


def instance_to_json(instance: AuctionInstance) -> str:
    return json.dumps(instance_to_dict(instance), sort_keys=True)


def instance_from_json(text: str) -> AuctionInstance:
    return instance_from_dict(json.loads(text))
