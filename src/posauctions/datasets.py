"""Bid-data ingestion, normalization, and synthetic generation.

Raw data is a CSV with header ``advertiser_id,auction_id,bid``.  Two
normalizations produce the two valuation models the experiments sample
from: per-advertiser clamping at the empirical 5th/95th percentiles mapped
onto [0, 1] (independent draws), and per-auction division by the auction
maximum (correlated draws, the max bid becomes exactly 1).
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import AuctionError

RAW_HEADER = ("advertiser_id", "auction_id", "bid")

INDEPENDENT = "independent"
CORRELATED = "correlated"


@dataclass(frozen=True)
class BidRecord:
    advertiser_id: str
    auction_id: str
    bid: float


@dataclass
class BidDataset:
    """Normalized bids, grouped by advertiser or by auction."""

    mode: str
    pools: dict[str, np.ndarray] = field(default_factory=dict)       # advertiser -> values
    auctions: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in (INDEPENDENT, CORRELATED):
            raise AuctionError(f"unknown dataset mode {self.mode!r}")


def read_bid_csv(path) -> list[BidRecord]:
    """Records of a raw or normalized bid CSV; every bid finite and non-negative."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise AuctionError(f"unreadable bid CSV {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != RAW_HEADER:
            raise AuctionError(f"expected header {RAW_HEADER}, got {header}")
        records = []
        for line, row in enumerate(reader, start=2):
            try:
                advertiser, auction, text = row
                bid = float(text)
            except ValueError:
                raise AuctionError(f"{path} line {line}: expected "
                                   f"advertiser_id,auction_id,numeric bid, got {row}") from None
            if not (math.isfinite(bid) and bid >= 0.0):
                raise AuctionError(f"{path} line {line}: bid {text!r} must be finite "
                                   "and non-negative")
            records.append(BidRecord(advertiser, auction, bid))
        return records


def write_bid_csv(path, records: Iterable[BidRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        for r in records:
            writer.writerow([r.advertiser_id, r.auction_id, repr(r.bid)])


def normalize_advertisers(records: Sequence[BidRecord], min_records: int = 20) -> BidDataset:
    """Clamp each advertiser's bids at P5/P95, then map [P5, P95] onto [0, 1].

    Percentiles use linear interpolation between order statistics.
    Advertisers with too few records or a degenerate P5 == P95 are dropped
    with a warning; clamping happens before the affine map, and that order
    is recorded in the metadata sidecar.
    """
    by_adv: dict[str, list[float]] = {}
    for r in records:
        by_adv.setdefault(r.advertiser_id, []).append(r.bid)
    pools: dict[str, np.ndarray] = {}
    meta_adv: dict[str, dict] = {}
    for adv in sorted(by_adv):
        raw = np.asarray(by_adv[adv], dtype=float)
        if raw.size < min_records:
            warnings.warn(f"advertiser {adv!r} dropped: only {raw.size} records")
            meta_adv[adv] = {"dropped": "too_few_records", "count": int(raw.size)}
            continue
        p5, p95 = np.percentile(raw, [5.0, 95.0])
        if p95 <= p5:
            warnings.warn(f"advertiser {adv!r} dropped: degenerate percentile range")
            meta_adv[adv] = {"dropped": "degenerate", "count": int(raw.size)}
            continue
        clamped = np.clip(raw, p5, p95)
        pools[adv] = (clamped - p5) / (p95 - p5)
        meta_adv[adv] = {"p5": float(p5), "p95": float(p95), "count": int(raw.size)}
    meta = {"normalization": "clamp_then_affine", "advertisers": meta_adv}
    return BidDataset(mode=INDEPENDENT, pools=pools, meta=meta)


def normalize_auctions(records: Sequence[BidRecord]) -> BidDataset:
    """Divide each auction's bids by that auction's maximum bid.

    Keeps the correlation structure within an auction; all-zero auctions and
    auctions with fewer than two bids are dropped.
    """
    by_auct: dict[str, list[tuple[str, float]]] = {}
    for r in records:
        by_auct.setdefault(r.auction_id, []).append((r.advertiser_id, r.bid))
    auctions: dict[str, list[tuple[str, float]]] = {}
    dropped = 0
    for auct in sorted(by_auct):
        entries = sorted(by_auct[auct])
        top = max(b for _, b in entries)
        if len(entries) < 2 or top <= 0.0:
            dropped += 1
            continue
        auctions[auct] = [(adv, b / top) for adv, b in entries]
    meta = {"normalization": "per_auction_max", "dropped_auctions": dropped}
    return BidDataset(mode=CORRELATED, auctions=auctions, meta=meta)


def synth_generate(advertiser_count: int, records_per: int, *,
                   log_mean_range: tuple[float, float] = (-1.0, 1.0),
                   log_sigma_range: tuple[float, float] = (0.2, 0.9),
                   seed: int = 0) -> list[BidRecord]:
    """Log-normal stand-in for platform bid data.

    Every advertiser gets its own location/scale; auction ids are shared
    across advertisers so each synthetic auction carries one bid per
    advertiser (usable by both normalizations).
    """
    if advertiser_count < 1 or records_per < 1:
        raise AuctionError("counts must be positive")
    rng = np.random.default_rng(seed)
    records: list[BidRecord] = []
    locs = rng.uniform(*log_mean_range, size=advertiser_count)
    sigmas = rng.uniform(*log_sigma_range, size=advertiser_count)
    for a in range(advertiser_count):
        bids = np.exp(locs[a] + sigmas[a] * rng.standard_normal(records_per))
        adv = f"adv{a:03d}"
        for r in range(records_per):
            records.append(BidRecord(adv, f"auc{r:06d}", float(bids[r])))
    return records


def sample_valuations(dataset: BidDataset, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one value vector for m bidders.

    Independent mode pairs bidder i with the i-th advertiser (sorted order)
    and draws uniformly from its pool.  Correlated mode picks one auction
    with at least m bids uniformly and hands out its first m values in
    advertiser order.
    """
    if m < 1:
        raise AuctionError("need at least one bidder")
    if dataset.mode == INDEPENDENT:
        advs = sorted(dataset.pools)
        if m > len(advs):
            raise AuctionError(f"{m} bidders but only {len(advs)} advertisers")
        out = np.empty(m)
        for i in range(m):
            pool = dataset.pools[advs[i]]
            out[i] = pool[int(rng.integers(pool.size))]
        return out
    eligible = [a for a in sorted(dataset.auctions) if len(dataset.auctions[a]) >= m]
    if not eligible:
        raise AuctionError(f"no auction has at least {m} bids")
    auct = eligible[int(rng.integers(len(eligible)))]
    return np.array([v for _, v in dataset.auctions[auct][:m]], dtype=float)


def save_dataset(dataset: BidDataset, csv_path, sidecar_path) -> None:
    rows: list[BidRecord] = []
    if dataset.mode == INDEPENDENT:
        for adv in sorted(dataset.pools):
            for k, v in enumerate(dataset.pools[adv]):
                rows.append(BidRecord(adv, str(k), float(v)))
    else:
        for auct in sorted(dataset.auctions):
            for adv, v in dataset.auctions[auct]:
                rows.append(BidRecord(adv, auct, float(v)))
    write_bid_csv(csv_path, rows)
    sidecar = {"mode": dataset.mode, "meta": dataset.meta}
    Path(sidecar_path).write_text(json.dumps(sidecar, sort_keys=True, indent=2), encoding="utf-8")


def load_dataset(csv_path, sidecar_path) -> BidDataset:
    try:
        sidecar = json.loads(Path(sidecar_path).read_text(encoding="utf-8"))
        mode = sidecar["mode"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise AuctionError(f"unreadable dataset sidecar {sidecar_path}: {exc}") from None
    records = read_bid_csv(csv_path)
    ds = BidDataset(mode=mode, meta=sidecar.get("meta", {}))
    if mode == INDEPENDENT:
        by_adv: dict[str, list[float]] = {}
        for r in records:
            by_adv.setdefault(r.advertiser_id, []).append(r.bid)
        ds.pools = {a: np.asarray(v) for a, v in by_adv.items()}
    else:
        for r in records:
            ds.auctions.setdefault(r.auction_id, []).append((r.advertiser_id, r.bid))
        ds.auctions = {a: sorted(v) for a, v in ds.auctions.items()}
    return ds
