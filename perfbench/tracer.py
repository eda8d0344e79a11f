"""Span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's side only: each layer boundary is a
function (or class attribute) of the ``posauctions`` package that is rebound
to a recording wrapper in every package module holding a reference to it, and
restored afterwards.  A span is (name, start, end, parent); spans live in flat
in-memory arrays and are written out once, when the benchmark ends.  Counts
that need a call's arguments or result (candidate matchings, profiles, records)
are computed by the wrapper after the span has closed, so they are never part
of any span's time.
"""
from __future__ import annotations

import array
import json
import math
import sys
import time
from pathlib import Path

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """A recording stand-in for ``fn``; ``count(counters, args, kwargs,
        result, seconds)`` runs after the span closes."""
        nid = self.name_index(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result, end[idx] - start[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int64))

    def save(self, path: Path) -> None:
        names, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name_id=names, start=start, end=end, parent=parent,
                 names=np.array(json.dumps(self.names)))


def install(recorder: SpanRecorder, boundaries) -> callable:
    """Rebind every boundary to a recording wrapper; returns the undo function.

    A boundary is ``(span name, module name, attribute, count)``; the attribute
    is a module-level function, or ``Class.method`` for methods and
    classmethods.  Module-level functions are replaced wherever a package
    module holds them: as a global, or as a value of a module-level dict.
    """
    undo: list[tuple] = []
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "posauctions" or k.startswith("posauctions."))]
    for name, module_name, attr, count in boundaries:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(name, raw.__func__, count))
            else:
                new = recorder.wrap(name, raw, count)
            setattr(cls, meth, new)
            undo.append((setattr, cls, meth, raw))
            continue
        original = getattr(module, attr)
        new = recorder.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, new)
                    undo.append((setattr, mod, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = new
                            undo.append((dict.__setitem__, value, k, original))

    def restore() -> None:
        for setter, holder, key, original in reversed(undo):
            setter(holder, key, original)

    return restore


# --- counts computed outside the program --------------------------------------

def _add(counters: dict, key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0.0) + amount


def count_candidates(counters, args, kwargs, result, seconds) -> None:
    """Candidate matchings the exact allocator scores: nPm for n active bidders."""
    weights = args[0]
    active = args[1] if len(args) > 1 else kwargs.get("active")
    n, m = weights.shape
    k = n if active is None else int(np.count_nonzero(active))
    _add(counters, "allocation.optimal.candidates",
         0 if k == 0 else (math.perm(k, m) if k >= m else math.perm(m, k)))


def count_profiles(counters, args, kwargs, result, seconds) -> None:
    """Profiles in the broadcast batch, and the bytes of the arrays computed."""
    _add(counters, "analytic.simulate_profiles.profiles", result.revenue.size)
    _add(counters, "analytic.simulate_profiles.bytes_computed",
         sum(a.nbytes for a in vars(result).values()))


def count_deviations(counters, args, kwargs, result, seconds) -> None:
    from posauctions.fixtures import deviation_grid

    named = args[0]
    resolution = kwargs.get("resolution", 10_000)
    _add(counters, "fixtures.verify_pure_nash.deviations",
         named.instance.n * deviation_grid(named, resolution).size)


def count_records(counters, args, kwargs, result, seconds) -> None:
    _add(counters, "datasets.records", len(result))


def layer_boundaries() -> list[tuple]:
    """Every boundary the traced run records, named by package layer."""
    B = [
        ("allocation.optimal", "posauctions.allocation", "optimal_slot_vector", count_candidates),
        ("allocation.greedy", "posauctions.allocation", "greedy_slot_vector", None),
        ("pricing.price_gsp", "posauctions.pricing", "price_gsp", None),
        ("pricing.price_vcg", "posauctions.pricing", "price_vcg", None),
        ("pricing.critical_bid", "posauctions.pricing", "_critical_bid_optimal", None),
        ("engine.run_auction", "posauctions.engine", "run_auction", None),
        ("engine.utility_of", "posauctions.engine", "utility_of", None),
        ("experiments.arm_sweep", "posauctions.experiments", "_arm_utilities", None),
        ("experiments.run", "posauctions.experiments", "run_experiment1", None),
        ("experiments.run", "posauctions.experiments", "run_experiment23", None),
        ("learning.step", "posauctions.learning", "ExpWeights.step", None),
        ("learning.sample_arm", "posauctions.learning", "ExpWeights.sample_arm", None),
        ("learning.mixture_sample", "posauctions.learning",
         "AverageEmpiricalDistribution.sample", None),
        ("analytic.simulate_profiles", "posauctions.analytic", "simulate_profiles",
         count_profiles),
        ("analytic.revenue_oracle_mc", "posauctions.analytic", "revenue_oracle_mc", None),
        ("fixtures.verify_pure_nash", "posauctions.fixtures", "verify_pure_nash",
         count_deviations),
        ("model.as_bids", "posauctions.model", "as_bids", None),
        ("model.assignment", "posauctions.model", "Assignment.from_slot_vector", None),
        ("cli.main", "posauctions.cli", "main", None),
    ]
    for fn in ("synth_generate", "read_bid_csv"):
        B.append(("datasets", "posauctions.datasets", fn, count_records))
    for fn in ("write_bid_csv", "normalize_advertisers", "normalize_auctions",
               "save_dataset", "load_dataset", "sample_valuations"):
        B.append(("datasets", "posauctions.datasets", fn, None))
    return B


SPAN_NAMES = sorted({b[0] for b in layer_boundaries()})
#: (metric, child span prefix, parent span): allocator calls made directly under a span.
CHILD_COUNTS = (("pricing.critical_bid.alloc_probes", "allocation.", "pricing.critical_bid"),
                ("experiments.arm_sweep.alloc_calls", "allocation.", "experiments.arm_sweep"))
COUNTER_NAMES = ("allocation.optimal.candidates", "analytic.simulate_profiles.profiles",
                 "analytic.simulate_profiles.bytes_computed",
                 "fixtures.verify_pure_nash.deviations", "datasets.records")


def per_layer_metrics(recorder: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Calls and self time per span name, child allocator counts, counters.

    A span's self time is its duration minus the durations of its direct
    children.  Every name is reported, with zero where the workload never
    crossed that boundary.
    """
    names, start, end, parent = recorder.arrays()
    n_names = len(recorder.names)
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    calls = np.bincount(names, minlength=n_names)
    self_s = np.bincount(names, weights=self_time, minlength=n_names)
    out: dict[str, tuple[float, str]] = {}
    for span in SPAN_NAMES:
        idx = recorder._ids.get(span)
        out[f"{span}.calls"] = (int(calls[idx]) if idx is not None else 0, "count")
        out[f"{span}.self_s"] = (float(self_s[idx]) if idx is not None else 0.0, "s")
    child_names = names[has_parent]
    parent_names = names[parent[has_parent]]
    for metric, child_prefix, parent_span in CHILD_COUNTS:
        child_ids = [i for i, s in enumerate(recorder.names) if s.startswith(child_prefix)]
        pid = recorder._ids.get(parent_span, -1)
        hits = np.isin(child_names, child_ids) & (parent_names == pid)
        out[metric] = (int(hits.sum()), "count")
    for key in COUNTER_NAMES:
        unit = "bytes" if key.endswith("bytes_computed") else "count"
        out[key] = (int(recorder.counters.get(key, 0)), unit)
    return out
