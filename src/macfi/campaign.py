"""Seeded, parallel fault-injection campaigns and their aggregate statistics.

Reproducibility contract: every run's fault map comes from a seed derived as
derive_seed(master, k, value, rep). A campaign builds all of its maps in job
order, splits them into min(workers, runs) contiguous chunks and evaluates
each chunk as one thread-pool job (one evaluate_accuracy call, batched in
macarray.batch_logits); accuracies come back in job order and records are
sorted deterministically before serialization, so results never depend on
worker count, chunking, block size or scheduling order. Quantiles are
linear interpolation between order statistics (position (n-1)*q), matching
numpy's default method.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDataset, EmptyGroup, OutOfRange, SchemaError, ShapeError
from .faultctl import (
    LANE_VALUE_MAX,
    LANE_VALUE_MIN,
    FaultMap,
    derive_seed,
    fault_for_error_value,
    sample_random_fault_map,  # unused here, but perfbench wraps it by this name
    sample_random_fault_maps,
    single_lane_map,
)
from .macarray import batch_logits
from .model import Dataset
from .planner import ExecutionPlan

RESULTS_HEADER = ["kind", "k", "value", "unit", "lane", "rep", "seed", "accuracy", "drop"]
SUMMARY_HEADER = ["k", "value", "min", "q1", "median", "q3", "max"]

_KIND_ORDER = {"baseline": 0, "heatmap": 1, "sweep": 2}


@dataclass(frozen=True)
class SweepSpec:
    """One random-sampling campaign: k lanes faulted per run, swept over
    error values, repeated with derived seeds."""

    k_values: tuple[int, ...]
    error_values: tuple[int, ...]
    reps: int
    master_seed: int
    slice_offset: int = 0
    slice_count: int | None = None  # None = through the end of the dataset

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "error_values", tuple(int(v) for v in self.error_values))
        if self.reps < 1:
            raise OutOfRange(f"reps must be >= 1, got {self.reps}")
        for k in self.k_values:
            if k < 0:
                raise OutOfRange(f"k must be >= 0, got {k}")
        for v in self.error_values:
            if not (LANE_VALUE_MIN <= v <= LANE_VALUE_MAX):
                raise OutOfRange(f"error value {v} outside 18-bit signed range")
        if self.slice_offset < 0:
            raise OutOfRange(f"slice offset must be >= 0, got {self.slice_offset}")
        if self.slice_count is not None and self.slice_count < 1:
            raise OutOfRange(f"slice count must be >= 1, got {self.slice_count}")


@dataclass(frozen=True)
class RunRecord:
    """One evaluated fault configuration. unit/lane are -1 except for
    single-lane (heatmap) runs; digest identifies the fault map but is not
    part of the CSV row."""

    kind: str  # baseline | sweep | heatmap
    k: int
    value: int
    unit: int
    lane: int
    rep: int
    seed: int
    accuracy: float
    drop: float
    digest: str = ""

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.k, self.value, self.unit, self.lane, self.rep)

    def csv_row(self) -> list[str]:
        return [self.kind, str(self.k), str(self.value), str(self.unit), str(self.lane),
                str(self.rep), str(self.seed), repr(self.accuracy), repr(self.drop)]


@dataclass
class CampaignResult:
    baseline: float
    records: list[RunRecord]
    groups: dict[tuple[int, int], dict[str, float]] = field(default_factory=dict)
    heatmap: dict[int, np.ndarray] | None = None  # value -> (units, lanes) drops


def accuracy_drop(baseline: float, faulty: float) -> float:
    """baseline - faulty; negative when a fault accidentally helps."""
    for name, v in (("baseline", baseline), ("faulty", faulty)):
        if not 0.0 <= v <= 1.0:
            raise OutOfRange(f"{name} accuracy {v!r} outside [0, 1]")
    return baseline - faulty


def _quantile(sorted_vals: list[float], q: float) -> float:
    pos = (len(sorted_vals) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(sorted_vals[lo])
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def five_number_summary(values) -> dict[str, float]:
    vals = sorted(float(v) for v in values)
    if not vals:
        raise EmptyGroup("cannot summarize an empty group")
    return {
        "min": vals[0],
        "q1": _quantile(vals, 0.25),
        "median": _quantile(vals, 0.5),
        "q3": _quantile(vals, 0.75),
        "max": vals[-1],
    }


def summarize_boxplot(records) -> dict[tuple[int, int], dict[str, float]]:
    """Five-number summaries of drops, grouped by (k, value), sorted by k
    then value. Baseline records are excluded."""
    groups: dict[tuple[int, int], list[float]] = {}
    for rec in records:
        if rec.kind == "baseline":
            continue
        groups.setdefault((rec.k, rec.value), []).append(rec.drop)
    return {key: five_number_summary(groups[key]) for key in sorted(groups)}


def _slice_indices(dataset: Dataset, offset: int, count: int | None) -> range:
    n = len(dataset)
    stop = n if count is None else min(n, offset + count)
    idx = range(offset, stop)
    if len(idx) == 0:
        raise EmptyDataset(f"dataset slice ({offset}, {count}) selects no samples")
    return idx


def evaluate_accuracy(plan: ExecutionPlan, dataset: Dataset, indices,
                      faults: FaultMap | Sequence[FaultMap] | None = None
                      ) -> float | list[float]:
    """Fraction of slice samples whose argmax class matches the label.

    ``faults`` is None (fault-free) or one FaultMap, giving one float, or a
    sequence of FaultMaps, giving one float per map in order; a sequence is
    evaluated together by macarray.batch_logits.
    """
    if dataset.scale != plan.input_scale:
        raise ShapeError(f"input scale {dataset.scale!r} does not match plan {plan.input_scale!r}")
    single = faults is None or isinstance(faults, FaultMap)
    if faults is None:
        faults = FaultMap(plan.cfg.units, plan.cfg.lanes)
    maps = [faults] if single else list(faults)
    idx = np.asarray(indices, dtype=np.intp)
    logits = batch_logits(plan, dataset.samples[idx], maps)
    # argmax picks the smallest index attaining the maximum, as classify_argmax does.
    correct = np.count_nonzero(logits.argmax(axis=2) == dataset.labels[idx], axis=1)
    accs = [int(c) / len(idx) for c in correct]
    return accs[0] if single else accs


def _pool_size(workers: int | None) -> int:
    """Thread count for a campaign; None means the CPUs this process may run on."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise OutOfRange(f"workers must be >= 1, got {workers}")
    return workers


def _evaluate_runs(plan: ExecutionPlan, dataset: Dataset, idx, maps: list[FaultMap],
                   workers: int) -> list[float]:
    """Accuracy per map, in order: the maps are split into min(workers, runs)
    contiguous chunks, each one pool job and one evaluate_accuracy call."""
    n = min(workers, len(maps))
    chunks = [maps[len(maps) * i // n : len(maps) * (i + 1) // n] for i in range(n)]
    # Looked up through the module at call time, so wrappers installed on
    # macfi.campaign.evaluate_accuracy see every chunk.
    jobs = [lambda chunk=chunk: evaluate_accuracy(plan, dataset, idx, chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # pool.map returns results in submission order, i.e. job order.
        return [acc for accs in pool.map(lambda fn: fn(), jobs) for acc in accs]


def run_fault_sweep(spec: SweepSpec, plan: ExecutionPlan, dataset: Dataset,
                    workers: int | None = None) -> CampaignResult:
    """Experiment 1: k random lanes faulted with each error value, repeated.

    Value 0 is realized as StuckZero, any other value as Constant(value).
    """
    workers = _pool_size(workers)
    cfg = plan.cfg
    idx = _slice_indices(dataset, spec.slice_offset, spec.slice_count)
    keys = [(k, v, r, derive_seed(spec.master_seed, k, v, r))
            for k in spec.k_values for v in spec.error_values for r in range(spec.reps)]
    templates = {v: fault_for_error_value(v) for v in spec.error_values}
    maps = sample_random_fault_maps([k for k, _, _, _ in keys],
                                    [templates[v] for _, v, _, _ in keys],
                                    [seed for _, _, _, seed in keys], cfg.units, cfg.lanes)
    baseline = evaluate_accuracy(plan, dataset, idx)
    accs = _evaluate_runs(plan, dataset, idx, maps, workers)
    records = [RunRecord("sweep", k, v, -1, -1, r, seed, acc, baseline - acc, fmap.digest())
               for (k, v, r, seed), fmap, acc in zip(keys, maps, accs)]
    records.append(RunRecord("baseline", 0, 0, -1, -1, 0, 0, baseline, 0.0,
                             FaultMap(cfg.units, cfg.lanes).digest()))
    records.sort(key=RunRecord.sort_key)
    return CampaignResult(baseline, records, summarize_boxplot(records))


def run_heatmap(values, plan: ExecutionPlan, dataset: Dataset,
                workers: int | None = None,
                slice_offset: int = 0, slice_count: int | None = None) -> CampaignResult:
    """Experiment 2: every (unit, lane) faulted in turn with each value;
    exhaustive and seedless. Value 0 is realized as StuckZero."""
    workers = _pool_size(workers)
    values = [int(v) for v in values]
    if not values:
        raise EmptyGroup("heatmap needs at least one error value")
    for v in values:
        if not (LANE_VALUE_MIN <= v <= LANE_VALUE_MAX):
            raise OutOfRange(f"error value {v} outside 18-bit signed range")
    cfg = plan.cfg
    idx = _slice_indices(dataset, slice_offset, slice_count)
    baseline = evaluate_accuracy(plan, dataset, idx)
    keys = [(v, u, l) for v in values for u in range(cfg.units) for l in range(cfg.lanes)]
    maps = [single_lane_map(u, l, fault_for_error_value(v), cfg.units, cfg.lanes)
            for v, u, l in keys]
    accs = _evaluate_runs(plan, dataset, idx, maps, workers)
    records = [RunRecord("heatmap", 1, v, u, l, 0, 0, acc, baseline - acc, fmap.digest())
               for (v, u, l), fmap, acc in zip(keys, maps, accs)]
    heatmap = {v: np.zeros((cfg.units, cfg.lanes), dtype=np.float64) for v in values}
    for rec in records:
        heatmap[rec.value][rec.unit, rec.lane] = rec.drop
    records.append(RunRecord("baseline", 0, 0, -1, -1, 0, 0, baseline, 0.0,
                             FaultMap(cfg.units, cfg.lanes).digest()))
    records.sort(key=RunRecord.sort_key)
    return CampaignResult(baseline, records, summarize_boxplot(records), heatmap)


# ---------------------------------------------------------------------------
# CSV serialization (records round-trip exactly; floats via repr)
# ---------------------------------------------------------------------------

def results_to_csv(result: CampaignResult) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(RESULTS_HEADER)
    for rec in result.records:
        w.writerow(rec.csv_row())
    return buf.getvalue()


def parse_results_csv(text: str) -> CampaignResult:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != RESULTS_HEADER:
        raise SchemaError("results CSV missing header row")
    records = []
    baseline = 0.0
    for row in rows[1:]:
        kind, k, value, unit, lane, rep, seed, acc, drop = row
        rec = RunRecord(kind, int(k), int(value), int(unit), int(lane),
                        int(rep), int(seed), float(acc), float(drop))
        if rec.kind == "baseline":
            baseline = rec.accuracy
        records.append(rec)
    result = CampaignResult(baseline, records, summarize_boxplot(records))
    heat_recs = [r for r in records if r.kind == "heatmap"]
    if heat_recs:
        units = max(r.unit for r in heat_recs) + 1
        lanes = max(r.lane for r in heat_recs) + 1
        heatmap = {}
        for r in heat_recs:
            grid = heatmap.setdefault(r.value, np.zeros((units, lanes)))
            grid[r.unit, r.lane] = r.drop
        result.heatmap = heatmap
    return result


def summary_to_csv(groups: dict[tuple[int, int], dict[str, float]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SUMMARY_HEADER)
    for (k, value) in sorted(groups):
        g = groups[(k, value)]
        w.writerow([str(k), str(value)] + [repr(g[f]) for f in ("min", "q1", "median", "q3", "max")])
    return buf.getvalue()


def parse_summary_csv(text: str) -> dict[tuple[int, int], dict[str, float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SUMMARY_HEADER:
        raise SchemaError("summary CSV missing header row")
    groups = {}
    for row in rows[1:]:
        k, value = int(row[0]), int(row[1])
        groups[(k, value)] = dict(zip(("min", "q1", "median", "q3", "max"),
                                      (float(x) for x in row[2:])))
    return groups
