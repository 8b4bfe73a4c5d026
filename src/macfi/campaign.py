"""Seeded fault-injection campaigns and their aggregate statistics.

Reproducibility contract: every run's fault map comes from a seed derived as
derive_seed(master, k, value, rep), for a sweep's whole job grid in one uint64
pass. A campaign builds all of its maps in job order as one FaultTable, rows
of four (runs, units * lanes) kernel blocks, and evaluates them in one
evaluate_accuracy call (batched in macarray.batch_logits, which reads the
blocks). In a sweep, equal maps (the same bytes in all four blocks) form one
class: the class's first map is evaluated and digested once, in order of first
appearance, and its accuracy, drop and digest are scattered back to every job
of the class, so records equal those of evaluating every map alone. Digests
are made in one pass over the distinct maps' table. A drop is baseline minus
accuracy. A campaign's integers are ints or numpy integers, never bools, and
its k values and error values are distinct. A sweep or heatmap whose grid is
empty, or whose runs would not fit in host memory, is refused before any seed
or map is made. Both kinds share one core: one baseline call, one call over the
distinct maps, one record per job, and one result built from the records, as
parse_results_csv builds it. Records are sorted deterministically before
serialization, so results never depend on block size, and the accepted workers
argument changes neither results nor scheduling.
Quantiles are linear interpolation between order statistics (position (n-1)*q),
matching numpy's default method.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import EmptyDataset, EmptyGroup, OutOfRange, SchemaError, ShapeError
from .faultctl import (
    LANE_VALUE_MAX,
    LANE_VALUE_MIN,
    FaultMap,
    FaultTable,
    derive_seed,
    fault_for_error_value,
    fault_map_rows,
    sample_random_fault_map,  # unused here, but perfbench wraps it by this name
    sample_random_fault_maps,
    single_lane_map,  # likewise
)
from .macarray import batch_logits
from .model import Dataset
from .planner import ExecutionPlan, host_memory

RESULTS_HEADER = ["kind", "k", "value", "unit", "lane", "rep", "seed", "accuracy", "drop"]
SUMMARY_HEADER = ["k", "value", "min", "q1", "median", "q3", "max"]

_KIND_ORDER = {"baseline": 0, "heatmap": 1, "sweep": 2}


def _int(name: str, v, low: float = -math.inf, high: float = math.inf) -> int:
    """v, an int or numpy integer but no bool, as an int in [low, high]."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise OutOfRange(f"{name} must be an integer, got {v!r}")
    if not low <= v <= high:
        raise OutOfRange(f"{name} {v} outside [{low}, {high}]")
    return int(v)


def _ints(name: str, values, low: float, high: float = math.inf) -> tuple[int, ...]:
    """Distinct _int values: a repeated entry's runs would be made twice."""
    values = tuple(_int(name, v, low, high) for v in values)
    repeated = [v for v, n in Counter(values).items() if n > 1]
    if repeated:
        raise OutOfRange(f"{name} {repeated[0]} given more than once")
    return values


def _slice(offset, count) -> tuple[int, int | None]:
    return _int("slice offset", offset, 0), None if count is None else _int("slice count", count, 1)


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
        checked = (_ints("k value", self.k_values, 0),
                   _ints("error value", self.error_values, LANE_VALUE_MIN, LANE_VALUE_MAX),
                   _int("reps", self.reps, 1), _int("master seed", self.master_seed),
                   *_slice(self.slice_offset, self.slice_count))
        for f, value in zip(fields(self), checked):  # in declaration order
            object.__setattr__(self, f.name, value)


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
    offset, count = _slice(offset, count)
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
    sequence of FaultMaps, such as a FaultTable, giving one float per map
    in order; a sequence is evaluated together by macarray.batch_logits.
    """
    if dataset.scale != plan.input_scale:
        raise ShapeError(f"input scale {dataset.scale!r} does not match plan {plan.input_scale!r}")
    single = faults is None or isinstance(faults, FaultMap)
    if faults is None:
        faults = FaultMap(plan.cfg.units, plan.cfg.lanes)
    maps = [faults] if single else faults
    idx = np.asarray(indices, dtype=np.intp)
    logits = batch_logits(plan, dataset.samples[idx], maps)
    # argmax picks the smallest index attaining the maximum, as classify_argmax does.
    correct = np.count_nonzero(logits.argmax(axis=2) == dataset.labels[idx], axis=1)
    accs = [int(c) / len(idx) for c in correct]
    return accs[0] if single else accs


def _check_workers(workers: int | None):
    """Checks workers, None or an _int of at least 1, which no longer
    changes how a campaign runs."""
    if workers is not None and _int("workers", workers) < 1:
        raise OutOfRange(f"workers must be >= 1, got {workers}")


# Bytes a campaign holds per run at its peak for its job grid, seeds, fault
# table, class keys and records, whatever the plan: tracemalloc peaks of desk
# and wide-model sweeps, less _run_bytes' other terms, read at most 5.9 KB a
# run at 2000 runs and at most 5.4 KB a run between 500 and 2000 runs with a
# FaultMap per run; with one fault table, desk reads 4.9 and 3.5 KB.
_RUN_BYTES = 8 << 10


def _run_bytes(plan: ExecutionPlan, samples: int) -> int:
    """Upper bound on the bytes a campaign over ``samples`` samples holds per
    run at its peak: _RUN_BYTES, each MAC layer's (Cout, Cin) lane-keep mask
    and Cout constants with their temporaries, which batch_logits keeps for
    every run at once, and per sample two int8 logit rows, an int64 argmax
    and a bool match."""
    layers = sum(p.out_shape[0] * (p.in_shape[0] + 32) for p in plan.programs if p.is_mac)
    return _RUN_BYTES + layers + samples * (2 * plan.classes + 9)


def _check_grid(kind: str, runs: int, plan: ExecutionPlan, idx: range):
    """Refuses a grid of ``runs`` runs before any seed or map is made: an
    empty one, and one whose runs cannot fit in host memory."""
    if runs == 0:
        raise EmptyGroup(f"a {kind} needs at least one run")
    if runs * _run_bytes(plan, len(idx)) > host_memory():
        raise OutOfRange(f"a {kind} of {runs} runs cannot fit in host memory")


def _campaign(kind: str, jobs, job_class, distinct: FaultTable, plan: ExecutionPlan,
              dataset: Dataset, idx: range) -> list[RunRecord]:
    """Evaluates the baseline, then all distinct maps in one call; returns the
    sorted records: the baseline's, and one per job from its (k, value, unit,
    lane, rep, seed) and its class's row in distinct."""
    baseline = evaluate_accuracy(plan, dataset, idx)
    accs = evaluate_accuracy(plan, dataset, idx, distinct)
    classes = list(zip(accs, [baseline - a for a in accs], distinct.digests()))
    records = [RunRecord(kind, k, v, u, l, r, seed, *classes[c])
               for (k, v, u, l, r, seed), c in zip(jobs, job_class)]
    records.append(RunRecord("baseline", 0, 0, -1, -1, 0, 0, baseline, 0.0,
                             FaultMap(plan.cfg.units, plan.cfg.lanes).digest()))
    records.sort(key=RunRecord.sort_key)
    return records


def _result(records: list[RunRecord]) -> CampaignResult:
    """The campaign result of ``records``: the baseline record's accuracy
    (0.0 without one), the boxplot groups and, when any record is a heatmap
    run, a (units, lanes) drop grid per value."""
    baseline = next((r.accuracy for r in records if r.kind == "baseline"), 0.0)
    heat = [r for r in records if r.kind == "heatmap"]
    grids = None
    if heat:
        shape = (max(r.unit for r in heat) + 1, max(r.lane for r in heat) + 1)
        grids = {}
        for r in heat:
            grids.setdefault(r.value, np.zeros(shape))[r.unit, r.lane] = r.drop
    return CampaignResult(baseline, records, summarize_boxplot(records), grids)


def run_fault_sweep(spec: SweepSpec, plan: ExecutionPlan, dataset: Dataset,
                    workers: int | None = None) -> CampaignResult:
    """Experiment 1: k random lanes faulted with each error value, repeated.

    Value 0 is realized as StuckZero, any other value as Constant(value).
    """
    _check_workers(workers)
    cfg = plan.cfg
    idx = _slice_indices(dataset, spec.slice_offset, spec.slice_count)
    _check_grid("sweep", len(spec.k_values) * len(spec.error_values) * spec.reps, plan, idx)
    grid = [(k, v, r) for k in spec.k_values for v in spec.error_values for r in range(spec.reps)]
    seeds = derive_seed(spec.master_seed, *np.array(grid, dtype=object).reshape(-1, 3).T).tolist()
    templates = {v: fault_for_error_value(v) for v in spec.error_values}
    maps = sample_random_fault_maps([k for k, _, _ in grid], [templates[v] for _, v, _ in grid],
                                    seeds, cfg.units, cfg.lanes)
    # Equal maps form one class: its first map is evaluated and digested once.
    first, job_class = maps.classes()
    jobs = ((k, v, -1, -1, r, seed) for (k, v, r), seed in zip(grid, seeds))
    return _result(_campaign("sweep", jobs, job_class.tolist(), maps.take(first), plan,
                             dataset, idx))


def run_heatmap(values, plan: ExecutionPlan, dataset: Dataset,
                workers: int | None = None,
                slice_offset: int = 0, slice_count: int | None = None) -> CampaignResult:
    """Experiment 2: every (unit, lane) faulted in turn with each value;
    exhaustive and seedless. Value 0 is realized as StuckZero."""
    _check_workers(workers)
    values = _ints("error value", values, LANE_VALUE_MIN, LANE_VALUE_MAX)
    cfg = plan.cfg
    idx = _slice_indices(dataset, slice_offset, slice_count)
    _check_grid("heatmap", len(values) * cfg.units * cfg.lanes, plan, idx)
    keys = [(v, u, l) for v in values for u in range(cfg.units) for l in range(cfg.lanes)]
    templates = {v: fault_for_error_value(v) for v in values}
    cells = np.tile(np.arange(cfg.units * cfg.lanes), len(values))  # flat index u * lanes + l
    maps = fault_map_rows(np.arange(len(keys)), cells, [templates[v] for v, _, _ in keys],
                          cfg.units, cfg.lanes)
    # Heatmap maps are distinct by construction: each is its own class.
    jobs = ((1, v, u, l, 0, 0) for v, u, l in keys)
    return _result(_campaign("heatmap", jobs, range(len(maps)), maps, plan, dataset, idx))


# ---------------------------------------------------------------------------
# CSV serialization (records round-trip exactly; floats via repr)
# ---------------------------------------------------------------------------

def results_to_csv(result: CampaignResult) -> str:
    """The results CSV, as csv.writer with "\n" line ends writes it: no field
    of a record needs quoting (kinds are words, the rest ints and float reprs)."""
    return "".join([",".join(row) + "\n"
                    for row in (RESULTS_HEADER, *(rec.csv_row() for rec in result.records))])


def parse_results_csv(text: str) -> CampaignResult:
    """The campaign result of a results CSV; a malformed row is a
    SchemaError naming its line, and so is a row that contradicts another:
    a second baseline row, a repeated (kind, k, value, unit, lane, rep)
    key, or, once every row is read, a drop that is not exactly the
    baseline's accuracy minus the row's (campaigns write both by repr).
    Run rows without a baseline row are refused at the first of them."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != RESULTS_HEADER:
        raise SchemaError("results CSV missing header row")
    records, line_of = [], {}  # sort key -> its line
    baseline_line = None
    for row in reader:
        where = f"results CSV line {reader.line_num}"
        if len(row) != len(RESULTS_HEADER):
            raise SchemaError(f"{where}: {len(row)} fields, expected {len(RESULTS_HEADER)}")
        kind, *ints, acc, drop = row
        if kind not in _KIND_ORDER:
            raise SchemaError(f"{where}: unknown kind {kind!r}")
        try:
            rec = RunRecord(kind, *map(int, ints), float(acc), float(drop))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        if kind == "heatmap" and min(rec.unit, rec.lane) < 0:  # indices into its grid
            raise SchemaError(f"{where}: heatmap unit {rec.unit} or lane {rec.lane} is negative")
        if kind == "baseline":
            if baseline_line is not None:
                raise SchemaError(f"{where}: a second baseline row (the first is on line "
                                  f"{baseline_line})")
            baseline_line = reader.line_num
        line = line_of.setdefault(rec.sort_key(), reader.line_num)
        if line != reader.line_num:
            raise SchemaError(f"{where}: {kind} (k, value, unit, lane, rep) "
                              f"{rec.sort_key()[1:]} repeats line {line}")
        records.append(rec)
    if records and baseline_line is None:
        raise SchemaError(f"results CSV line {line_of[records[0].sort_key()]}: a run row, "
                          "but no baseline row")
    result = _result(records)
    for rec in records:
        if rec.drop != result.baseline - rec.accuracy:
            raise SchemaError(f"results CSV line {line_of[rec.sort_key()]}: drop {rec.drop!r} "
                              f"is not baseline {result.baseline!r} - accuracy {rec.accuracy!r}")
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
