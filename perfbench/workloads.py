"""The benchmark's workloads: set-up, closed-loop requests, checks and traced runs.

Every workload is closed-loop from one process: the next request starts when
the previous one has finished. A request is one fault-free ``Emulator.run``
on ``desk-infer`` and one whole campaign (baseline pass, fault runs,
results.csv/summary.csv and the SVG report, as ``macfi campaign`` does it)
on the campaign workloads. Campaign thread pools use one worker per CPU.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

import macfi.campaign as campaign_mod
import macfi.macarray as macarray_mod
from macfi import (Emulator, FaultMap, SplitMix64, SweepSpec, classify_argmax, derive_seed,
                   load_dataset, load_model, plan_model, plan_stats, reference_forward,
                   run_fault_sweep, run_heatmap, sample_random_fault_map)
from macfi.faultctl import fault_for_error_value, single_lane_map
from macfi.model import INPUT_ID
from macfi.qtensor import ref_execute_layer
from macfi.report import boxplot_svg, heatmap_svg

from spans import NULL, Tracer, attributed_ns, patched

HEATMAP_VALUES = (0, 131071, -131072)
SWEEP_K = (1, 4, 16, 64)
SWEEP_VALUES = (0, 1, -1, 131071)
SWEEP_REPS = 10
SETUP_REPEATS = 5  # traced set-ups behind model.load_ms and planner.plan_ms
NON_MAC_KINDS = ("relu", "maxpool", "add", "gavgpool")


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "desk" (bundled) or "wide" (seeded, see inputs.py)
    samples: int  # dataset size: one warm-up pass, and the slice every campaign run evaluates
    campaign: str | None  # None, "heatmap" or "sweep"
    oracle_runs: int  # campaign runs recomputed by the object-level oracle


WORKLOADS = {
    "desk-infer": Workload("desk-infer", "desk", 64, None, 0),
    "wide-heatmap": Workload("wide-heatmap", "wide", 2, "heatmap", 2),
    "desk-sweep": Workload("desk-sweep", "desk", 8, "sweep", 4),
}


class Checks:
    """Counts checked outputs and the ones that mismatched their oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


@dataclass
class Loaded:
    graph: object
    dataset: object
    plan: object
    emu: Emulator


def setup(files, wl: Workload, tracer=NULL) -> Loaded:
    """What a user pays before the first request: load, plan, build, warm up."""
    with tracer.span("setup"):
        with tracer.span("model.load"):
            g = load_model(files.manifest, files.weights)
            ds = load_dataset(files.dataset)
        with tracer.span("planner.plan"):
            plan = plan_model(g)
        emu = Emulator(plan)
        with tracer.span("warmup"):
            for i in range(len(ds)):
                emu.run(ds.sample(i))
    return Loaded(g, ds, plan, emu)


def idle_slot_ratio(plan) -> float:
    """Share of the plan's lane slots that carry no operands."""
    return plan_stats(plan).idle_slots / (plan.total_micro_ops * plan.cfg.lanes)


def golden_logits(ctx: Loaded) -> list[np.ndarray]:
    """Reference-pipeline logits per sample, computed outside any timed region."""
    return [reference_forward(ctx.graph, ctx.dataset.sample(i))[1]
            for i in range(len(ctx.dataset))]


# ---------------------------------------------------------------------------
# desk-infer: single fault-free inferences
# ---------------------------------------------------------------------------

def infer_loop(ctx: Loaded, golden, seconds: float, checks: Checks) -> list[int]:
    """Closed loop of Emulator.run over whole dataset passes for ``seconds``; ns per call."""
    emu, cycles = ctx.emu, ctx.plan.total_micro_ops
    inputs = [ctx.dataset.sample(i) for i in range(len(ctx.dataset))]
    latencies: list[int] = []
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        for i, x in enumerate(inputs):
            t0 = time.perf_counter_ns()
            res = emu.run(x)
            latencies.append(time.perf_counter_ns() - t0)
            checks.expect(res.cycles == cycles and np.array_equal(res.logits, golden[i]),
                          f"sample {i}: logits or cycles differ from the reference")
    return latencies


def replay(ctx: Loaded, x, tracer: Tracer):
    """One inference layer by layer over plan.programs, each layer in a span.

    Mirrors Emulator.run through the emulator's public per-layer entry point;
    callers compare its logits and cycles with Emulator.run's.
    """
    emu, plan = ctx.emu, ctx.plan
    emu.cycle = 0
    env = {INPUT_ID: x}
    with tracer.span("infer"):
        for prog in plan.programs:
            layer = prog.layer
            if prog.is_mac:
                with tracer.span(f"macarray.{layer.id}"):
                    out = emu.run_layer_program(prog, env[layer.inputs[0]])
            else:
                with tracer.span(f"qtensor.{layer.kind}"):
                    out = ref_execute_layer(layer, [env[i] for i in layer.inputs])
            env[layer.id] = out
    return env[plan.output].data.reshape(-1), emu.cycle


def layer_split(ctx: Loaded, golden, budget: float, tracer: Tracer, checks: Checks) -> dict:
    """Passes of untraced Emulator.run over the samples, each followed by the
    same inferences replayed with per-layer spans, for ``budget`` seconds.
    During a replay the kernel and requantize calls inside each MAC layer get
    spans of their own."""
    inputs = [ctx.dataset.sample(i) for i in range(len(ctx.dataset))]
    kernel = macarray_mod.get_kernel()
    kernel_span = lambda *a, **k: "kernel." + tracer.current_name().split(".", 1)[1]
    wrappers = ((kernel, "run_program", tracer.wrap(kernel.run_program, kernel_span)),
                (macarray_mod, "requantize_array",
                 tracer.wrap(macarray_mod.requantize_array, "qtensor.requantize")))
    inferences, untraced = 0, 0
    deadline = time.perf_counter() + budget
    while not inferences or time.perf_counter() < deadline:
        expected = []
        for x in inputs:
            t0 = time.perf_counter_ns()
            res = ctx.emu.run(x)
            untraced += time.perf_counter_ns() - t0
            expected.append(res)
        with patched(*wrappers):
            for i, (x, res) in enumerate(zip(inputs, expected)):
                logits, cycles = replay(ctx, x, tracer)
                checks.expect(cycles == res.cycles and np.array_equal(logits, res.logits)
                              and np.array_equal(logits, golden[i]),
                              f"replay of sample {i} differs from Emulator.run")
        inferences += len(inputs)
    return {"inferences": inferences, "untraced_ns": untraced}


# ---------------------------------------------------------------------------
# Campaign workloads
# ---------------------------------------------------------------------------

def run_campaign(kind: str, ctx: Loaded, seed: int, slice_count: int, workers: int,
                 out_dir: str, tracer=NULL, reps: int = SWEEP_REPS):
    """One campaign as `macfi campaign` runs it; returns (result, results.csv text)."""
    plan, ds = ctx.plan, ctx.dataset
    with tracer.span("campaign"):
        if kind == "heatmap":
            result = run_heatmap(HEATMAP_VALUES, plan, ds, workers=workers,
                                 slice_offset=0, slice_count=slice_count)
        else:
            spec = SweepSpec(SWEEP_K, SWEEP_VALUES, reps, seed, 0, slice_count)
            result = run_fault_sweep(spec, plan, ds, workers=workers)
        with tracer.span("campaign.write"):
            results_csv = campaign_mod.results_to_csv(result)
            _write(out_dir, "results.csv", results_csv)
            _write(out_dir, "summary.csv", campaign_mod.summary_to_csv(result.groups))
        with tracer.span("report.svg"):
            if kind == "heatmap":
                for v in HEATMAP_VALUES:
                    _write(out_dir, f"heatmap_{v}.svg",
                           heatmap_svg(result.heatmap[v], f"accuracy drop, injected value {v}"))
            else:
                _write(out_dir, "boxplot.svg",
                       boxplot_svg(result.groups, "accuracy drop vs faulted lanes"))
    return result, results_csv


def _write(out_dir: str, name: str, text: str):
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fault_runs(result) -> list:
    return [r for r in result.records if r.kind != "baseline"]


def masked_count(result) -> int:
    return sum(r.drop == 0.0 for r in fault_runs(result))


def check_campaign(result, digest: str, expected_digest: str, checks: Checks):
    checks.expect(result.baseline == 1.0, f"baseline accuracy {result.baseline!r}, expected 1.0")
    checks.expect(digest == expected_digest, "results.csv differs from the first campaign's")


def oracle_check(wl: Workload, ctx: Loaded, result, seed: int, checks: Checks):
    """Recompute a seeded handful of runs, half propagated and half masked where
    possible, with the object-level traced emulator and compare accuracies."""
    runs = fault_runs(result)
    pools = [[r for r in runs if r.drop != 0.0], [r for r in runs if r.drop == 0.0]]
    rng = SplitMix64(derive_seed(seed, 3))
    cfg = ctx.plan.cfg
    for j in range(wl.oracle_runs):
        pool = pools[j % 2] or pools[(j + 1) % 2]
        rec = pool.pop(rng.bounded(len(pool)))
        fault = fault_for_error_value(rec.value)
        if rec.kind == "heatmap":
            fmap = single_lane_map(rec.unit, rec.lane, fault, cfg.units, cfg.lanes)
        else:
            fmap = sample_random_fault_map(rec.k, fault, rec.seed, cfg.units, cfg.lanes)
        checks.expect(fmap.digest() == rec.digest, f"fault map of run {rec.csv_row()} not rebuilt")
        emu = Emulator(ctx.plan, fmap, trace=True)
        n = len(ctx.dataset)
        correct = sum(classify_argmax(emu.run(ctx.dataset.sample(i)).logits)
                      == int(ctx.dataset.labels[i]) for i in range(n))
        checks.expect(correct / n == rec.accuracy,
                      f"oracle accuracy differs for run {rec.csv_row()}")


def traced_campaigns(kind: str, ctx: Loaded, seed: int, slice_count: int, workers: int,
                     count: int, out_dir: str, tracer: Tracer, reps: int = SWEEP_REPS):
    """``count`` campaigns with the public functions macfi.campaign calls wrapped in spans."""
    def eval_span(plan, dataset, indices, faults=None, kernel=None):
        return "campaign.baseline" if faults is None else "campaign.run"

    with patched(
        (campaign_mod, "evaluate_accuracy", tracer.wrap(campaign_mod.evaluate_accuracy, eval_span)),
        (campaign_mod, "sample_random_fault_map",
         tracer.wrap(campaign_mod.sample_random_fault_map, "faultctl.sample")),
        (campaign_mod, "single_lane_map", tracer.wrap(campaign_mod.single_lane_map, "faultctl.map")),
        (FaultMap, "to_arrays", tracer.wrap(FaultMap.to_arrays, "faultctl.to_arrays")),
    ):
        return [run_campaign(kind, ctx, seed, slice_count, workers, out_dir, tracer, reps)
                for _ in range(count)]


def paired_campaigns(wl: Workload, ctx: Loaded, seed: int, workers: int, budget: float,
                     out_dir: str, tracer: Tracer, checks: Checks):
    """A warm-up campaign, then untraced and traced campaigns in alternation for
    ``budget`` seconds; returns (untraced ns, traced (result, csv) pairs)."""
    _, text = run_campaign(wl.campaign, ctx, seed, wl.samples, workers, out_dir)
    expected = sha256(text)
    untraced_ns, traced = 0, []
    deadline = time.perf_counter() + budget
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        result, text = run_campaign(wl.campaign, ctx, seed, wl.samples, workers, out_dir)
        untraced_ns += time.perf_counter_ns() - t0
        check_campaign(result, sha256(text), expected, checks)
        traced += traced_campaigns(wl.campaign, ctx, seed, wl.samples, workers, 1,
                                   out_dir, tracer)
        check_campaign(traced[-1][0], sha256(traced[-1][1]), expected, checks)
    return untraced_ns, traced


def campaign_metrics(tracer: Tracer, results, workers: int) -> dict:
    walls = tracer.durations_ns("campaign")
    runs = sum(len(fault_runs(r)) for r, _ in results)
    return {
        "campaign.baseline_ms": statistics.fmean(tracer.durations_ns("campaign.baseline")) / 1e6,
        "campaign.run_ms": statistics.fmean(tracer.durations_ns("campaign.run")) / 1e6,
        "campaign.write_ms": tracer.total_ns("campaign.write") / len(walls) / 1e6,
        "report.svg_ms": tracer.total_ns("report.svg") / len(walls) / 1e6,
        "campaign.parallel_efficiency":
            tracer.total_ns("campaign.run") / (sum(walls) * workers),
        "campaign.masked_ratio": sum(masked_count(r) for r, _ in results) / runs,
    }


# ---------------------------------------------------------------------------
# Per-module probes for the traced run
# ---------------------------------------------------------------------------

def kernel_ns_per_micro_op(ctx: Loaded, budget: float, checks: Checks) -> dict:
    """Bare run_program time per micro-op for each backend present, on the
    workload's own MAC layers and inputs; the backends must agree bit for bit."""
    res = ctx.emu.run(ctx.dataset.sample(0))
    env = {INPUT_ID: ctx.dataset.sample(0), **res.outputs}
    progs = [p for p in ctx.plan.programs if p.is_mac]
    args = [(p, np.ascontiguousarray(env[p.layer.inputs[0]].data).reshape(-1)) for p in progs]
    farr = FaultMap(ctx.plan.cfg.units, ctx.plan.cfg.lanes).to_arrays()
    lanes, micro_ops = ctx.plan.cfg.lanes, sum(p.n_ops for p in progs)
    out, accs = {}, {}
    for backend in macarray_mod.available_backends():
        kernel = macarray_mod.get_kernel(backend)
        spent, rounds = 0, 0
        deadline = time.perf_counter() + budget
        while rounds < 3 or time.perf_counter() < deadline:
            accs[backend] = []
            for prog, x_flat in args:
                acc = np.repeat(prog.bias, prog.out_shape[1] * prog.out_shape[2])
                pk = prog.packed
                t0 = time.perf_counter_ns()
                kernel.run_program(pk.unit, pk.dest, pk.act_idx, pk.w_idx, x_flat,
                                   prog.weights_flat, acc, *farr, lanes, 0)
                spent += time.perf_counter_ns() - t0
                accs[backend].append(acc)
            rounds += 1
        out[f"kernel.{backend}.ns_per_micro_op"] = spent / (rounds * micro_ops)
    ref = accs["python"]
    for backend, got in accs.items():
        checks.expect(all(np.array_equal(a, b) for a, b in zip(got, ref)),
                      f"{backend} kernel accumulators differ from the python kernel's")
    return out


def faultctl_probe(ctx: Loaded, seed: int) -> dict:
    """Per-call cost of fault-map sampling and of its kernel-array view, over
    the sweep's (k, value, rep) grid."""
    cfg = ctx.plan.cfg
    grid = [(k, v, r) for k in SWEEP_K for v in SWEEP_VALUES for r in range(SWEEP_REPS)]
    maps, t0 = [], time.perf_counter_ns()
    for k, v, r in grid:
        maps.append(sample_random_fault_map(k, fault_for_error_value(v),
                                            derive_seed(seed, k, v, r), cfg.units, cfg.lanes))
    t1 = time.perf_counter_ns()
    for fmap in maps:
        fmap.to_arrays()
    t2 = time.perf_counter_ns()
    return {"faultctl.sample_us": (t1 - t0) / len(grid) / 1e3,
            "faultctl.to_arrays_us": (t2 - t1) / len(grid) / 1e3}


def per_inference_metrics(split_tracer: Tracer, split: dict, plan) -> dict:
    n = split["inferences"]
    out = {"macarray.run_us": split["untraced_ns"] / n / 1e3}
    wrapper = 0.0
    for prog in plan.programs:
        lid = prog.layer.id
        if prog.is_mac:
            layer_us = split_tracer.total_ns(f"macarray.{lid}") / n / 1e3
            kernel_us = split_tracer.total_ns(f"kernel.{lid}") / n / 1e3
            out[f"macarray.{lid}.us"], out[f"kernel.{lid}.us"] = layer_us, kernel_us
            wrapper += layer_us - kernel_us
    out["macarray.wrapper_us"] = wrapper
    for kind in NON_MAC_KINDS:
        out[f"qtensor.{kind}.us"] = split_tracer.total_ns(f"qtensor.{kind}") / n / 1e3
    out["qtensor.requantize_us"] = split_tracer.total_ns("qtensor.requantize") / n / 1e3
    return out


def accounting(tracer: Tracer, untraced_ns: int) -> tuple[float, list[tuple[str, float]]]:
    """(traced wall / untraced wall, attributed self time per span name in ns)."""
    attributed = attributed_ns(tracer.spans)
    traced = sum(s.end - s.start for s in tracer.spans if s.parent == -1)
    return traced / untraced_ns, sorted(attributed.items(), key=lambda kv: -kv[1])
