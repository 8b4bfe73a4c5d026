"""Command-line interface: single inferences, fault campaigns, plan dumps.

Exit codes: 0 success, 2 bad input (model/dataset/fault-spec/flags), 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import campaign as camp
from .errors import EmptyDataset, MacfiError, OutOfRange, SchemaError, ShapeError
from .faultctl import FaultMap, ascii_int, parse_fault_spec
from .macarray import batch_logits, default_backend
from .model import load_dataset, load_model
from .planner import dump_plan, plan_model, plan_stats
from .report import boxplot_svg, heatmap_svg


def _int_list(text: str) -> list[int]:
    try:
        vals = [ascii_int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"expected a comma-separated int list, got {text!r}") from exc
    if not vals:
        raise SchemaError(f"expected a comma-separated int list, got {text!r}")
    return vals


def _slice_pair(text: str) -> tuple[int, int]:
    try:  # a field count other than two is a ValueError too
        off, count = (ascii_int(t) for t in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"--slice wants off,count, got {text!r}") from exc
    return off, count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="macfi",
        description="MAC-array CNN emulator with per-multiplier fault injection",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_model_flags(sp, dataset: bool):
        sp.add_argument("--model", required=True, help="model manifest (JSON)")
        sp.add_argument("--weights", required=True, help="weights blob (int8 + int32 bias)")
        if dataset:
            sp.add_argument("--dataset", required=True, help="QDS1 dataset file")

    sp = sub.add_parser("infer", help="run inference, print per-sample predictions")
    add_model_flags(sp, dataset=True)
    sp.add_argument("--faults", help="fault-spec file: unit,lane,mode[,value[,start,len]]")
    sp.add_argument("--sample", type=ascii_int, help="run a single sample index instead of all")
    sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("campaign", help="run a fault-injection campaign")
    add_model_flags(sp, dataset=True)
    sp.add_argument("--mode", choices=("sweep", "heatmap"), required=True)
    sp.add_argument("--k", help="comma list of fault counts (sweep mode)")
    sp.add_argument("--values", default="0,1,-1", help="comma list of injected values")
    sp.add_argument("--reps", type=ascii_int,
                    help="repetitions per (k, value) (sweep mode; default 10)")
    sp.add_argument("--seed", type=ascii_int, help="master seed (sweep mode; default 0)")
    sp.add_argument("--workers", type=ascii_int, default=None,
                    help="accepted for compatibility (must be >= 1); affects neither "
                         "results nor scheduling")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--slice", help="dataset slice off,count")

    sp = sub.add_parser("plan", help="dump the execution plan and its statistics")
    add_model_flags(sp, dataset=False)
    sp.add_argument("--out", help="write to this file instead of stdout")
    return p


def _load(args, with_dataset: bool):
    g = load_model(args.model, args.weights)
    plan = plan_model(g)
    ds = load_dataset(args.dataset) if with_dataset else None
    return plan, ds


def cmd_infer(args) -> int:
    plan, ds = _load(args, with_dataset=True)
    faults = FaultMap(plan.cfg.units, plan.cfg.lanes)
    if args.faults:
        try:
            with open(args.faults, "r", encoding="utf-8") as fh:
                faults = parse_fault_spec(fh.read(), plan.cfg.units, plan.cfg.lanes)
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read fault spec {args.faults}: {exc}") from exc
    if args.sample is not None and not 0 <= args.sample < len(ds):
        raise OutOfRange(f"--sample {args.sample} outside dataset of {len(ds)}")
    indices = range(len(ds)) if args.sample is None else [args.sample]
    if not indices:
        raise EmptyDataset(f"dataset {args.dataset} has no samples")
    if ds.scale != plan.input_scale:
        raise ShapeError(f"input scale {ds.scale!r} does not match plan {plan.input_scale!r}")

    if args.verbose:
        print(f"# backend={default_backend()} micro_ops_per_inference={plan.total_micro_ops}")
    t0 = time.perf_counter()  # the one batch_logits call only, not stdout
    logits = batch_logits(plan, ds.samples[indices], [faults])[0]
    elapsed = max(time.perf_counter() - t0, 1e-9)
    # argmax picks the smallest index attaining the maximum, as classify_argmax does.
    preds, labels = logits.argmax(axis=1), ds.labels[indices]
    for i, pred, label in zip(indices, preds.tolist(), labels.tolist()):
        print(f"sample={i} pred={pred} label={label}")
    accuracy = int((preds == labels).sum()) / len(indices)
    print(f"accuracy={accuracy!r} throughput_ips={len(indices) / elapsed:.1f}")
    return 0


def _write(path: str, text: str, written: list[str]):
    """Write text to path, listed in written once opened; an OSError is bad input."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            written.append(path)
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_out_dir(out: str):
    """Bad input unless ``out`` is, or can be made, a writable directory:
    its nearest existing ancestor (itself if it exists) must be a directory
    this process may write into. Creates nothing."""
    near = os.path.abspath(out)
    while not os.path.exists(near):
        near = os.path.dirname(near)
    if near == os.path.abspath(out):
        if not os.path.isdir(near):
            raise SchemaError(f"--out {out} exists and is not a directory")
    elif not os.path.isdir(near):
        raise SchemaError(f"cannot create --out {out}: {near} is not a directory")
    if not os.access(near, os.W_OK | os.X_OK):
        raise SchemaError(f"cannot write under --out {out}: {near} is not writable")


def cmd_campaign(args) -> int:
    if args.mode == "heatmap":
        for flag, value in (("--k", args.k), ("--reps", args.reps), ("--seed", args.seed)):
            if value is not None:
                raise SchemaError(f"{flag} applies to sweep mode only")
    plan, ds = _load(args, with_dataset=True)
    values = _int_list(args.values)
    off, count = _slice_pair(args.slice) if args.slice else (0, None)
    _check_out_dir(args.out)
    if args.mode == "sweep":
        if not args.k:
            raise SchemaError("sweep mode requires --k")
        spec = camp.SweepSpec(tuple(_int_list(args.k)), tuple(values),
                              10 if args.reps is None else args.reps,
                              0 if args.seed is None else args.seed, off, count)
        result = camp.run_fault_sweep(spec, plan, ds, workers=args.workers)
    else:
        result = camp.run_heatmap(values, plan, ds, workers=args.workers,
                                  slice_offset=off, slice_count=count)
    try:  # only once there is something to write
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot create --out {args.out}: {exc.strerror or exc}") from exc
    written: list[str] = []
    try:
        if args.mode == "sweep":
            _write(os.path.join(args.out, "boxplot.svg"),
                   boxplot_svg(result.groups, "accuracy drop vs faulted lanes"), written)
        else:
            for value in values:
                _write(os.path.join(args.out, f"heatmap_{value}.svg"),
                       heatmap_svg(result.heatmap[value],
                                   f"accuracy drop, injected value {value}"), written)
        _write(os.path.join(args.out, "results.csv"), camp.results_to_csv(result), written)
        _write(os.path.join(args.out, "summary.csv"), camp.summary_to_csv(result.groups), written)
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    print(f"baseline={result.baseline!r} runs={sum(r.kind != 'baseline' for r in result.records)}")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_plan(args) -> int:
    plan, _ = _load(args, with_dataset=False)
    stats = plan_stats(plan)
    lines = ["micro-ops per unit:"]
    for unit, n in enumerate(stats.micro_ops_per_unit):
        lines.append(f"  unit {unit}: {int(n)}")
    lines.append("lane activity (operand-carrying slots, rows = units):")
    for unit in range(stats.lane_activity.shape[0]):
        row = " ".join(f"{int(v):8d}" for v in stats.lane_activity[unit])
        lines.append(f"  unit {unit}: {row}")
    lines.append(f"idle lane slots: {stats.idle_slots}")
    text = "\n".join([dump_plan(plan), *lines, ""])  # no reference to the dump outlives the join
    if args.out:
        _write(args.out, text, [])
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {"infer": cmd_infer, "campaign": cmd_campaign, "plan": cmd_plan}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except MacfiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # downstream consumer closed early, e.g. `... | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except Exception as exc:  # pragma: no cover - internal invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
