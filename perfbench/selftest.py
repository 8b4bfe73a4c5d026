#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Shows that a corrupted logit or campaign fingerprint counts as a failed
check, that ``run.py`` prints every metric named in BENCHMARK.json with its
unit for every workload in both modes (and the latency, failure and campaign
figures of its informational lines with theirs), and that ``run.py`` exits
non-zero without a result when macfi's sources are absent. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile

import provision
import run

failures: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def corrupted_outputs_fail():
    run.BUILD.mkdir(exist_ok=True)
    provision.load_compiled_kernel(run.ROOT, run.BUILD)
    sys.path.insert(0, str(run.ROOT / "src"))
    import inputs
    import workloads as W

    wl = W.WORKLOADS["desk-infer"]
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        ctx = W.setup(inputs.write_inputs(wl.model, wl.samples, 7, tmp), wl)
        golden = W.golden_logits(ctx)
        checks = W.Checks()
        W.infer_loop(ctx, golden, 0.1, checks)
        expect(checks.attempted > 0 and checks.failed == 0, "true logits pass")
        golden[3] = golden[3].copy()
        golden[3][0] ^= 1
        checks = W.Checks()
        W.infer_loop(ctx, golden, 0.1, checks)
        expect(checks.failed > 0, f"one corrupted logit fails {checks.failed}/{checks.attempted}")

        result, text = W.run_campaign("sweep", ctx, 7, 4, 1, tmp, reps=1)
        checks = W.Checks()
        W.check_campaign(result, W.sha256(text), W.sha256(text), checks)
        expect(checks.failed == 0, "matching results.csv fingerprint passes")
        checks = W.Checks()
        W.check_campaign(result, W.sha256(text + "0"), W.sha256(text), checks)
        expect(checks.failed > 0, "corrupted results.csv fingerprint fails")


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# Printed on the informational lines of an untraced run, with their units.
INFO_METRICS = {"request_ms_p50": "ms", "request_ms_p99": "ms", "failed_ratio": "ratio"}
CAMPAIGN_INFO_METRICS = {"campaign_runs_per_s": "1/s"}


def every_metric_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            cmd = [*spec["command"], "--workload", wl["name"], "--seed", "3",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            res = last_json(proc.stdout) if proc.returncode == 0 else None
            got = {} if res is None else {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units and res["correct"] and res["failed"] == 0,
                   f"{wl['name']} --trace {trace}: {len(got)}/{len(units)} metrics with units, "
                   f"exit {proc.returncode}")
            if trace == 0:
                info = dict(INFO_METRICS)
                if wl["name"] != "desk-infer":
                    info.update(CAMPAIGN_INFO_METRICS)
                shown = {name for name, unit in info.items()
                         if re.search(rf"\b{name}=\S+ {re.escape(unit)}\b", proc.stdout)}
                expect(shown == set(info), f"{wl['name']}: informational metrics printed with "
                       f"units: {sorted(shown)}")


def fails_without_sources():
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "perfbench", f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-infer",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without src/ the run exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    corrupted_outputs_fail()
    every_metric_printed()
    fails_without_sources()
    print(f"selftest: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
