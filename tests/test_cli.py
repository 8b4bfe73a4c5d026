from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import macfi.campaign
import macfi.cli
import macfi.macarray
import macfi.planner
from macfi.campaign import parse_results_csv, parse_summary_csv
from macfi.cli import main
from macfi.errors import SchemaError
from macfi.faultctl import parse_fault_spec
from macfi.macarray import Emulator, classify_argmax
from macfi.model import (Dataset, LayerSpec, ModelGraph, load_dataset, load_model, save_dataset,
                         save_model)
from macfi.planner import plan_model
from macfi.qtensor import ACC_MAX

from helpers import bias_only_accuracy, mac_layer

# `python -m macfi` in a subprocess imports the macfi this process imported.
_PKG_ROOT = str(Path(macfi.campaign.__file__).parents[1])
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [_PKG_ROOT, os.environ.get("PYTHONPATH")]))}
SAMPLE_RE = re.compile(r"^sample=(\d+) pred=(\d+) label=(\d+)$")
FOOTER_RE = re.compile(r"^accuracy=([0-9.e+-]+) throughput_ips=\d+\.\d$")


def infer_args(bundle, *extra):
    return ["infer", "--model", bundle["manifest"], "--weights", bundle["weights"],
            "--dataset", bundle["dataset"], *extra]


def campaign_args(bundle, out, *extra):
    return ["campaign", "--model", bundle["manifest"], "--weights", bundle["weights"],
            "--dataset", bundle["dataset"], "--out", str(out), *extra]


def svg_cells(path: Path):
    root = ET.parse(path).getroot()
    return [el for el in root.iter() if el.tag.endswith("rect")
            and el.attrib.get("class") == "cell"]


class TestInfer:
    def test_all_samples(self, desk_bundle, capsys):
        assert main(infer_args(desk_bundle)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 33
        for i, line in enumerate(lines[:-1]):
            m = SAMPLE_RE.match(line)
            assert m and int(m.group(1)) == i
            assert m.group(2) == m.group(3)  # labels are the model's own argmax
        m = FOOTER_RE.match(lines[-1])
        assert m and m.group(1) == "1.0"

    def test_single_sample(self, desk_bundle, capsys):
        assert main(infer_args(desk_bundle, "--sample", "3")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("sample=3 ")

    def test_sample_out_of_range(self, desk_bundle, capsys):
        assert main(infer_args(desk_bundle, "--sample", "99")) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_weights(self, desk_bundle, tmp_path, capsys):
        gone = str(tmp_path / "nope.bin")
        rc = main(["infer", "--model", desk_bundle["manifest"], "--weights", gone,
                   "--dataset", desk_bundle["dataset"]])
        assert rc == 2
        assert "nope.bin" in capsys.readouterr().err

    def test_verbose_reports_backend(self, desk_bundle, capsys, monkeypatch):
        monkeypatch.setattr(macfi.macarray, "_kernel", None)  # as without the extension
        rc = main(infer_args(desk_bundle, "--verbose", "--sample", "0"))
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("# backend=python micro_ops_per_inference=")

    def test_stuck_zero_spec_hits_bias_only_accuracy(self, desk_bundle, desk_graph,
                                                     desk_dataset, tmp_path, capsys):
        spec = tmp_path / "allzero.txt"
        lines = ["# force every lane to zero"]
        lines += [f"{u},{l},zero" for u in range(8) for l in range(8)]
        spec.write_text("\n".join(lines) + "\n")
        assert main(infer_args(desk_bundle, "--faults", str(spec))) == 0
        out = capsys.readouterr().out.splitlines()
        want = bias_only_accuracy(desk_graph, desk_dataset, range(32))
        assert out[-1].startswith(f"accuracy={want!r} ")

    def test_fault_spec_error_carries_line_number(self, desk_bundle, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text("0,0,zero\n1,1,const\n")  # const missing its value
        assert main(infer_args(desk_bundle, "--faults", str(spec))) == 2
        assert "line 2" in capsys.readouterr().err

    def test_repeated_lane_is_bad_input(self, desk_bundle, tmp_path, capsys):
        spec = tmp_path / "twice.txt"
        spec.write_text("0,3,zero\n# comment\n1,3,zero\n+0,03,const,5\n")  # the same lane
        assert main(infer_args(desk_bundle, "--faults", str(spec), "--sample", "0")) == 2
        assert ("error: fault spec line 4: unit 0 lane 3 already set on line 1"
                in capsys.readouterr().err)

    def test_empty_dataset_is_bad_input(self, desk_bundle, tmp_path, capsys):
        ds = load_dataset(desk_bundle["dataset"])
        empty = tmp_path / "empty.qds"
        save_dataset(Dataset(ds.samples[:0], ds.labels[:0], ds.scale), empty)
        rc = main(["infer", "--model", desk_bundle["manifest"], "--weights",
                   desk_bundle["weights"], "--dataset", str(empty)])
        err = capsys.readouterr().err
        assert rc == 2 and "error:" in err and "internal" not in err

    def test_non_utf8_fault_spec_is_bad_input(self, desk_bundle, tmp_path, capsys):
        spec = tmp_path / "latin1.txt"
        spec.write_bytes(b"# caf\xe9\n0,0,zero\n")
        rc = main(infer_args(desk_bundle, "--faults", str(spec)))
        err = capsys.readouterr().err
        assert rc == 2 and "error:" in err and "internal" not in err

    @pytest.mark.parametrize("start, length, rc", [
        ("99999999999999999999999", "5", 2),  # past int64 itself
        ("9223372036854775800", "100", 2),  # start + length past 2^63 - 1
        ("9223372036854775806", "1", 0),  # ends exactly at 2^63 - 1
    ])
    def test_pulse_window_end_past_int64_is_bad_input(self, desk_bundle, tmp_path, capsys,
                                                      start, length, rc):
        spec = tmp_path / "pulse.txt"
        spec.write_text(f"0,0,pulse,1,{start},{length}\n")
        assert main(infer_args(desk_bundle, "--faults", str(spec), "--sample", "0")) == rc
        err = capsys.readouterr().err
        assert ("error: fault spec line 1" in err) == (rc == 2) and "internal" not in err


    def test_dataset_scale_differs_from_model_is_bad_input(self, desk_bundle, tmp_path, capsys):
        ds = load_dataset(desk_bundle["dataset"])
        other = tmp_path / "scaled.qds"
        save_dataset(Dataset(ds.samples, ds.labels, ds.scale * 2), other)
        rc = main(["infer", "--model", desk_bundle["manifest"], "--weights",
                   desk_bundle["weights"], "--dataset", str(other), "--sample", "0"])
        err = capsys.readouterr().err
        assert rc == 2 and "error: input scale" in err and "internal" not in err

    @pytest.mark.parametrize("spec, rail, per_step", [
        ([f"{u},{l},zero" for u in range(8) for l in range(8)], False, False),
        (["0,0,const,131071", "3,5,const,-131072", "7,2,const,1"], False, False),
        (["2,3,pulse,131071,100,400"], False, True),
        (["0,0,const,131071"], True, True),
    ], ids=["stuck_zero", "constant", "pulse", "over_bound"])
    def test_output_matches_per_sample_run(self, desk_bundle, desk_graph, tmp_path, capsys,
                                           monkeypatch, spec, rail, per_step):
        # "over_bound" runs a desk model whose conv1 channel-0 bias leaves
        # room for fault-free lanes only, so a forced 131071 takes the
        # per-step fallback, as a pulse does.
        model, weights = desk_bundle["manifest"], desk_bundle["weights"]
        if rail:
            g = load_model(model, weights)
            conv1 = g.by_id["conv1"]
            conv1.bias[0] = ACC_MAX - 9 * 8 * 16384  # 9 taps of 8 lanes at the largest product
            model, weights = str(tmp_path / "rail.json"), str(tmp_path / "rail.bin")
            save_model(g, model, weights)
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text("\n".join(spec) + "\n")
        plan = plan_model(load_model(model, weights))
        ds = load_dataset(desk_bundle["dataset"])
        emu = Emulator(plan, parse_fault_spec(spec_path.read_text()))
        preds = [classify_argmax(emu.run(ds.sample(i)).logits) for i in range(len(ds))]
        want = [f"sample={i} pred={p} label={int(ds.labels[i])}" for i, p in enumerate(preds)]
        accuracy = sum(p == int(label) for p, label in zip(preds, ds.labels)) / len(ds)
        runs = []
        real_run = Emulator.run

        def run(self, x):
            runs.append(x)
            return real_run(self, x)

        monkeypatch.setattr(Emulator, "run", run)
        rc = main(["infer", "--model", model, "--weights", weights, "--dataset",
                   desk_bundle["dataset"], "--faults", str(spec_path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0 and lines[:-1] == want
        assert lines[-1].startswith(f"accuracy={accuracy!r} throughput_ips=")
        assert len(runs) == (len(ds) if per_step else 0)

    @pytest.mark.parametrize("extra", [(), ("--sample", "3")], ids=["all", "one"])
    def test_one_batch_logits_call(self, desk_bundle, capsys, monkeypatch, extra):
        calls, built = [], []
        real_batch, real_init = macfi.cli.batch_logits, Emulator.__init__

        def batch(*args):
            calls.append(args)
            return real_batch(*args)

        def init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(macfi.cli, "batch_logits", batch)
        monkeypatch.setattr(Emulator, "__init__", init)
        assert main(infer_args(desk_bundle, *extra)) == 0
        assert len(calls) == 1 and built == []  # no per-step fallback on a fault-free map
        _, samples, maps = calls[0]
        assert len(samples) == (1 if extra else 32) and len(maps) == 1
        assert len(capsys.readouterr().out.splitlines()) == len(samples) + 1


class TestCampaign:
    def test_heatmap_outputs(self, desk_bundle, tmp_path, capsys):
        out = tmp_path / "heat"
        rc = main(campaign_args(desk_bundle, out, "--mode", "heatmap",
                                "--values", "0,1,-1", "--slice", "0,2"))
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["heatmap_-1.svg", "heatmap_0.svg", "heatmap_1.svg",
                         "results.csv", "summary.csv"]
        for value in (0, 1, -1):
            assert len(svg_cells(out / f"heatmap_{value}.svg")) == 64
        res = parse_results_csv((out / "results.csv").read_text())
        assert sum(r.kind == "heatmap" for r in res.records) == 192
        summary = parse_summary_csv((out / "summary.csv").read_text())
        assert set(summary) == {(1, 0), (1, 1), (1, -1)}
        stdout = capsys.readouterr().out
        assert "baseline=" in stdout and stdout.count("wrote ") == 5

    def test_sweep_outputs_and_determinism(self, desk_bundle, tmp_path, capsys):
        outs = []
        for name, workers in (("a", "1"), ("b", "8"), ("c", "8")):
            out = tmp_path / name
            rc = main(campaign_args(desk_bundle, out, "--mode", "sweep",
                                    "--k", "1,4", "--values", "0", "--reps", "2",
                                    "--seed", "7", "--workers", workers,
                                    "--slice", "0,2"))
            assert rc == 0
            outs.append(out)
        capsys.readouterr()
        ref_results = (outs[0] / "results.csv").read_bytes()
        ref_summary = (outs[0] / "summary.csv").read_bytes()
        for out in outs[1:]:
            assert (out / "results.csv").read_bytes() == ref_results
            assert (out / "summary.csv").read_bytes() == ref_summary
        ET.parse(outs[0] / "boxplot.svg")  # well-formed XML
        res = parse_results_csv(ref_results.decode())
        assert sum(r.kind == "sweep" for r in res.records) == 4

    def test_sweep_requires_k(self, desk_bundle, tmp_path, capsys):
        rc = main(campaign_args(desk_bundle, tmp_path / "x", "--mode", "sweep"))
        assert rc == 2
        assert "--k" in capsys.readouterr().err

    def test_heatmap_rejects_k(self, desk_bundle, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        rc = main(campaign_args(desk_bundle, tmp_path / "x", "--mode", "heatmap",
                                "--values", "1", "--k", "3"))
        assert rc == 2 and calls == []
        assert "error: --k applies to sweep mode only" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value", [("--reps", "3"), ("--seed", "5")])
    def test_heatmap_rejects_reps_and_seed(self, desk_bundle, tmp_path, capsys, monkeypatch,
                                           flag, value):
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        rc = main(campaign_args(desk_bundle, tmp_path / "x", "--mode", "heatmap",
                                "--values", "1", flag, value, "--slice", "0,2"))
        assert rc == 2 and calls == []
        assert f"error: {flag} applies to sweep mode only" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_sweep_defaults_to_10_reps_and_seed_0(self, desk_bundle, tmp_path, capsys):
        flags = ("--mode", "sweep", "--k", "1,4", "--values", "0,-1", "--slice", "0,2")
        assert main(campaign_args(desk_bundle, tmp_path / "a", *flags)) == 0
        assert main(campaign_args(desk_bundle, tmp_path / "b", *flags,
                                  "--reps", "10", "--seed", "0")) == 0
        got = (tmp_path / "a" / "results.csv").read_bytes()
        assert got == (tmp_path / "b" / "results.csv").read_bytes()
        assert sum(r.kind == "sweep" for r in parse_results_csv(got.decode()).records) == 40

    def test_k_over_grid_size(self, desk_bundle, tmp_path, capsys):
        rc = main(campaign_args(desk_bundle, tmp_path / "x", "--mode", "sweep",
                                "--k", "65", "--values", "0", "--reps", "1",
                                "--slice", "0,1"))
        assert rc == 2

    def test_k_over_grid_size_fails_before_any_run(self, desk_bundle, tmp_path, capsys,
                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        rc = main(campaign_args(desk_bundle, tmp_path / "x", "--mode", "sweep",
                                "--k", "1,65", "--values", "0", "--reps", "1"))
        assert rc == 2
        assert calls == []
        assert "k=65" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_reps_beyond_host_memory_fails_before_any_run(self, desk_bundle, tmp_path, capsys,
                                                          monkeypatch):
        # Built its 2^62-entry job grid until MemoryError (exit 3), or grew
        # without end; now refused from the grid size.
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            rc = main(campaign_args(desk_bundle, tmp_path / "x", "--mode", "sweep", "--k", "1",
                                    "--values", "0", "--reps", str(2 ** 62)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0 and peak < 2 ** 26, peak
        err = capsys.readouterr().err
        assert rc == 2 and "cannot fit in host memory" in err, err
        assert calls == [] and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags,repeated", [
        (("--mode", "heatmap", "--values", "1,1"), "error value 1"),
        (("--mode", "sweep", "--k", "4,1,4", "--values", "0"), "k value 4"),
        (("--mode", "sweep", "--k", "1", "--values", "0,-1,-1"), "error value -1"),
    ], ids=["heatmap_value", "sweep_k", "sweep_value"])
    def test_repeated_coordinate_fails_before_any_run(self, desk_bundle, tmp_path, capsys,
                                                      monkeypatch, flags, repeated):
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        rc = main(campaign_args(desk_bundle, tmp_path / "x", *flags, "--slice", "0,1"))
        assert rc == 2
        assert calls == []
        captured = capsys.readouterr()
        assert f"error: {repeated} given more than once" in captured.err
        assert "wrote" not in captured.out
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("mode", [("sweep", "--k", "1"), ("heatmap",)], ids=lambda m: m[0])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_bad_input(self, desk_bundle, tmp_path, capsys, mode, workers):
        rc = main(campaign_args(desk_bundle, tmp_path / "x", "--mode", *mode,
                                "--workers", workers, "--slice", "0,1"))
        assert rc == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err

    def test_failed_campaign_leaves_no_partial_files(self, desk_bundle, tmp_path):
        out = tmp_path / "x"
        rc = main(campaign_args(desk_bundle, out, "--mode", "sweep",
                                "--k", "65", "--values", "0", "--slice", "0,1"))
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--mode", "heatmap", "--workers", "0"),
        ("--mode", "sweep"),
        ("--mode", "heatmap", "--values", "999999"),
        ("--mode", "heatmap", "--values", "1,1"),
        ("--mode", "sweep", "--k", "1,4,1"),
        ("--mode", "sweep", "--k", "1", "--values", "0,-1,0"),
    ], ids=["workers_0", "sweep_without_k", "value_out_of_range", "repeated_heatmap_value",
            "repeated_k", "repeated_sweep_value"])
    def test_bad_input_creates_no_out_dir(self, desk_bundle, tmp_path, capsys, flags):
        out = tmp_path / "new" / "out"
        rc = main(campaign_args(desk_bundle, out, *flags, "--slice", "0,1"))
        assert rc == 2
        assert not (tmp_path / "new").exists()
        existing = tmp_path / "existing"
        existing.mkdir()
        (existing / "keep.txt").write_text("keep")
        rc = main(campaign_args(desk_bundle, existing, *flags, "--slice", "0,1"))
        assert rc == 2
        assert [p.name for p in existing.iterdir()] == ["keep.txt"]
        assert (existing / "keep.txt").read_text() == "keep"

    def test_out_is_a_file_is_bad_input(self, desk_bundle, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("keep")
        rc = main(campaign_args(desk_bundle, out, "--mode", "heatmap", "--slice", "0,1"))
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err
        assert out.read_text() == "keep"

    def test_out_under_a_file_is_bad_input(self, desk_bundle, tmp_path, capsys, monkeypatch):
        # Rejected before the campaign runs, so no baseline or fault run is paid for.
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        parent = tmp_path / "file"
        parent.write_text("keep")
        for out in (parent / "sub", parent / "sub" / "deeper"):
            rc = main(campaign_args(desk_bundle, out, "--mode", "heatmap", "--slice", "0,1"))
            assert rc == 2
            assert calls == []
            err = capsys.readouterr().err
            assert "error:" in err and "internal error" not in err and str(out) in err
            assert "not a directory" in err
        assert parent.read_text() == "keep"

    def test_unwritable_output_is_bad_input_and_leaves_no_partial_files(
            self, desk_bundle, tmp_path, capsys):
        # results.csv is written after the heatmap SVGs; a directory in its
        # place makes that write fail, and the SVGs already written go too.
        out = tmp_path / "out"
        (out / "results.csv").mkdir(parents=True)
        rc = main(campaign_args(desk_bundle, out, "--mode", "heatmap", "--values", "0",
                                "--slice", "0,1"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "internal error" not in err
        assert str(out / "results.csv") in err
        assert [p.name for p in out.iterdir()] == ["results.csv"]


class TestPlan:
    def test_stdout_stats(self, desk_bundle, capsys):
        rc = main(["plan", "--model", desk_bundle["manifest"],
                   "--weights", desk_bundle["weights"]])
        assert rc == 0
        out = capsys.readouterr().out
        counts = [int(m.group(1)) for m in
                  re.finditer(r"^  unit \d+: (\d+)$", out, re.MULTILINE)]
        assert len(counts) == 8
        assert len(set(counts)) == 1  # cout is a multiple of 8: perfectly balanced
        assert "idle lane slots: " in out

    def test_out_file(self, desk_bundle, tmp_path, capsys):
        target = tmp_path / "plan.txt"
        rc = main(["plan", "--model", desk_bundle["manifest"],
                   "--weights", desk_bundle["weights"], "--out", str(target)])
        assert rc == 0
        assert "wrote " in capsys.readouterr().out
        assert "lane activity" in target.read_text()

    def test_out_in_missing_dir_is_bad_input(self, desk_bundle, tmp_path, capsys):
        target = tmp_path / "missing" / "plan.txt"
        rc = main(["plan", "--model", desk_bundle["manifest"],
                   "--weights", desk_bundle["weights"], "--out", str(target)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "internal error" not in err and str(target) in err
        assert not (tmp_path / "missing").exists()

    def test_narrow_model_idle_lane_columns(self, cin4_graph, tmp_path, capsys):
        man, blob = str(tmp_path / "m.json"), str(tmp_path / "w.bin")
        save_model(cin4_graph, man, blob)
        rc = main(["plan", "--model", man, "--weights", blob])
        assert rc == 0
        out = capsys.readouterr().out
        rows = re.findall(r"^  unit \d+: +((?:-?\d+ +)*-?\d+)$", out, re.MULTILINE)
        grid = [[int(v) for v in row.split()] for row in rows if len(row.split()) == 8]
        assert len(grid) == 8
        assert all(any(r[l] for r in grid) for l in range(4))
        assert all(all(r[l] == 0 for r in grid) for l in range(4, 8))

    def test_truncated_pipe_is_not_an_error(self, desk_bundle):
        cmd = (f"{sys.executable} -m macfi plan --model {desk_bundle['manifest']} "
               f"--weights {desk_bundle['weights']} | head -2")
        proc = subprocess.run(["sh", "-c", cmd], capture_output=True, text=True,
                              timeout=120, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert "internal error" not in proc.stderr
        assert len(proc.stdout.splitlines()) == 2

    def test_invalid_manifest(self, desk_bundle, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["plan", "--model", str(bad), "--weights", desk_bundle["weights"]])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("h, w", [(10 ** 12, 4), (4, 10 ** 12), (10 ** 6, 10 ** 6),
                                      (10 ** 12, 10 ** 12)])
    @pytest.mark.parametrize("cmd", ["plan", "infer"])
    def test_model_too_large_to_plan_is_bad_input(self, desk_bundle, tmp_path, capsys,
                                                  cmd, h, w):
        # Sizes so absurd that the tap index's allocation fails at once.
        doc = json.loads(Path(desk_bundle["manifest"]).read_text())
        doc["input"]["h"], doc["input"]["w"] = h, w
        man = tmp_path / "model.json"
        man.write_text(json.dumps(doc))
        args = [cmd, "--model", str(man), "--weights", desk_bundle["weights"]]
        rc = main(args + (["--dataset", desk_bundle["dataset"]] if cmd == "infer" else []))
        err = capsys.readouterr().err
        assert rc == 2 and "'conv1'" in err and "too large to plan" in err, err

    @pytest.mark.parametrize("field, value, layer", [
        ("inputs", [["conv1"]], "relu1"),
        ("inputs", [{"id": "conv1"}], "relu1"),
        ("output", ["fc"], None),
        ("output", {}, None),
    ], ids=["inputs_list", "inputs_object", "output_list", "output_object"])
    def test_non_string_layer_name_is_bad_input(self, desk_bundle, tmp_path, capsys,
                                                field, value, layer):
        doc = json.loads(Path(desk_bundle["manifest"]).read_text())
        if field == "inputs":
            doc["layers"][1]["inputs"] = value
        else:
            doc["output"] = value
        man = tmp_path / "model.json"
        man.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            load_model(man, desk_bundle["weights"])
        assert exc.value.layer == layer
        rc = main(["plan", "--model", str(man), "--weights", desk_bundle["weights"]])
        err = capsys.readouterr().err
        assert rc == 2 and "error:" in err and "internal" not in err, err
        assert layer is None or repr(layer) in err

    def test_dump_too_large_for_any_host_is_bad_input(self, tmp_path, capsys):
        # A 1x1 conv with 2048 channels each way over a 1000x1000 input plans
        # in under 100 MB but would dump 5 * 10^11 lines, some 380 TB held in
        # memory: refused from its shapes before any line is made.
        rng = np.random.default_rng(0)
        layers = [mac_layer(rng, "conv", "conv", "input", 2048, 2048, 1),
                  LayerSpec(id="gap", kind="gavgpool", inputs=["conv"]),
                  mac_layer(rng, "fc", "fc", "gap", 2048, 2, 1)]
        man, wts, out = tmp_path / "m.json", tmp_path / "w.bin", tmp_path / "p.txt"
        save_model(ModelGraph(layers, (2048, 1000, 1000), 2.0 ** -6, "fc", 2), man, wts)
        tracemalloc.start()
        try:
            rc = main(["plan", "--model", str(man), "--weights", str(wts), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 2 and "error: layer 'conv'" in err and "too large to dump" in err, err
        assert peak < 2 ** 28 and not out.exists(), peak

    @pytest.mark.parametrize("cmd", ["plan", "infer_pulse"])
    def test_rows_too_large_to_allocate_are_bad_input(self, desk_bundle, tmp_path, capsys,
                                                      monkeypatch, cmd):
        # Stands in for a model that plans but whose packed rows (infer) or
        # dump text (plan, which builds no rows) do not fit.
        def no_memory(*args):
            raise MemoryError()

        if cmd == "plan":
            monkeypatch.setattr(macfi.planner, "_format_rows", no_memory)
            rc = main(["plan", "--model", desk_bundle["manifest"],
                       "--weights", desk_bundle["weights"], "--out", str(tmp_path / "p.txt")])
        else:
            monkeypatch.setattr(macfi.planner, "_pack_mac_layer", no_memory)
            spec = tmp_path / "pulse.txt"
            spec.write_text("2,3,pulse,131071,100,400\n")
            rc = main(infer_args(desk_bundle, "--faults", str(spec), "--sample", "0"))
        err = capsys.readouterr().err
        assert rc == 2 and "error: layer 'conv1'" in err and "too large" in err, err
        assert not (tmp_path / "p.txt").exists()

    def test_non_utf8_manifest(self, desk_bundle, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(Path(desk_bundle["manifest"]).read_bytes() + b" \xff")
        rc = main(["plan", "--model", str(bad), "--weights", desk_bundle["weights"]])
        err = capsys.readouterr().err
        assert rc == 2 and "error:" in err and "internal" not in err


# Manifest fields that must be numbers, set to something that is not one, or
# to a number of the wrong kind that int() or float() would coerce: an integer
# field takes only a JSON integer, a real field a JSON integer or float, and
# neither a bool. (path into the manifest, value, layer id the error must carry).
NON_NUMERIC_FIELDS = {
    "weights_offset_x": (["layers", 0, "weights", "offset"], "x", "conv1"),
    "classes_eight": (["classes"], "eight", None),
    "bias_len_null": (["layers", 0, "bias", "len"], None, "conv1"),
    "weights_scale_abc": (["layers", 0, "weights", "scale"], "abc", "conv1"),
    "input_c_8x": (["input", "c"], "8x", None),
    "input_c_float": (["input", "c"], 8.9, None),
    "input_c_string": (["input", "c"], "8", None),
    "input_c_integral_float": (["input", "c"], 8.0, None),
    "classes_float": (["classes"], 8.2, None),
    "classes_string": (["classes"], "8", None),
    "classes_bool": (["classes"], True, None),
    "input_scale_string": (["input", "scale"], "0.015625", None),
    "weights_offset_float": (["layers", 0, "weights", "offset"], 0.7, "conv1"),
    "weights_scale_string": (["layers", 0, "weights", "scale"], "0.0078125", "conv1"),
    "bias_len_bool": (["layers", 0, "bias", "len"], False, "conv1"),
    "m_bool": (["layers", 0, "m"], True, "conv1"),
    "m_string": (["layers", 0, "m"], "0.0078125", "conv1"),
    "m_beyond_float": (["layers", 0, "m"], 10 ** 400, "conv1"),
}


@pytest.mark.parametrize("path,value,layer", NON_NUMERIC_FIELDS.values(),
                         ids=NON_NUMERIC_FIELDS.keys())
def test_non_numeric_manifest_field_is_bad_input(desk_bundle, tmp_path, capsys,
                                                 path, value, layer):
    doc = json.loads(Path(desk_bundle["manifest"]).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    man = tmp_path / "model.json"
    man.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_model(man, desk_bundle["weights"])
    assert exc.value.layer == layer
    rc = main(["infer", "--model", str(man), "--weights", desk_bundle["weights"],
               "--dataset", desk_bundle["dataset"]])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


# Python's int() also takes "_" between digits and any Unicode decimal digit
# (here Arabic-Indic and fullwidth three); an integer in a fault spec or a
# flag value is an optionally signed run of ASCII digits.
NON_ASCII_INTS = {
    "spec_underscore": ("spec", "2,3,const,1_0"),
    "spec_arabic_indic_lane": ("spec", "+1,\u0663,zero"),
    "spec_pulse_start": ("spec", "0,0,pulse,5,1_000,\uff13"),
    "spec_pulse_fullwidth_len": ("spec", "0,0,pulse,5,1000,\uff13"),
    "values": ("campaign", "--mode", "heatmap", "--values", "1_0,\u0663"),
    "slice": ("campaign", "--mode", "heatmap", "--values", "1", "--slice", "0,1_0"),
    "reps": ("campaign", "--mode", "sweep", "--k", "1", "--values", "1", "--reps", "\u0663"),
    "seed": ("campaign", "--mode", "sweep", "--k", "1", "--values", "1", "--seed", "1_0"),
    "workers": ("campaign", "--mode", "heatmap", "--values", "1", "--workers", "\uff13"),
    "sample": ("infer", "--sample", "\u0663"),
}


@pytest.mark.parametrize("case", NON_ASCII_INTS.values(), ids=NON_ASCII_INTS.keys())
def test_integer_is_ascii_digits_only(desk_bundle, tmp_path, capsys, case):
    kind, *rest = case
    out = tmp_path / "x"
    if kind == "spec":
        spec = tmp_path / "spec.txt"
        spec.write_text(rest[0] + "\n", encoding="utf-8")
        argv = infer_args(desk_bundle, "--faults", str(spec), "--sample", "0")
    elif kind == "infer":
        argv = infer_args(desk_bundle, *rest)
    else:
        argv = campaign_args(desk_bundle, out, *rest)
        if "--slice" not in rest:
            argv += ["--slice", "0,1"]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "internal" not in err
    assert not out.exists()


def test_module_entrypoint(desk_bundle, cin4_graph, cin4_dataset, tmp_path):
    man, blob, ds = (str(tmp_path / n) for n in ("m.json", "w.bin", "d.qds"))
    save_model(cin4_graph, man, blob)
    save_dataset(cin4_dataset, ds)
    proc = subprocess.run(
        [sys.executable, "-m", "macfi", "infer", "--model", man, "--weights", blob,
         "--dataset", ds, "--sample", "0"],
        capture_output=True, text=True, timeout=120, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sample=0 ")
