from __future__ import annotations

import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import macfi.campaign
import macfi.macarray
from macfi.campaign import parse_results_csv, parse_summary_csv
from macfi.cli import main
from macfi.errors import SchemaError
from macfi.model import load_model, save_dataset, save_model

from helpers import bias_only_accuracy

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
    ], ids=["workers_0", "sweep_without_k", "value_out_of_range"])
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
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "internal error" not in proc.stderr
        assert len(proc.stdout.splitlines()) == 2

    def test_invalid_manifest(self, desk_bundle, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["plan", "--model", str(bad), "--weights", desk_bundle["weights"]])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


# Manifest fields that must be numbers, set to something that is not one:
# (path into the manifest, value, layer id the error must carry).
NON_NUMERIC_FIELDS = {
    "weights_offset_x": (["layers", 0, "weights", "offset"], "x", "conv1"),
    "classes_eight": (["classes"], "eight", None),
    "bias_len_null": (["layers", 0, "bias", "len"], None, "conv1"),
    "weights_scale_abc": (["layers", 0, "weights", "scale"], "abc", "conv1"),
    "input_c_8x": (["input", "c"], "8x", None),
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


def test_module_entrypoint(desk_bundle, cin4_graph, cin4_dataset, tmp_path):
    man, blob, ds = (str(tmp_path / n) for n in ("m.json", "w.bin", "d.qds"))
    save_model(cin4_graph, man, blob)
    save_dataset(cin4_dataset, ds)
    proc = subprocess.run(
        [sys.executable, "-m", "macfi", "infer", "--model", man, "--weights", blob,
         "--dataset", ds, "--sample", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sample=0 ")
