"""Seeded in-process fuzzing of the command line: bad input exits 2, never 3.

Each case starts from a valid desk bundle of 4 samples and mutates one part
of it: one or two manifest fields, the length of the weights blob, one QDS
header field or the length of the dataset file, the fault-spec lines, or one
CLI flag value. It then calls ``cli.main`` for ``plan --out``, ``infer
--sample 0`` or a one-sample campaign, and checks that the exit code is 0 or
2, that exit 2 prints ``error:`` on stderr and no internal error, and that a
failed command leaves no ``--out`` behind. The cases come from one
SplitMix64 stream, so every run checks the same ones.

Every size a case can set is rejected by arithmetic before anything of that
size is allocated: a number drawn for the manifest is tiny, not finite, or
at least 2^63 in magnitude, which no array dimension holds, and dataset and
blob lengths are checked against their headers and references. So no case
starts a large allocation.
"""

from __future__ import annotations

import copy
import json
import math

from macfi.cli import main
from macfi.deskmodel import write_desk_bundle
from macfi.faultctl import SplitMix64
from macfi.model import _QDS_HEADER

CASES = 400
SEED = 2026

# Replacement values for a manifest field: every JSON type, the edges of
# int64 and numbers too small to cost anything.
VALUES = (0, -1, 1, 2, 3, 7, 2 ** 63, 2 ** 64, -2 ** 63, 1.5, math.nan, math.inf, -math.inf,
          "x", "", "conv1", None, True, [], {}, [[]], ["conv1"], {"id": "conv1"})

SPEC_LINES = ("0,0,zero", "8,0,zero", "0,8,zero", "-1,0,zero", "0,0,zero,1", "0,0,const",
              "0,0,const,131072", "0,0,const,x", "1,1,const,-131072", "0,0,pulse,1,0,0",
              "0,0,pulse,1,-1,5", "0,0,pulse,1,5", "0,0,pulse,1,9223372036854775807,1",
              "2,3,pulse,131071,100,400", "0,0,bogus", "a,b,c", ",,", "0", "# comment", "")

FLAG_VALUES = {
    "--sample": ("-1", "3", "4", "x", "99999999999999999999"),
    "--mode": ("heatmap", "sweep", "x"),
    "--values": ("0", "1,-1", "131072", "-131073", "1,1", "x", ""),
    "--k": ("0", "1", "64", "65", "-1", "1,1", "x"),
    "--reps": ("0", "-1", "2", "x"),
    "--seed": ("0", "-1", "18446744073709551616", "x"),
    "--slice": ("3,1", "4,1", "-1,1", "0,0", "0", "1,2,3", "x", "99999999999999999999,1"),
    "--workers": ("1", "0", "-1", "x"),
}


class Draw:
    """Choices from one SplitMix64 stream."""

    def __init__(self, seed: int):
        self.rng = SplitMix64(seed)

    def below(self, n: int) -> int:
        return self.rng.bounded(n)

    def pick(self, seq):
        return seq[self.below(len(seq))]


def _paths(node, prefix=()):
    """Every key path into a JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += _paths(child, prefix + (key,))
    return out


def _is_name(path) -> bool:
    """A path to a layer name, or to a list of them."""
    return path[-1] in ("id", "inputs", "output") or (len(path) > 1 and path[-2] == "inputs")


def _mutate_manifest(draw: Draw, doc: dict) -> list:
    """Sets one or two fields to drawn values; a quarter of the draws aim at
    layer names, which the layer graph hashes."""
    done = []
    for _ in range(1 + draw.below(2)):
        paths = _paths(doc)
        names = [p for p in paths if _is_name(p)]
        path = draw.pick(names if names and draw.below(4) == 0 else paths)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(draw.pick(VALUES))
        done.append((path, node[path[-1]]))
    return done


def _resize(draw: Draw, data: bytes) -> bytes:
    if draw.below(3):
        return data[:draw.below(len(data) + 1)]
    return data + bytes(1 + draw.below(8))


def _mutate_qds(draw: Draw, raw: bytes) -> tuple[bytes, str]:
    """One header field (magic, n, c, h, w, scale), or the file length."""
    field = draw.below(7)
    if field == 6:
        return _resize(draw, raw), "length"
    head = list(_QDS_HEADER.unpack_from(raw))
    if field == 0:
        head[0] = draw.pick((b"QDS0", bytes(4)))
    elif field == 5:
        head[5] = draw.pick((0.0, -1.0, math.nan, math.inf, 2 * head[5]))
    else:
        top = {1: 2 ** 32 - 1, 2: 255}.get(field, 65535)  # the largest the field holds
        head[field] = draw.pick((0, 1, head[field] + 1, top))
    return _QDS_HEADER.pack(*head) + raw[_QDS_HEADER.size:], f"header field {field}"


def _case(draw: Draw, doc: dict, blob: bytes, qds: bytes, case_dir):
    """(argv, --out path, what was mutated) of one case, its files written
    under case_dir."""
    spec = "0,0,zero\n"
    target = draw.pick(("manifest", "manifest", "blob", "qds", "spec", "flags"))
    cmd = draw.pick({"manifest": ("plan", "infer", "campaign"), "blob": ("plan", "infer"),
                     "qds": ("infer", "campaign"), "spec": ("infer",),
                     "flags": ("infer", "campaign")}[target])
    what = target
    if target == "manifest":
        doc = copy.deepcopy(doc)
        what = _mutate_manifest(draw, doc)
    elif target == "blob":
        blob = _resize(draw, blob)
    elif target == "qds":
        qds, what = _mutate_qds(draw, qds)
    elif target == "spec":
        lines = [draw.pick(SPEC_LINES) for _ in range(1 + draw.below(3))]
        spec = "\n".join(lines) + "\n"
        what = lines
    case_dir.mkdir()
    files = {name: case_dir / name for name in ("model.json", "weights.bin", "data.qds",
                                                 "spec.txt")}
    files["model.json"].write_text(json.dumps(doc))
    files["weights.bin"].write_bytes(blob)
    files["data.qds"].write_bytes(qds)
    files["spec.txt"].write_text(spec)
    model = ["--model", str(files["model.json"]), "--weights", str(files["weights.bin"])]
    out = case_dir / "out"
    if cmd == "plan":
        return ["plan", *model, "--out", str(out)], out, what
    model += ["--dataset", str(files["data.qds"])]
    if cmd == "infer":
        flags = {"--sample": "0", "--faults": str(files["spec.txt"])}
    else:
        flags = {"--mode": draw.pick(("heatmap", "sweep")), "--values": "1", "--slice": "0,1"}
        if flags["--mode"] == "sweep":
            flags.update({"--k": "1", "--reps": "1"})
    if target == "flags":
        flag = "--sample" if cmd == "infer" else draw.pick(list(FLAG_VALUES)[1:])
        flags[flag] = draw.pick(FLAG_VALUES[flag])
        what = (flag, flags[flag])
    argv = [cmd, *model, *(["--out", str(out)] if cmd == "campaign" else [])]
    for flag, value in flags.items():
        argv += [flag, value]
    return argv, out, what


def test_cli_bad_input_exits_2_never_3(tmp_path, capsys):
    bundle = write_desk_bundle(str(tmp_path / "bundle"), 4)
    with open(bundle["manifest"], encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(bundle["weights"], "rb") as fh:
        blob = fh.read()
    with open(bundle["dataset"], "rb") as fh:
        qds = fh.read()
    draw = Draw(SEED)
    failures, codes = [], {0: 0, 2: 0}
    for i in range(CASES):
        argv, out, what = _case(draw, doc, blob, qds, tmp_path / f"c{i}")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            rc = exc.code
        err = capsys.readouterr().err
        if (rc not in (0, 2) or (rc == 2 and "error:" not in err) or "internal" in err
                or (rc != 0 and out.exists())):
            failures.append((i, argv[0], what, rc, err.strip()[-200:]))
        else:
            codes[rc] += 1
    assert failures == []
    assert min(codes.values()) >= CASES // 20, codes  # both outcomes are exercised
