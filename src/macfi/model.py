"""CNN graph representation and the on-disk model/dataset formats.

A model is a JSON manifest plus one little-endian binary weights blob:

* manifest: ``input {c,h,w,scale}``, ``classes``, ``output``, ``layers[]``;
  each layer has ``id``, ``kind``, ``inputs[]``, kind params
  (``k``, ``stride``, ``pad``, ``cout``, ``m``) and, for conv/fc,
  ``weights {offset,len,scale}`` and ``bias {offset,len}``.
* weights blob: raw int8 kernel data in (Cout, Cin, K, K) order; bias as
  int32 little-endian.

Layers reference the graph input by the reserved id ``"input"``.

Datasets are a single binary file: magic ``QDS1``, u32 N, u8 C, u16 H,
u16 W, f64 scale, N*(C*H*W) int8 samples, N*u16 labels, little-endian.
"""

from __future__ import annotations

import heapq
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CycleError,
    InvalidScale,
    MacfiError,
    MissingBlob,
    ScaleMismatch,
    SchemaError,
    ShapeError,
    UnsupportedLayer,
)
from .qtensor import QTensor, conv_out_hw, ref_execute_layer

INPUT_ID = "input"
LAYER_KINDS = ("conv", "fc", "relu", "maxpool", "gavgpool", "add")

_QDS_MAGIC = b"QDS1"
_QDS_HEADER = struct.Struct("<4sIBHHd")


@dataclass
class LayerSpec:
    id: str
    kind: str
    inputs: list[str]
    k: int | None = None
    stride: int | None = None
    pad: int | None = None
    cout: int | None = None
    m: float | None = None
    weight_scale: float | None = None
    weights: np.ndarray | None = None  # int8 (Cout, Cin, K, K)
    bias: np.ndarray | None = None  # int32 (Cout,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayerSpec):
            return NotImplemented
        return (
            self.id == other.id
            and self.kind == other.kind
            and self.inputs == other.inputs
            and self.k == other.k
            and self.stride == other.stride
            and self.pad == other.pad
            and self.cout == other.cout
            and self.m == other.m
            and self.weight_scale == other.weight_scale
            and _arr_eq(self.weights, other.weights)
            and _arr_eq(self.bias, other.bias)
        )


def _arr_eq(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


@dataclass
class ModelGraph:
    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    input_scale: float
    output: str
    classes: int
    by_id: dict[str, LayerSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_id = {layer.id: layer for layer in self.layers}


@dataclass
class Dataset:
    samples: np.ndarray  # int8, (N, C, H, W)
    labels: np.ndarray  # int, (N,)
    scale: float

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    def sample(self, i: int) -> QTensor:
        return QTensor(self.samples[i], self.scale)


# ---------------------------------------------------------------------------
# Graph validation
# ---------------------------------------------------------------------------

def topo_order(g: ModelGraph) -> list[LayerSpec]:
    """Deterministic topological order; ties broken by layer id."""
    indeg = {}
    consumers: dict[str, list[str]] = {}
    for layer in g.layers:
        deps = [i for i in layer.inputs if i != INPUT_ID and i in g.by_id]
        indeg[layer.id] = len(deps)
        for dep in deps:
            consumers.setdefault(dep, []).append(layer.id)
    ready = [lid for lid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        lid = heapq.heappop(ready)
        order.append(g.by_id[lid])
        for nxt in consumers.get(lid, ()):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(g.layers):
        stuck = sorted(set(indeg) - {l.id for l in order})
        raise CycleError(f"graph contains a cycle through layer {stuck[0]!r}", stuck[0])
    return order


def _positive_int(value, name: str, lid: str, minimum: int = 1) -> list[MacfiError]:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        return [SchemaError(f"layer {lid!r}: {name} must be an int >= {minimum}", lid)]
    return []


def _structural_issues(g: ModelGraph) -> list[MacfiError]:
    issues: list[MacfiError] = []
    seen: set[str] = set()
    c, h, w = g.input_shape
    if min(c, h, w) < 1:
        issues.append(SchemaError(f"input shape must be positive, got {g.input_shape}"))
    if not (g.input_scale > 0 and math.isfinite(g.input_scale)):
        issues.append(InvalidScale(f"input scale must be positive, got {g.input_scale!r}"))
    if not isinstance(g.classes, int) or g.classes < 1:
        issues.append(SchemaError(f"classes must be a positive int, got {g.classes!r}"))

    for layer in g.layers:
        lid = layer.id
        if not lid or not isinstance(lid, str):
            issues.append(SchemaError(f"layer id must be a non-empty string, got {lid!r}"))
            continue
        if lid == INPUT_ID:
            issues.append(SchemaError(f"layer id {INPUT_ID!r} is reserved", lid))
        if lid in seen:
            issues.append(SchemaError(f"duplicate layer id {lid!r}", lid))
        seen.add(lid)

        if layer.kind not in LAYER_KINDS:
            issues.append(UnsupportedLayer(f"layer {lid!r}: unknown kind {layer.kind!r}", lid))
            continue

        arity = 2 if layer.kind == "add" else 1
        if len(layer.inputs) != arity:
            issues.append(
                SchemaError(f"layer {lid!r} ({layer.kind}) needs {arity} input(s)", lid)
            )
        for src in layer.inputs:
            if src != INPUT_ID and src not in g.by_id:
                issues.append(SchemaError(f"layer {lid!r}: unknown input {src!r}", lid))

        if layer.kind in ("conv", "fc"):
            issues += _positive_int(layer.cout, "cout", lid)
            for name, v in (("m", layer.m), ("weight scale", layer.weight_scale)):
                if not (isinstance(v, (int, float)) and v > 0 and math.isfinite(v)):
                    issues.append(
                        InvalidScale(f"layer {lid!r}: {name} must be positive, got {v!r}", lid))
        if layer.kind == "conv":
            issues += _positive_int(layer.k, "k", lid)
            issues += _positive_int(layer.stride, "stride", lid)
            issues += _positive_int(layer.pad, "pad", lid, minimum=0)
        if layer.kind == "fc":
            if (layer.k or 1, layer.stride or 1, layer.pad or 0) != (1, 1, 0):
                issues.append(SchemaError(f"layer {lid!r}: fc implies k=1, stride=1, pad=0", lid))
        if layer.kind == "maxpool":
            issues += _positive_int(layer.k, "k", lid)
            issues += _positive_int(layer.stride, "stride", lid)
            if layer.pad not in (None, 0):
                issues.append(SchemaError(f"layer {lid!r}: maxpool does not support padding", lid))

    if g.output not in g.by_id:
        issues.append(SchemaError(f"output layer {g.output!r} does not exist"))
    return issues


def _propagation_issues(g: ModelGraph) -> tuple[list[MacfiError], dict[str, tuple]]:
    """Shape/scale propagation in topo order; returns (issues, id -> (dims, scale))."""
    issues: list[MacfiError] = []
    env: dict[str, tuple] = {INPUT_ID: (g.input_shape, g.input_scale)}
    try:
        order = topo_order(g)
    except CycleError as exc:
        return [exc], env

    for layer in order:
        lid = layer.id
        srcs = [env.get(i) for i in layer.inputs]
        if any(s is None for s in srcs):
            continue  # upstream already failed
        kind = layer.kind
        try:
            if kind in ("conv", "fc"):
                (dims, scale) = srcs[0]
                c, h, w = dims
                k = layer.k if kind == "conv" else 1
                stride = layer.stride if kind == "conv" else 1
                pad = layer.pad if kind == "conv" else 0
                if kind == "fc" and (h, w) != (1, 1):
                    raise ShapeError(f"layer {lid!r}: fc input must be (Cin, 1, 1), got {dims}", lid)
                if layer.weights is None or layer.weights.ndim != 4:
                    continue  # reported by _weight_issues
                cin = layer.weights.shape[1]
                if cin != c:
                    raise ShapeError(f"layer {lid!r}: declared Cin={cin} but input C={c}", lid)
                if k > h + 2 * pad or k > w + 2 * pad:
                    raise ShapeError(f"layer {lid!r}: kernel {k} exceeds padded input", lid)
                hout, wout = conv_out_hw(h, w, k, stride, pad)
                env[lid] = ((layer.cout, hout, wout), scale * layer.weight_scale / layer.m)
            elif kind in ("relu", "gavgpool"):
                (dims, scale) = srcs[0]
                env[lid] = ((dims[0], 1, 1) if kind == "gavgpool" else dims, scale)
            elif kind == "maxpool":
                (dims, scale) = srcs[0]
                c, h, w = dims
                if layer.k > h or layer.k > w:
                    raise ShapeError(f"layer {lid!r}: pool window {layer.k} exceeds {h}x{w}", lid)
                hout, wout = conv_out_hw(h, w, layer.k, layer.stride, 0)
                env[lid] = ((c, hout, wout), scale)
            elif kind == "add":
                (da, sa), (db, sb) = srcs
                if da != db:
                    raise ShapeError(f"layer {lid!r}: add operand dims {da} vs {db}", lid)
                if sa != sb:
                    raise ScaleMismatch(f"layer {lid!r}: add operand scales {sa!r} vs {sb!r}", lid)
                env[lid] = (da, sa)
        except MacfiError as exc:
            issues.append(exc)

    if g.output in env:
        dims, _ = env[g.output]
        flat = dims[0] * dims[1] * dims[2]
        if flat != g.classes:
            issues.append(
                ShapeError(f"output layer {g.output!r} has {flat} elements, classes={g.classes}")
            )
    return issues, env


def _weight_issues(g: ModelGraph) -> list[MacfiError]:
    issues: list[MacfiError] = []
    for layer in g.layers:
        if layer.kind not in ("conv", "fc"):
            continue
        lid = layer.id
        k = layer.k if layer.kind == "conv" else 1
        if layer.weights is None:
            issues.append(MissingBlob(f"layer {lid!r}: no weights", lid))
        elif layer.weights.ndim != 4 or layer.weights.shape[0] != layer.cout or (
            layer.weights.shape[2] != k or layer.weights.shape[3] != k
        ):
            issues.append(ShapeError(f"layer {lid!r}: weights shape {layer.weights.shape}", lid))
        if layer.bias is None:
            issues.append(MissingBlob(f"layer {lid!r}: no bias", lid))
        elif layer.bias.shape != (layer.cout,):
            issues.append(ShapeError(f"layer {lid!r}: bias shape {layer.bias.shape}", lid))
    return issues


def _check(g: ModelGraph) -> tuple[list[MacfiError], dict[str, tuple]]:
    """Every check in one pass; returns (issues, id -> ((C, H, W), scale))."""
    issues = _structural_issues(g)
    if issues:
        return issues, {}
    prop_issues, env = _propagation_issues(g)
    return _weight_issues(g) + prop_issues, env


def validate_graph(g: ModelGraph) -> list[MacfiError]:
    """Collect every violated invariant; the graph is valid iff the list is empty."""
    return _check(g)[0]


def propagate_shapes(g: ModelGraph) -> dict[str, tuple]:
    """Validate the graph, then return id -> ((C, H, W), scale) for every
    layer plus the graph input; raises the first violated invariant."""
    issues, env = _check(g)
    if issues:
        raise issues[0]
    return env


# ---------------------------------------------------------------------------
# Manifest + blob IO
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str, layer: str | None = None):
    if not cond:
        raise SchemaError(message, layer)


def _number(kind, value, what: str, layer: str | None = None):
    """A manifest number as ``kind``: an int field takes a JSON integer, a
    float field a JSON integer or float, and neither a bool. Nothing is
    truncated or parsed from a string; anything else is a SchemaError."""
    if isinstance(value, (int,) if kind is int else (int, float)) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise SchemaError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                      f"got {value!r}", layer)


def _parse_manifest(doc: dict) -> tuple[ModelGraph, dict[str, tuple[int, int, int, int]]]:
    """The graph without weights, plus id -> (w_offset, w_len, b_offset, b_len)
    for every conv/fc layer."""
    _require(isinstance(doc, dict), "manifest root must be an object")
    for key in ("input", "classes", "output", "layers"):
        _require(key in doc, f"manifest missing {key!r}")
    inp = doc["input"]
    _require(isinstance(inp, dict), "manifest input must be an object")
    for key in ("c", "h", "w", "scale"):
        _require(key in inp, f"manifest input missing {key!r}")
    _require(isinstance(doc["output"], str),
             f"manifest output must be a layer id (a string), got {doc['output']!r}")
    layers = []
    refs = {}
    _require(isinstance(doc["layers"], list), "manifest layers must be a list")
    for entry in doc["layers"]:
        _require(isinstance(entry, dict), "layer entry must be an object")
        lid = entry.get("id")
        _require(isinstance(lid, str) and lid != "", "layer entry missing id", None)
        _require("kind" in entry, f"layer {lid!r} missing kind", lid)
        _require(isinstance(entry.get("inputs"), list), f"layer {lid!r} missing inputs[]", lid)
        _require(all(isinstance(src, str) for src in entry["inputs"]),
                 f"layer {lid!r}: inputs must be layer ids (strings)", lid)
        spec = LayerSpec(
            id=lid,
            kind=entry["kind"],
            inputs=list(entry["inputs"]),
            k=entry.get("k"),
            stride=entry.get("stride"),
            pad=entry.get("pad"),
            cout=entry.get("cout"),
        )
        if spec.kind in ("conv", "fc"):
            for key in ("weights", "bias"):
                _require(isinstance(entry.get(key), dict), f"layer {lid!r} missing {key}", lid)
            wref = entry["weights"]
            bref = entry["bias"]
            for key in ("offset", "len", "scale"):
                _require(key in wref, f"layer {lid!r} weights missing {key!r}", lid)
            for key in ("offset", "len"):
                _require(key in bref, f"layer {lid!r} bias missing {key!r}", lid)
            refs[lid] = tuple(
                _number(int, ref[key], f"layer {lid!r} {name} {key}", lid)
                for name, ref in (("weights", wref), ("bias", bref))
                for key in ("offset", "len")
            )
            spec.weight_scale = _number(float, wref["scale"], f"layer {lid!r} weights scale", lid)
            spec.m = _number(float, entry.get("m"), f"layer {lid!r} m", lid)
            if spec.kind == "fc":
                spec.k, spec.stride, spec.pad = 1, 1, 0
        layers.append(spec)
    g = ModelGraph(
        layers=layers,
        input_shape=tuple(_number(int, inp[key], f"input {key}") for key in ("c", "h", "w")),
        input_scale=_number(float, inp["scale"], "input scale"),
        output=doc["output"],
        classes=_number(int, doc["classes"], "classes"),
    )
    return g, refs


def _slice_weights(g: ModelGraph, refs: dict[str, tuple[int, int, int, int]], blob: bytes):
    """Fill each conv/fc layer's weights and bias from the blob; Cin is
    whatever the weights length implies, checked against the graph later."""
    for layer in g.layers:
        if layer.kind not in ("conv", "fc"):
            continue
        lid = layer.id
        woff, wlen, boff, blen = refs[lid]
        per_cin = layer.cout * layer.k * layer.k
        if woff < 0 or wlen < 0 or woff + wlen > len(blob):
            raise MissingBlob(f"layer {lid!r}: weights [{woff}:+{wlen}] outside blob", lid)
        if wlen % per_cin:
            raise MissingBlob(
                f"layer {lid!r}: weights len {wlen} is not a multiple of {per_cin}", lid
            )
        if boff < 0 or boff + blen > len(blob):
            raise MissingBlob(f"layer {lid!r}: bias [{boff}:+{blen}] outside blob", lid)
        if blen != 4 * layer.cout:
            raise ShapeError(f"layer {lid!r}: bias len {blen}, expected {4 * layer.cout}", lid)
        layer.weights = (
            np.frombuffer(blob, dtype=np.int8, count=wlen, offset=woff)
            .reshape(layer.cout, wlen // per_cin, layer.k, layer.k)
            .copy()
        )
        layer.bias = np.frombuffer(
            blob, dtype="<i4", count=layer.cout, offset=boff
        ).astype(np.int32)


def load_model(manifest_path, weights_path) -> ModelGraph:
    """Load and fully validate a model; raises the first violated invariant."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MissingBlob(f"cannot read manifest {manifest_path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise SchemaError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    g, refs = _parse_manifest(doc)

    issues = _structural_issues(g)
    if issues:
        raise issues[0]
    try:
        with open(weights_path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise MissingBlob(f"cannot read weights blob {weights_path}: {exc}") from exc
    _slice_weights(g, refs, blob)
    issues = validate_graph(g)
    if issues:
        raise issues[0]
    return g


def save_model(g: ModelGraph, manifest_path, weights_path):
    """Write the manifest + blob pair; inverse of load_model field-for-field.

    The blob holds each conv/fc layer's weights and then its bias, in layer order.
    """
    c, h, w = g.input_shape
    doc = {
        "input": {"c": c, "h": h, "w": w, "scale": g.input_scale},
        "classes": g.classes,
        "output": g.output,
        "layers": [],
    }
    blob = bytearray()
    for layer in g.layers:
        entry: dict = {"id": layer.id, "kind": layer.kind, "inputs": list(layer.inputs)}
        if layer.kind == "conv":
            entry.update(k=layer.k, stride=layer.stride, pad=layer.pad)
        if layer.kind == "maxpool":
            entry.update(k=layer.k, stride=layer.stride)
        if layer.kind in ("conv", "fc"):
            weights = np.ascontiguousarray(layer.weights, dtype=np.int8).tobytes()
            bias = np.ascontiguousarray(layer.bias, dtype="<i4").tobytes()
            entry.update(cout=layer.cout, m=layer.m)
            entry["weights"] = {
                "offset": len(blob),
                "len": len(weights),
                "scale": layer.weight_scale,
            }
            entry["bias"] = {"offset": len(blob) + len(weights), "len": len(bias)}
            blob += weights + bias
        doc["layers"].append(entry)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(weights_path, "wb") as fh:
        fh.write(bytes(blob))


# ---------------------------------------------------------------------------
# Dataset IO
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, path):
    n, c, h, w = ds.samples.shape
    with open(path, "wb") as fh:
        fh.write(_QDS_HEADER.pack(_QDS_MAGIC, n, c, h, w, float(ds.scale)))
        fh.write(np.ascontiguousarray(ds.samples, dtype=np.int8).tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype="<u2").tobytes())


def load_dataset(path) -> Dataset:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MissingBlob(f"cannot read dataset {path}: {exc}") from exc
    if len(raw) < _QDS_HEADER.size:
        raise SchemaError(f"dataset {path}: truncated header")
    magic, n, c, h, w, scale = _QDS_HEADER.unpack_from(raw, 0)
    if magic != _QDS_MAGIC:
        raise SchemaError(f"dataset {path}: bad magic {magic!r}")
    sample_bytes = n * c * h * w
    expected = _QDS_HEADER.size + sample_bytes + 2 * n
    if len(raw) != expected:
        raise SchemaError(f"dataset {path}: {len(raw)} bytes, expected {expected}")
    samples = np.frombuffer(
        raw, dtype=np.int8, count=sample_bytes, offset=_QDS_HEADER.size
    ).reshape(n, c, h, w)
    labels = np.frombuffer(
        raw, dtype="<u2", count=n, offset=_QDS_HEADER.size + sample_bytes
    ).astype(np.int64)
    return Dataset(samples.copy(), labels, scale)


# ---------------------------------------------------------------------------
# Reference pipeline
# ---------------------------------------------------------------------------

def reference_forward(g: ModelGraph, x: QTensor) -> tuple[dict[str, QTensor], np.ndarray]:
    """Golden layer-by-layer execution; returns (per-layer outputs, logits)."""
    if x.dims != g.input_shape:
        raise ShapeError(f"input dims {x.dims} do not match model {g.input_shape}")
    if x.scale != g.input_scale:
        raise ShapeError(f"input scale {x.scale!r} does not match model {g.input_scale!r}")
    outputs = {INPUT_ID: x}
    for layer in topo_order(g):
        outputs[layer.id] = ref_execute_layer(layer, [outputs[i] for i in layer.inputs])
    del outputs[INPUT_ID]
    return outputs, outputs[g.output].data.reshape(-1)
