"""Seeded benchmark inputs, written to disk in macfi's own file formats.

Everything comes from macfi's SplitMix64 stream keyed by the workload seed:
the wide model's weights and every dataset. Labels are the reference
pipeline's fault-free predictions, so every baseline accuracy is exactly 1.0.
The desk model is the bundled one (its weights are fixed by the package).

Wide model: 16x32x32 input, a stride-2 3x3 conv with Cin=16, maxpool, a 3x3
conv with Cin=24 and a residual add, global average pool and an fc head.
Cin > 8 wraps each output position over several lane groups. Layer ids match
the desk model's, so both models report the same per-layer metric names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from macfi import (Dataset, LayerSpec, ModelGraph, QTensor, SplitMix64, derive_seed,
                   reference_forward, save_dataset, save_model)
from macfi.deskmodel import build_desk_model

WIDE_INPUT = (16, 32, 32)
WIDE_CHANNELS = 24
_MODEL_TAG, _DATA_TAG = 1, 2


@dataclass(frozen=True)
class InputFiles:
    manifest: str
    weights: str
    dataset: str


def _draw(rng: SplitMix64, n: int, lo: int, hi: int) -> np.ndarray:
    """n ints uniform in [lo, hi)."""
    span = hi - lo
    return np.array([lo + rng.bounded(span) for _ in range(n)], dtype=np.int64)


def _mac_layer(rng, lid, kind, src, cin, cout, k, stride, pad) -> LayerSpec:
    w = _draw(rng, cout * cin * k * k, -16, 17).reshape(cout, cin, k, k).astype(np.int8)
    b = _draw(rng, cout, -64, 65).astype(np.int32)
    return LayerSpec(id=lid, kind=kind, inputs=[src], k=k, stride=stride, pad=pad,
                     cout=cout, m=2.0 ** -7, weight_scale=2.0 ** -7, weights=w, bias=b)


def build_wide_model(seed: int) -> ModelGraph:
    rng = SplitMix64(derive_seed(seed, _MODEL_TAG))
    cin, c = WIDE_INPUT[0], WIDE_CHANNELS
    layers = [
        _mac_layer(rng, "conv1", "conv", "input", cin, c, 3, 2, 1),
        LayerSpec(id="relu1", kind="relu", inputs=["conv1"]),
        LayerSpec(id="pool1", kind="maxpool", inputs=["relu1"], k=2, stride=2),
        _mac_layer(rng, "conv2", "conv", "pool1", c, c, 3, 1, 1),
        LayerSpec(id="relu2", kind="relu", inputs=["conv2"]),
        LayerSpec(id="add1", kind="add", inputs=["relu2", "pool1"]),
        LayerSpec(id="gap", kind="gavgpool", inputs=["add1"]),
        _mac_layer(rng, "fc", "fc", "gap", c, 8, 1, 1, 0),
    ]
    return ModelGraph(layers, WIDE_INPUT, 2.0 ** -6, "fc", 8)


def build_dataset(g: ModelGraph, n: int, seed: int) -> Dataset:
    rng = SplitMix64(derive_seed(seed, _DATA_TAG))
    samples = _draw(rng, n * int(np.prod(g.input_shape)), -128, 128)
    samples = samples.reshape(n, *g.input_shape).astype(np.int8)
    labels = np.empty(n, dtype=np.uint16)
    for i in range(n):
        _, logits = reference_forward(g, QTensor(samples[i], g.input_scale))
        labels[i] = int(np.argmax(logits))
    return Dataset(samples, labels, g.input_scale)


def write_inputs(model: str, n_samples: int, seed: int, out_dir: str) -> InputFiles:
    """Write model.json, weights.bin and dataset.qds for one workload."""
    g = build_wide_model(seed) if model == "wide" else build_desk_model()
    files = InputFiles(os.path.join(out_dir, "model.json"), os.path.join(out_dir, "weights.bin"),
                       os.path.join(out_dir, "dataset.qds"))
    save_model(g, files.manifest, files.weights)
    save_dataset(build_dataset(g, n_samples, seed), files.dataset)
    return files
