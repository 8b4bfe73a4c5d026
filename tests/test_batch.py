"""Emulator.run_batch against per-sample Emulator.run, bit for bit.

The batched path replaces every permanent lane fault by its closed form
(masked weights plus a constant per output channel) and runs each MAC layer
as one float64 matmul; these tests cross-check it with the per-step kernels
and pin when it must fall back to them.
"""

from __future__ import annotations

import numpy as np
import pytest

import macfi.macarray as macarray
from macfi.campaign import SweepSpec, evaluate_accuracy, run_fault_sweep
from macfi.errors import ShapeError
from macfi.faultctl import FaultMap, LaneFault, fault_for_error_value, sample_random_fault_map
from macfi.macarray import Emulator, classify_argmax
from macfi.model import Dataset, LayerSpec, ModelGraph
from macfi.planner import plan_model
from macfi.qtensor import QTensor

from helpers import mac_layer, make_random_model

K_VALUES = (0, 1, 8, 64)
ERROR_VALUES = (0, 1, -1, 131071, -131072)
SAMPLES = 2


def make_wide_cin_model(rng: np.random.Generator, cin: int) -> ModelGraph:
    """conv -> relu -> gavgpool -> fc where both MAC layers have Cin > 8."""
    h, w = (int(v) for v in rng.integers(3, 9, size=2))
    pad = int(rng.integers(0, 2))
    k = int(rng.integers(1, min(3, h + 2 * pad, w + 2 * pad) + 1))
    stride = int(rng.integers(1, 3))
    cout = int(rng.integers(9, 21))
    classes = int(rng.integers(2, 11))
    layers = [
        mac_layer(rng, "conv", "conv", "input", cin, cout, k, stride, pad),
        LayerSpec(id="relu", kind="relu", inputs=["conv"]),
        LayerSpec(id="gap", kind="gavgpool", inputs=["relu"]),
        mac_layer(rng, "fc", "fc", "gap", cout, classes, 1),
    ]
    return ModelGraph(layers, (cin, h, w), 2.0 ** -6, "fc", classes)


def _models():
    rng = np.random.default_rng(2024)
    models = [make_random_model(rng) for _ in range(100)]
    models += [make_wide_cin_model(rng, cin) for cin in (9, 12, 16, 17, 24, 30)]
    return models


def _per_sample(plan, faults, samples) -> np.ndarray:
    emu = Emulator(plan, faults)
    return np.stack([emu.run(QTensor(x, plan.input_scale)).logits for x in samples])


@pytest.fixture
def run_calls(monkeypatch):
    """Counts Emulator.run calls; run_batch's fallback goes through it."""
    calls = []
    real = Emulator.run

    def spy(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(Emulator, "run", spy)
    return calls


def test_run_batch_matches_run_bit_for_bit(backend, run_calls):
    rng = np.random.default_rng(7)
    checked = 0
    for mi, g in enumerate(_models()):
        plan = plan_model(g)
        samples = rng.integers(-128, 128, size=(SAMPLES, *g.input_shape)).astype(np.int8)
        for k in K_VALUES:
            for value in ERROR_VALUES:
                fmap = sample_random_fault_map(k, fault_for_error_value(value), mi * 1000 + k,
                                               plan.cfg.units, plan.cfg.lanes)
                expected = _per_sample(plan, fmap, samples)
                run_calls.clear()
                got = Emulator(plan, fmap).run_batch(samples)
                assert run_calls == [], "took the per-sample path"
                assert got.dtype == np.int8 and got.shape == (SAMPLES, g.classes)
                assert np.array_equal(got, expected), (mi, k, value)
                checked += 1
    assert checked >= 100 * len(K_VALUES) * len(ERROR_VALUES)


def test_pulse_map_falls_back(desk_plan, desk_dataset, run_calls):
    fmap = FaultMap()
    fmap.set(2, 3, LaneFault.pulse(131071, start=100, length=400))
    samples = desk_dataset.samples[:4]
    expected = _per_sample(desk_plan, fmap, samples)
    run_calls.clear()
    got = Emulator(desk_plan, fmap).run_batch(samples)
    assert len(run_calls) == len(samples)
    assert np.array_equal(got, expected)


def test_trace_falls_back(desk_plan, desk_dataset, run_calls):
    fmap = sample_random_fault_map(4, fault_for_error_value(-131072), 11, 8, 8)
    samples = desk_dataset.samples[:4]
    expected = _per_sample(desk_plan, fmap, samples)
    run_calls.clear()
    got = Emulator(desk_plan, fmap, trace=True).run_batch(samples)
    assert len(run_calls) == len(samples)
    assert np.array_equal(got, expected)


def test_bias_near_rail_with_constant_fault_falls_back(run_calls):
    # One fc with Cin=16: bias 2^31 - 100 plus a forced 131071 on unit 0 can
    # saturate a partial sum, which the closed form would not reproduce.
    rng = np.random.default_rng(5)
    fc = mac_layer(rng, "fc", "fc", "input", 16, 2, 1, m=2.0 ** -24)
    fc.bias = np.array([(1 << 31) - 100, -5], dtype=np.int32)
    g = ModelGraph([fc], (16, 1, 1), 2.0 ** -6, "fc", 2)
    plan = plan_model(g)
    fmap = FaultMap()
    fmap.set(0, 1, LaneFault.constant(131071))
    samples = rng.integers(-128, 128, size=(5, 16, 1, 1)).astype(np.int8)
    expected = _per_sample(plan, fmap, samples)
    run_calls.clear()
    got = Emulator(plan, fmap).run_batch(samples)
    assert len(run_calls) == len(samples)
    assert np.array_equal(got, expected)
    assert (expected[:, 0] == 127).all()  # the saturated channel


@pytest.mark.parametrize("budget", [1, 40_000])
def test_several_sample_blocks_give_same_accuracies(desk_plan, desk_dataset, monkeypatch,
                                                    budget):
    idx = range(3, 30)
    fmaps = [None] + [sample_random_fault_map(k, fault_for_error_value(v), 17 + k, 8, 8)
                      for k in (1, 8, 64) for v in (0, -1, 131071)]
    expected = []
    for fmap in fmaps:
        emu = Emulator(desk_plan, fmap)
        correct = sum(classify_argmax(emu.run(desk_dataset.sample(i)).logits)
                      == int(desk_dataset.labels[i]) for i in idx)
        expected.append(correct / len(idx))
    assert [evaluate_accuracy(desk_plan, desk_dataset, idx, f) for f in fmaps] == expected

    blocks = []
    real = macarray._mac_batch

    def spy(prog, w, const, x):
        if prog is desk_plan.programs[0]:
            blocks.append(x.shape[0])
        return real(prog, w, const, x)

    monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
    monkeypatch.setattr(macarray, "_mac_batch", spy)
    assert [evaluate_accuracy(desk_plan, desk_dataset, idx, f) for f in fmaps] == expected
    assert sum(blocks) == len(idx) * len(fmaps)
    assert max(blocks) < len(idx)


def test_sweep_unchanged_by_block_size(cin4_plan, cin4_dataset, monkeypatch):
    spec = SweepSpec((1, 4, 64), (0, 1, -131072), 2, master_seed=3)
    expected = run_fault_sweep(spec, cin4_plan, cin4_dataset, workers=1)
    monkeypatch.setattr(macarray, "BATCH_BYTES", 1)
    got = run_fault_sweep(spec, cin4_plan, cin4_dataset, workers=1)
    assert got.records == expected.records


def test_empty_batch(desk_plan):
    out = Emulator(desk_plan).run_batch(np.zeros((0, *desk_plan.input_shape), dtype=np.int8))
    assert out.shape == (0, desk_plan.classes) and out.dtype == np.int8


def test_wrong_sample_dims(desk_plan):
    c, h, w = desk_plan.input_shape
    with pytest.raises(ShapeError):
        Emulator(desk_plan).run_batch(np.zeros((2, c, h + 1, w), dtype=np.int8))


def test_dataset_scale_must_match_plan(desk_plan, desk_dataset):
    ds = Dataset(desk_dataset.samples, desk_dataset.labels, desk_dataset.scale * 2)
    with pytest.raises(ShapeError):
        evaluate_accuracy(desk_plan, ds, range(4))


def test_batch_operands_built_on_first_call(desk_plan, desk_dataset, monkeypatch):
    built = []
    real = Emulator._prepare_batch
    monkeypatch.setattr(Emulator, "_prepare_batch",
                        lambda self: built.append(1) or real(self))
    emu = Emulator(desk_plan)
    assert built == []
    emu.run_batch(desk_dataset.samples[:2])
    emu.run_batch(desk_dataset.samples[2:4])
    assert built == [1]
