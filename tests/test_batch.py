"""macarray.batch_logits and Emulator.run_batch against per-sample
Emulator.run, bit for bit.

The batched path replaces every permanent lane fault by its closed form
(masked weights plus a constant per output channel), evaluates many runs at
once, and shares the lane partials of layers that read fault-free values;
these tests cross-check it with the per-step kernels, pin when a run must
fall back to them, and check how runs and samples are split into blocks.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import macfi.macarray as macarray
from macfi.campaign import (SweepSpec, evaluate_accuracy, results_to_csv, run_fault_sweep,
                            run_heatmap)
from macfi.errors import ShapeError
from macfi.faultctl import FaultMap, LaneFault, fault_for_error_value, sample_random_fault_map
from macfi.macarray import Emulator, batch_logits
from macfi.model import Dataset, LayerSpec, ModelGraph
from macfi.planner import plan_model
from macfi.qtensor import ACC_MAX, QTensor

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


def test_fault_map_must_match_array(desk_plan, desk_dataset):
    with pytest.raises(ShapeError):
        batch_logits(desk_plan, desk_dataset.samples[:2], [FaultMap(), FaultMap(4, 4)])


def test_dataset_scale_must_match_plan(desk_plan, desk_dataset):
    ds = Dataset(desk_dataset.samples, desk_dataset.labels, desk_dataset.scale * 2)
    with pytest.raises(ShapeError):
        evaluate_accuracy(desk_plan, ds, range(4))


DEFAULT_BUDGET = macarray.BATCH_BYTES
BUDGETS = [1, DEFAULT_BUDGET, 1 << 30]


def _pulse_map() -> FaultMap:
    fmap = FaultMap()
    fmap.set(1, 2, LaneFault.pulse(131071, start=5, length=40))
    return fmap


def _rail_model() -> ModelGraph:
    """One 3x3 conv, Cin=24, on a 1x1 input; all 27 rows of an output carry
    operands (padded taps are live). Channel 0's bias leaves room for
    fault-free rows but not for 27 rows of 8 x 131071: under that fault the
    per-step accumulator saturates at ACC_MAX and requantizes to 64, where
    the unsaturated closed form would give 65."""
    rng = np.random.default_rng(8)
    conv = mac_layer(rng, "conv", "conv", "input", 24, 3, 3, 1, 1, m=2.0 ** -25)
    conv.bias = np.array([ACC_MAX - 27 * 8 * 16384 - 1000, 7, -9], dtype=np.int32)
    return ModelGraph([conv], (24, 1, 1), 2.0 ** -6, "conv", 3)


def _rail_maps() -> tuple[list[FaultMap], list[bool]]:
    """Fault maps for _rail_model and whether each must fall back."""
    everywhere = sample_random_fault_map(64, LaneFault.constant(131071), 1, 8, 8)
    unit0 = FaultMap()
    for lane in range(8):
        unit0.set(0, lane, LaneFault.constant(131071))
    one = FaultMap()
    one.set(1, 2, LaneFault.constant(5))
    maps = [FaultMap(), everywhere, one, _pulse_map(), unit0,
            sample_random_fault_map(8, LaneFault.stuck_zero(), 3, 8, 8)]
    return maps, [False, True, False, True, True, False]


@pytest.mark.parametrize("budget", BUDGETS)
def test_batch_logits_matches_run_on_corpus(monkeypatch, budget):
    monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
    rng = np.random.default_rng(31)
    for mi, g in enumerate(_models()):
        plan = plan_model(g)
        samples = rng.integers(-128, 128, size=(3, *g.input_shape)).astype(np.int8)
        maps = [FaultMap(), _pulse_map()] + [
            sample_random_fault_map(k, fault_for_error_value(v), mi * 1000 + k, 8, 8)
            for k in K_VALUES for v in ERROR_VALUES]
        expected = np.stack([_per_sample(plan, fmap, samples) for fmap in maps])
        got = batch_logits(plan, samples, maps)
        assert got.dtype == np.int8 and got.shape == (len(maps), 3, g.classes)
        assert np.array_equal(got, expected), mi


@pytest.mark.parametrize("budget", BUDGETS)
def test_mixed_runs_in_one_call(run_calls, monkeypatch, budget):
    monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
    plan = plan_model(_rail_model())
    maps, falls_back = _rail_maps()
    samples = np.random.default_rng(4).integers(-128, 128, size=(4, 24, 1, 1)).astype(np.int8)
    expected = np.stack([_per_sample(plan, fmap, samples) for fmap in maps])
    assert (expected[1, :, 0] == 64).all()  # saturated per step
    run_calls.clear()
    got = batch_logits(plan, samples, maps)
    assert np.array_equal(got, expected)
    assert len(run_calls) == sum(falls_back) * len(samples)


@pytest.mark.parametrize("extra, falls_back", [(1000, False), (1001, True)])
def test_bound_edge(run_calls, extra, falls_back):
    # Fault-free, the bound is bias + 27 rows x 8 x 16384: at ACC_MAX the run
    # is still evaluated in closed form, one above it falls back.
    g = _rail_model()
    g.layers[0].bias[0] += extra
    plan = plan_model(g)
    samples = np.full((2, 24, 1, 1), 127, dtype=np.int8)
    expected = _per_sample(plan, FaultMap(), samples)
    run_calls.clear()
    assert np.array_equal(batch_logits(plan, samples, [FaultMap()])[0], expected)
    assert len(run_calls) == (len(samples) if falls_back else 0)


@pytest.fixture
def blocks(desk_plan, monkeypatch):
    """Records the sample rows of every lane-partials build and the run range
    of every block of the desk model's output layer."""
    seen = []
    real_partials, real_masked = macarray._lane_partials, macarray._mac_masked

    def partials(op, x, lanes):
        seen.append(("partials", x.copy()))
        return real_partials(op, x, lanes)

    def masked(op, x, r0, rb):
        if op.prog.layer.id == desk_plan.output:
            seen.append(("runs", r0, x.shape[0], x.shape[1]))
        return real_masked(op, x, r0, rb)

    monkeypatch.setattr(macarray, "_lane_partials", partials)
    monkeypatch.setattr(macarray, "_mac_masked", masked)
    return seen


@pytest.mark.parametrize("budget", [1, 60_000, DEFAULT_BUDGET])
def test_blocks_cover_each_run_and_sample_once(desk_plan, desk_dataset, blocks, monkeypatch,
                                               budget):
    monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
    samples = desk_dataset.samples[3:10]
    maps = [FaultMap()] + [sample_random_fault_map(k, fault_for_error_value(v), 17 + k, 8, 8)
                           for k in (1, 8, 64) for v in (0, -1, 131071)]
    batch_logits(desk_plan, samples, maps)
    pairs, builds, rows = Counter(), 0, None
    for event in blocks:
        if event[0] == "partials":
            builds += 1
            rows = [next(i for i, s in enumerate(samples) if np.array_equal(s, x))
                    for x in event[1]]
        else:
            _, r0, runs, n = event
            assert n == len(rows)
            pairs.update((r, s) for r in range(r0, r0 + runs) for s in rows)
    assert pairs == Counter({(r, s): 1 for r in range(len(maps)) for s in range(len(samples))})
    # conv1 reads the input, so its partials are built once per sample block
    # and shared by every run of that block.
    sample_blocks = len([e for e in blocks if e[0] == "partials"])
    assert builds == sample_blocks < len(maps) * len(samples)
    if budget == 1:
        assert builds == len(samples)
    if budget == DEFAULT_BUDGET:
        assert builds == 1


def test_partials_built_once_per_sample_block(desk_plan, desk_dataset, blocks, monkeypatch):
    monkeypatch.setattr(macarray, "BATCH_BYTES", 1)
    maps = [sample_random_fault_map(4, fault_for_error_value(v), 5, 8, 8) for v in (0, 1, -1)]
    samples = desk_dataset.samples[:4]
    batch_logits(desk_plan, samples, maps)
    built = [e[1] for e in blocks if e[0] == "partials"]
    assert len(built) == len(samples)
    assert all(np.array_equal(x, samples[s : s + 1]) for s, x in enumerate(built))


@pytest.mark.parametrize("campaign", ["heatmap", "sweep"])
def test_results_csv_independent_of_workers_and_blocks(desk_plan, desk_dataset, monkeypatch,
                                                       campaign):
    def run(workers):
        if campaign == "heatmap":
            return run_heatmap([0, 9, -131072], desk_plan, desk_dataset, workers=workers,
                               slice_offset=2, slice_count=6)
        spec = SweepSpec((1, 4, 64), (0, 1, -131072), 3, master_seed=12, slice_count=6)
        return run_fault_sweep(spec, desk_plan, desk_dataset, workers=workers)

    result = run(1)
    expected = results_to_csv(result)
    assert len({r.accuracy for r in result.records}) > 3  # runs are told apart
    monkeypatch.setattr(macarray, "BATCH_BYTES", 1)
    for workers in (1, 2, 8):
        assert results_to_csv(run(workers)) == expected, workers
