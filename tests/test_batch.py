"""macarray.batch_logits and Emulator.run against the per-step datapath, bit
for bit.

The batched path replaces every permanent lane fault by its closed form
(masked weights plus a constant per output channel), evaluates many runs at
once, and shares the lane partials of layers that read fault-free values;
an untraced Emulator.run takes the same closed form one sample at a time.
These tests cross-check both with the per-step kernels, pin when a run must
fall back to them, and check how runs and samples are split into blocks.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import macfi.macarray as macarray
from macfi import _kernel_py
from macfi.campaign import (SweepSpec, evaluate_accuracy, results_to_csv, run_fault_sweep,
                            run_heatmap)
from macfi.errors import OutOfRange, ShapeError
from macfi.faultctl import (FaultMap, FaultMode, LaneFault, fault_for_error_value,
                            sample_random_fault_map, single_lane_map)
from macfi.macarray import Emulator, batch_logits
from macfi.model import Dataset, LayerSpec, ModelGraph
from macfi.planner import ArrayConfig, plan_model
from macfi.qtensor import ACC_MAX, PRODUCT_MAX, QTensor

from helpers import (assert_same_outputs, assert_same_run, mac_layer, make_random_model,
                     oracle_run, per_step_run)

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
    """Logits of the per-step datapath, which Emulator.run's closed form
    does not reach."""
    return np.stack([per_step_run(plan, QTensor(x, plan.input_scale), faults).logits
                     for x in samples])


@pytest.fixture
def run_calls(monkeypatch):
    """Counts Emulator.run calls; batch_logits' per-step fallback goes
    through it."""
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
                got = batch_logits(plan, samples, [fmap])[0]
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
    got = batch_logits(desk_plan, samples, [fmap])[0]
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
    got = batch_logits(plan, samples, [fmap])[0]
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
    out = batch_logits(desk_plan, np.zeros((0, *desk_plan.input_shape), dtype=np.int8),
                       [FaultMap()])[0]
    assert out.shape == (0, desk_plan.classes) and out.dtype == np.int8


def test_wrong_sample_dims(desk_plan):
    c, h, w = desk_plan.input_shape
    with pytest.raises(ShapeError):
        batch_logits(desk_plan, np.zeros((2, c, h + 1, w), dtype=np.int8), [FaultMap()])


@pytest.mark.parametrize("bad", [300, -129, 1.5, float("nan")])
@pytest.mark.parametrize("entry", ["evaluate_accuracy", "batch_logits"])
def test_samples_outside_int8_are_rejected(desk_plan, desk_dataset, entry, bad):
    # Casting to int8 would wrap 300 to 44 and truncate 1.5 to 1.
    samples = desk_dataset.samples[:2].astype(np.float64)
    samples[1, 0, 0, 0] = bad
    with pytest.raises(OutOfRange, match="samples must be integers"):
        if entry == "evaluate_accuracy":
            evaluate_accuracy(desk_plan, Dataset(samples, desk_dataset.labels[:2],
                                                 desk_dataset.scale), range(2))
        else:
            batch_logits(desk_plan, samples, [FaultMap()])


def test_integer_valued_samples_of_any_dtype_are_accepted(desk_plan, desk_dataset):
    samples = desk_dataset.samples[:2]
    want = batch_logits(desk_plan, samples, [FaultMap()])[0]
    for dtype in (np.int64, np.float32, np.float64):
        assert np.array_equal(batch_logits(desk_plan, samples.astype(dtype), [FaultMap()])[0],
                              want)
    assert np.array_equal(batch_logits(desk_plan, samples.tolist(), [FaultMap()])[0], want)


def test_fault_map_must_match_array(desk_plan, desk_dataset):
    with pytest.raises(ShapeError):
        batch_logits(desk_plan, desk_dataset.samples[:2], [FaultMap(), FaultMap(4, 4)])


def test_dataset_scale_must_match_plan(desk_plan, desk_dataset):
    ds = Dataset(desk_dataset.samples, desk_dataset.labels, desk_dataset.scale * 2)
    with pytest.raises(ShapeError):
        evaluate_accuracy(desk_plan, ds, range(4))


DEFAULT_BUDGET = macarray.BATCH_BYTES
# 1 MiB sits between one byte (one run and one sample per block) and the default.
BUDGETS = [1, 1 << 20, DEFAULT_BUDGET, 1 << 30]


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


def make_conv_only_model(rng: np.random.Generator, cout: int) -> ModelGraph:
    """One conv on the input, which is also the output: its slab is the result."""
    cin, h, w = (int(v) for v in rng.integers(3, 13, size=3))
    conv = mac_layer(rng, "conv", "conv", "input", cin, cout, 3, 1, 1)
    return ModelGraph([conv], (cin, h, w), 2.0 ** -6, "conv", cout * h * w)


def make_conv_relu_conv_model(rng: np.random.Generator) -> ModelGraph:
    """conv -> relu -> conv, whose output conv reads 12 channels and keeps
    the input's spatial size: a slab input takes the correction, a dense one
    the masked GEMM, and either output is (runs, Cout, S, H, W) before the
    logits are put back in sample order."""
    cin, h, w = (int(v) for v in rng.integers(3, 9, size=3))
    cout = int(rng.integers(3, 8))
    layers = [
        mac_layer(rng, "conv1", "conv", "input", cin, 12, 3, 1, 1),
        LayerSpec(id="relu", kind="relu", inputs=["conv1"]),
        mac_layer(rng, "conv2", "conv", "relu", 12, cout, 3, 1, 1),
    ]
    return ModelGraph(layers, (cin, h, w), 2.0 ** -6, "conv2", cout * h * w)


def _sparse_maps(mi: int) -> list[FaultMap]:
    """Maps that fault few units: one single-lane map per unit, then k = 4
    maps. With no k = 64 map in the call, whole blocks keep d < Cout and pad
    runs that fault fewer channels than their block's widest."""
    value = ERROR_VALUES[mi % len(ERROR_VALUES)]
    return ([single_lane_map(u, (u + mi) % 8, fault_for_error_value(value)) for u in range(8)]
            + [sample_random_fault_map(4, fault_for_error_value(v), mi * 1000 + 4, 8, 8)
               for v in ERROR_VALUES])


def _check_corpus(m_factor: float):
    rng = np.random.default_rng(31)
    models = _models() + [make_conv_only_model(rng, cout) for cout in (5, 12, 20)]
    models.append(make_conv_relu_conv_model(np.random.default_rng(32)))
    for mi, g in enumerate(models):
        for layer in g.layers:
            if layer.kind in ("conv", "fc"):  # m == weight_scale keeps every add's scales equal
                layer.m = layer.weight_scale = layer.m * m_factor
        plan = plan_model(g)
        samples = rng.integers(-128, 128, size=(3, *g.input_shape)).astype(np.int8)
        dense_maps = [FaultMap(), _pulse_map()] + [
            sample_random_fault_map(k, fault_for_error_value(v), mi * 1000 + k, 8, 8)
            for k in K_VALUES for v in ERROR_VALUES]
        for maps in (dense_maps, _sparse_maps(mi)):
            expected = np.stack([_per_sample(plan, fmap, samples) for fmap in maps])
            got = batch_logits(plan, samples, maps)
            assert got.dtype == np.int8 and got.shape == (len(maps), 3, g.classes)
            assert np.array_equal(got, expected), mi


@pytest.mark.parametrize("budget", BUDGETS)
def test_batch_logits_matches_run_on_corpus(monkeypatch, budget):
    monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
    _check_corpus(1.0)


@pytest.mark.parametrize("budget", BUDGETS)
def test_batch_logits_matches_run_on_corpus_off_shift(monkeypatch, budget):
    # The corpus draws m = 2^-6 ... 2^-8, whose float32 accumulators are
    # requantized in place; 3/4 of each takes every one through a float64 copy.
    monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
    _check_corpus(0.75)


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


def _cin9_fc(extra: int) -> ModelGraph:
    """One fc with Cin = 9, whose channels take ceil(9 / 8) = 2 micro-ops
    per output: fault-free, the bound is bias + 2 x 8 x 16384, which reaches
    ACC_MAX exactly at extra = 0 (9 // 8 = 1 group would count half)."""
    rng = np.random.default_rng(26)
    fc = mac_layer(rng, "fc", "fc", "input", 9, 2, 1, m=2.0 ** -25)
    fc.bias = np.array([ACC_MAX - 2 * 8 * PRODUCT_MAX + extra, 3], dtype=np.int32)
    return ModelGraph([fc], (9, 1, 1), 2.0 ** -6, "fc", 2)


@pytest.mark.parametrize("extra, falls_back", [(0, False), (1, True)])
def test_bound_edge_counts_a_partial_lane_group(run_calls, extra, falls_back):
    plan = plan_model(_cin9_fc(extra))
    samples = np.full((2, 9, 1, 1), 127, dtype=np.int8)
    expected = _per_sample(plan, FaultMap(), samples)
    run_calls.clear()
    assert np.array_equal(batch_logits(plan, samples, [FaultMap()])[0], expected)
    assert len(run_calls) == (len(samples) if falls_back else 0)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts run_program calls on every kernel module. Request it after
    ``backend``, so that it patches the kernel the emulator resolves."""
    calls = []
    for kern in {macarray.get_kernel(), _kernel_py}:
        def spy(*args, real=kern.run_program):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kern, "run_program", spy)
    return calls


def test_run_matches_per_step_run(backend, kernel_calls):
    # Every corpus model passes the bound under these maps, so the untraced
    # runs take the closed form and never reach the kernel.
    rng = np.random.default_rng(17)
    for mi, g in enumerate(_models()):
        plan = plan_model(g)
        maps = [FaultMap(),
                sample_random_fault_map(8, LaneFault.stuck_zero(), mi, 8, 8),
                sample_random_fault_map(4, LaneFault.constant(ERROR_VALUES[mi % 5]), mi, 8, 8),
                sample_random_fault_map(64, LaneFault.constant(-131072), mi, 8, 8)]
        for fmap in maps:
            emu = Emulator(plan, fmap)
            for _ in range(SAMPLES):
                x = QTensor(rng.integers(-128, 128, size=g.input_shape).astype(np.int8),
                            g.input_scale)
                kernel_calls.clear()
                got = emu.run(x)
                assert kernel_calls == [], mi
                assert got.trace is None
                assert_same_outputs(got, per_step_run(plan, x, fmap))


def _non_square_maps(rng: np.random.Generator, cfg: ArrayConfig) -> list[FaultMap]:
    """A single-lane, a multi-lane and two full maps on a cfg array, each
    with its closed form (permanent faults, far from the no-saturation bound
    on models of make_random_model's size). Forced values stay within a
    few products, so that the outputs show which products a lane drops
    rather than saturating at an int8 rail."""
    cells = cfg.units * cfg.lanes
    value = lambda: int(rng.integers(-512, 513))
    single = single_lane_map(int(rng.integers(cfg.units)), int(rng.integers(cfg.lanes)),
                             LaneFault.constant(value()), cfg.units, cfg.lanes)
    multi = sample_random_fault_map(int(rng.integers(2, cells - 1)), LaneFault.stuck_zero(),
                                    int(rng.integers(1 << 30)), cfg.units, cfg.lanes)
    full = sample_random_fault_map(cells, LaneFault.stuck_zero(), 0, cfg.units, cfg.lanes)
    mixed = FaultMap(cfg.units, cfg.lanes)
    for u in range(cfg.units):
        for lane in range(cfg.lanes):
            mixed.set(u, lane, LaneFault.stuck_zero() if rng.integers(2) else
                      LaneFault.constant(value()))
    return [single, multi, full, mixed]


@pytest.mark.parametrize("cfg", [ArrayConfig(3, 5), ArrayConfig(8, 2), ArrayConfig(5, 3)],
                         ids=lambda cfg: f"{cfg.units}x{cfg.lanes}")
def test_non_square_arrays_match_the_oracle(cfg, run_calls):
    # On a square array units == lanes, so a closed form that took one for
    # the other would still agree with the per-step kernel. The scalar
    # oracle maps channel o to unit o mod units and c to lane c mod lanes
    # on its own; batch_logits, untraced and traced Emulator.run must equal
    # it. Models over 20000 micro-ops are skipped to bound the oracle's time.
    rng = np.random.default_rng(cfg.units * 10 + cfg.lanes)
    checked = 0
    while checked < 5:
        g = make_random_model(rng)
        plan = plan_model(g, cfg)
        if plan.total_micro_ops > 20000:
            continue
        samples = rng.integers(-128, 128, size=(2, *g.input_shape)).astype(np.int8)
        maps = _non_square_maps(rng, cfg)
        want = [[oracle_run(plan, QTensor(x, g.input_scale), fmap) for x in samples]
                for fmap in maps]
        run_calls.clear()
        got = batch_logits(plan, samples, maps)
        assert run_calls == [], "took the per-step fallback"
        assert np.array_equal(got, [[w.logits for w in row] for row in want]), checked
        for fmap, row in zip(maps, want):
            fast, traced = Emulator(plan, fmap), Emulator(plan, fmap, trace=True)
            for x, w in zip(samples, row):
                assert_same_outputs(fast.run(QTensor(x, g.input_scale)), w)
                assert_same_run(traced.run(QTensor(x, g.input_scale)), w)
        checked += 1


def test_only_traced_pulse_and_over_bound_runs_call_the_kernel(desk_plan, desk_dataset,
                                                               kernel_calls):
    x = desk_dataset.sample(0)
    mac_layers = sum(prog.is_mac for prog in desk_plan.programs)
    permanent = [FaultMap(), single_lane_map(2, 3, LaneFault.constant(-131072)),
                 sample_random_fault_map(64, LaneFault.stuck_zero(), 5, 8, 8)]
    for fmap in permanent:
        kernel_calls.clear()
        fast = Emulator(desk_plan, fmap).run(x)
        assert kernel_calls == []
        traced = Emulator(desk_plan, fmap, trace=True).run(x)
        assert len(kernel_calls) == mac_layers
        assert_same_outputs(fast, traced)
    kernel_calls.clear()
    Emulator(desk_plan, _pulse_map()).run(x)
    assert len(kernel_calls) == mac_layers
    g = _rail_model()
    g.layers[0].bias[0] += 1001
    kernel_calls.clear()
    Emulator(plan_model(g), FaultMap()).run(QTensor(np.zeros((24, 1, 1), np.int8), 2.0 ** -6))
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("extra, falls_back", [(1000, False), (1001, True)])
def test_run_bound_edge(kernel_calls, extra, falls_back):
    # test_bound_edge for Emulator.run: at ACC_MAX the closed form, one above
    # it the per-step kernel; both equal the scalar oracle.
    g = _rail_model()
    g.layers[0].bias[0] += extra
    plan = plan_model(g)
    x = QTensor(np.full((24, 1, 1), 127, dtype=np.int8), g.input_scale)
    got = Emulator(plan, FaultMap()).run(x)
    assert len(kernel_calls) == falls_back
    assert_same_outputs(got, oracle_run(plan, x, FaultMap()))


@pytest.mark.parametrize("extra, falls_back", [(0, False), (1, True)])
def test_run_bound_edge_counts_a_partial_lane_group(kernel_calls, extra, falls_back):
    plan = plan_model(_cin9_fc(extra))
    x = QTensor(np.full((9, 1, 1), 127, dtype=np.int8), plan.input_scale)
    got = Emulator(plan, FaultMap()).run(x)
    assert len(kernel_calls) == falls_back
    assert_same_outputs(got, oracle_run(plan, x, FaultMap()))


def test_run_on_rail_maps(kernel_calls):
    # The map that faults every lane saturates per step (logit 64, where the
    # unsaturated closed form would give 65), so Emulator.run must fall back.
    plan = plan_model(_rail_model())
    maps, falls_back = _rail_maps()
    x = QTensor(np.random.default_rng(4).integers(-128, 128, size=(24, 1, 1)).astype(np.int8),
                2.0 ** -6)
    for fmap, slow in zip(maps, falls_back):
        kernel_calls.clear()
        got = Emulator(plan, fmap).run(x)
        assert len(kernel_calls) == slow
        assert_same_outputs(got, oracle_run(plan, x, fmap))
    assert Emulator(plan, maps[1]).run(x).logits[0] == 64


@pytest.fixture
def blocks(desk_plan, monkeypatch):
    """Records the sample rows of every partials build of the input (by the
    first MAC layer; later layers build their golden input's partials too)
    and the run range of every block of the desk model's output layer."""
    seen = []
    real_partials, real_runs = macarray._partials, macarray._mac_runs
    first = next(p.layer.id for p in desk_plan.programs if p.is_mac)

    def partials(op, x):
        if op.prog.layer.id == first:  # x is (Cin, S, H, W): record sample rows
            seen.append(("partials", x.transpose(1, 0, 2, 3).copy()))
        return real_partials(op, x)

    def runs(op, x, r0, rb, *args):
        if op.prog.layer.id == desk_plan.output:  # a dense input (runs, Cin, S, H, W)
            seen.append(("runs", r0, x.shape[0], x.shape[2]))
        return real_runs(op, x, r0, rb, *args)

    monkeypatch.setattr(macarray, "_partials", partials)
    monkeypatch.setattr(macarray, "_mac_runs", runs)
    return seen


@pytest.mark.parametrize("budget", [1, 60_000, 1 << 20, DEFAULT_BUDGET])
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


def test_layer_faulted_on_every_channel_is_dense_from_the_start(desk_plan, desk_dataset,
                                                                 monkeypatch):
    # Every run faults every unit, so conv1's output is dense in every run
    # block: no golden tensor is built for it and the values it feeds, and
    # conv2 builds no partials of one. A clean run keeps conv1 a slab.
    built = []
    real = macarray._partials
    monkeypatch.setattr(macarray, "_partials",
                        lambda op, x: built.append(op.prog.layer.id) or real(op, x))
    lane0 = FaultMap()
    for unit in range(8):
        lane0.set(unit, 0, LaneFault.constant(-9 * unit))
    maps = [sample_random_fault_map(64, fault_for_error_value(v), 3, 8, 8)
            for v in (0, 1, -131072)] + [lane0]
    samples = desk_dataset.samples[:5]
    got = batch_logits(desk_plan, samples, maps)
    assert built == ["conv1"]
    for r, fmap in enumerate(maps):
        emu = Emulator(desk_plan, fmap)
        for s, x in enumerate(samples):
            assert np.array_equal(got[r, s], emu.run(QTensor(x, desk_plan.input_scale)).logits)
    assert np.array_equal(got, np.stack([_per_sample(desk_plan, m, samples) for m in maps]))
    built.clear()
    assert np.array_equal(batch_logits(desk_plan, samples, maps + [FaultMap()])[:-1], got)
    assert built == ["conv1", "conv2"]


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


# GEMM dtype. A MAC layer runs in float32 when 128 * max_o sum |W[o]| plus
# the largest |bias + forced values| over the call's runs is at most 2^24,
# so every partial sum is an integer float32 holds exactly; otherwise it
# runs in float64. Each case is also checked bit for bit against Emulator.run.

F32_EXACT = 2 ** 24


@pytest.fixture
def gemm_dtypes(monkeypatch):
    """Records layer id -> set of op.w dtype names of every MAC block."""
    seen: dict[str, set[str]] = {}

    def spy(name):
        real = getattr(macarray, name)

        def record(op, *args):
            seen.setdefault(op.prog.layer.id, set()).add(op.w.dtype.name)
            return real(op, *args)

        monkeypatch.setattr(macarray, name, record)

    for name in ("_partials", "_mac_runs"):
        spy(name)
    return seen


def _check_batch(plan, samples, maps) -> np.ndarray:
    expected = np.stack([_per_sample(plan, fmap, samples) for fmap in maps])
    got = batch_logits(plan, samples, maps)
    assert np.array_equal(got, expected)
    return expected


def _probe_model(cin: int, biases, m: float, second: bool) -> ModelGraph:
    """An fc "probe" with zero weights on a (cin, 1, 1) input, so that its
    accumulators are its biases plus forced values; with ``second`` it reads
    a random fc instead of the input, which takes the masked path."""
    rng = np.random.default_rng(12)
    probe = mac_layer(rng, "probe", "fc", "input", cin, len(biases), 1, m=m)
    probe.weights[:] = 0
    probe.bias = np.array(biases, dtype=np.int32)
    layers = [probe]
    if second:
        layers.insert(0, mac_layer(rng, "first", "fc", "input", cin, cin, 1))
        probe.inputs = ["first"]
    return ModelGraph(layers, (cin, 1, 1), 2.0 ** -6, "probe", len(biases))


@pytest.mark.parametrize("second", [False, True])
@pytest.mark.parametrize("extra, dtype", [(0, "float32"), (1, "float64")])
def test_gemm_dtype_boundary(gemm_dtypes, second, extra, dtype):
    # Channel 0's weights are all 16 over Cin=16: 128 * 256 plus a bias of
    # -(2^24 - 32768) reaches the bound exactly (an all -128 sample drives
    # the accumulator to -2^24); one more unit takes float64.
    g = _probe_model(16, [-(F32_EXACT - 32768 + extra), 5, -7], 2.0 ** -18, second)
    probe = g.layers[-1]
    probe.weights[0] = 16
    probe.weights[1:] = np.random.default_rng(3).integers(-16, 17, size=(2, 16, 1, 1))
    plan = plan_model(g)
    samples = np.random.default_rng(6).integers(-128, 128, size=(4, 16, 1, 1)).astype(np.int8)
    samples[0] = -128
    _check_batch(plan, samples, [FaultMap()])
    assert gemm_dtypes["probe"] == {dtype}


@pytest.mark.parametrize("second", [False, True])
@pytest.mark.parametrize("acc, m, logit, dtype", [
    (F32_EXACT + 1, 2.0 ** -25, 1, "float64"),
    (F32_EXACT - 7, 100.5000015 / (F32_EXACT - 7), 101, "float32"),
])
def test_gemm_dtype_probe_rounding(gemm_dtypes, second, acc, m, logit, dtype):
    # No products: the accumulators are the biases +-acc. Per step,
    # (2^24 + 1) * 2^-25 = 0.5 + 2^-25 rounds to 1, but float32 holds only
    # 2^24, whose 0.5 would round to the even 0. 2^24 - 7 is exact in
    # float32, and acc * m = 100.5 + 1.5e-6 rounds to 101 in float64; held
    # in float32 the scaled value would read 100.5, hence 100.
    plan = plan_model(_probe_model(8, [acc, -acc], m, second))
    samples = np.random.default_rng(2).integers(-128, 128, size=(3, 8, 1, 1)).astype(np.int8)
    expected = _check_batch(plan, samples, [FaultMap()])
    assert (expected == [logit, -logit]).all()
    assert gemm_dtypes["probe"] == {dtype}


def test_gemm_dtype_float32_off_shift_known_answer(gemm_dtypes):
    # Zero weights keep the probe in float32 with accumulator -2822575,
    # which m scales to about -0.50000003: float64 rounds it to -1, a
    # product taken in float32 would read -0.5 and round to 0.
    m = 1.5 / 8467724.5
    plan = plan_model(_probe_model(8, [-2822575, 5], m, False))
    samples = np.random.default_rng(4).integers(-128, 128, size=(2, 8, 1, 1)).astype(np.int8)
    expected = _check_batch(plan, samples, [FaultMap()])
    assert (expected[0, :, 0] == -1).all()
    assert gemm_dtypes["probe"] == {"float32"}


def test_gemm_dtype_all_minus_128_weights(gemm_dtypes):
    # 3x3 conv over Cin=128 on a 3x3 input: 1152 taps of weight -128, whose
    # true bound 128 * 128 * 1152 + 1 is over 2^24 (np.abs on int8 would
    # read each |-128| as -128). At x = 120 the accumulator is
    # -128 * 138240 + 1 = -17694719, which float32 rounds to -17694720; m
    # puts a rounding boundary between the two.
    rng = np.random.default_rng(9)
    m = 3 / 35389439  # -17694719.5 * m = -1.5
    conv = mac_layer(rng, "conv", "conv", "input", 128, 2, 3, m=m)
    conv.weights[:] = -128
    conv.bias = np.array([1, -1], dtype=np.int32)
    plan = plan_model(ModelGraph([conv], (128, 3, 3), 2.0 ** -6, "conv", 2))
    samples = np.full((2, 128, 3, 3), 120, dtype=np.int8)
    samples[1] = rng.integers(-128, 128, size=(128, 3, 3))
    expected = _check_batch(plan, samples, [FaultMap()])
    assert expected[0, 0, 0] == -1
    assert gemm_dtypes["conv"] == {"float64"}


@pytest.mark.parametrize("second", [False, True])
def test_gemm_dtype_mixed_runs(gemm_dtypes, second):
    # Lane 0 carries 8 of the probe's 64 channels, so a constant 131071 on
    # unit 0, lane 0 adds 8 * 131071 to channel 0: 2^24 + 1 in all. The
    # fault-free run alone stays in float32; together with the faulted run
    # the layer takes float64 for both, and the faulted run reads 1.
    bias = F32_EXACT + 1 - 8 * 131071
    plan = plan_model(_probe_model(64, [bias, 3], 2.0 ** -25, second))
    samples = np.random.default_rng(1).integers(-128, 128, size=(2, 64, 1, 1)).astype(np.int8)
    fault = FaultMap()
    fault.set(0, 0, LaneFault.constant(131071))
    _check_batch(plan, samples, [FaultMap()])
    assert gemm_dtypes.pop("probe") == {"float32"}
    expected = _check_batch(plan, samples, [FaultMap(), fault])
    assert gemm_dtypes["probe"] == {"float64"}
    assert (expected[0, :, 0] == 0).all() and (expected[1, :, 0] == 1).all()


def test_gemm_dtype_correction_order(gemm_dtypes, paths):
    # fc1 (1400 channels) reads the input; stuck-at-0 on lane 0 of units 0-2
    # drops its only product, so its 525 channels o = 0, 1, 2 mod 8 read
    # 127 instead of the golden -128. fc2's channel 7 weighs each of them
    # 127: sum |W| = 66675 keeps it in float32, and its slab input takes the
    # correction path. Its true accumulator is 525 * 127 * 127 = 8467725,
    # and m puts a rounding boundary between 8467725 and 8467724: a partial
    # sum beyond the run's own int8 products (odd and over 2^24) would be
    # rounded by float32 and read 1.
    rng = np.random.default_rng(14)
    fc1 = mac_layer(rng, "fc1", "fc", "input", 8, 1400, 1, m=1.0)
    fc1.weights[:] = 0
    fc1.weights[:, 0] = -127
    fc1.bias[:] = 16000
    fc2 = mac_layer(rng, "fc2", "fc", "fc1", 1400, 8, 1, m=1.5 / 8467724.5)
    fc2.weights[:] = 0
    fc2.weights[7, np.arange(1400) % 8 < 3] = 127
    fc2.bias[:] = 0
    plan = plan_model(ModelGraph([fc1, fc2], (8, 1, 1), 2.0 ** -6, "fc2", 8))
    samples = np.full((2, 8, 1, 1), 127, dtype=np.int8)
    fault = FaultMap()
    for unit in range(3):
        fault.set(unit, 0, LaneFault.stuck_zero())
    expected = _check_batch(plan, samples, [fault])
    assert (expected[0, :, 7] == 2).all()
    assert gemm_dtypes["fc2"] == {"float32"} and ("fc2", "corrected") in paths


def _wide_like_model() -> ModelGraph:
    """The wide benchmark model's topology (Cin 16 and 24, weights within
    +-16) on an 8x8 input."""
    rng = np.random.default_rng(16)
    layers = [
        mac_layer(rng, "conv1", "conv", "input", 16, 24, 3, 2, 1),
        LayerSpec(id="relu1", kind="relu", inputs=["conv1"]),
        LayerSpec(id="pool1", kind="maxpool", inputs=["relu1"], k=2, stride=2),
        mac_layer(rng, "conv2", "conv", "pool1", 24, 24, 3, 1, 1),
        LayerSpec(id="relu2", kind="relu", inputs=["conv2"]),
        LayerSpec(id="add1", kind="add", inputs=["relu2", "pool1"]),
        LayerSpec(id="gap", kind="gavgpool", inputs=["add1"]),
        mac_layer(rng, "fc", "fc", "gap", 24, 8, 1),
    ]
    for layer in layers:
        if layer.kind in ("conv", "fc"):
            layer.m = layer.weight_scale = 2.0 ** -7
    return ModelGraph(layers, (16, 8, 8), 2.0 ** -6, "fc", 8)


@pytest.mark.parametrize("model", ["desk", "wide"])
def test_gemm_dtype_float32_on_heatmap_workloads(gemm_dtypes, desk_plan, desk_dataset, model):
    plan = desk_plan if model == "desk" else plan_model(_wide_like_model())
    if model == "desk":
        samples = desk_dataset.samples[:2]
    else:
        samples = np.random.default_rng(0).integers(-128, 128, size=(2, 16, 8, 8)).astype(np.int8)
    maps = [single_lane_map(u, lane, fault_for_error_value(v))
            for v in (0, 131071, -131072) for u in range(8) for lane in range(8)]
    _check_batch(plan, samples, maps)
    mac_ids = {p.layer.id for p in plan.programs if p.is_mac}
    assert gemm_dtypes == {lid: {"float32"} for lid in mac_ids}


@pytest.fixture
def paths(monkeypatch):
    """Records (layer id, path) of every MAC block, where the path is
    "slab" or "dense" for a layer reading a value with no run axis (both
    through _mac_slab, by what it returns), else "corrected" or "masked"
    (both through _mac_runs, by whether it reads a slab)."""
    seen = []

    def spy(name, path):
        real = getattr(macarray, name)

        def record(op, x, *args):
            y = real(op, x, *args)
            seen.append((op.prog.layer.id, path(x, y)))
            return y

        monkeypatch.setattr(macarray, name, record)

    spy("_mac_slab", lambda x, y: "slab" if isinstance(y, macarray._Slab) else "dense")
    spy("_mac_runs", lambda x, y: "corrected" if isinstance(x, macarray._Slab) else "masked")
    return seen


@pytest.mark.parametrize("budget", [60_000, DEFAULT_BUDGET])
def test_heatmap_blocks_take_the_slab_and_correction_paths(paths, monkeypatch, budget):
    # A single-lane map faults 3 of the 24 channels of conv1 on one unit, so
    # every block's slab has d = 3 < 24, which conv2 reads; fc reads a dense
    # value (after the add).
    monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
    plan = plan_model(_wide_like_model())
    samples = np.random.default_rng(3).integers(-128, 128, size=(2, 16, 8, 8)).astype(np.int8)
    maps = [single_lane_map(u, lane, fault_for_error_value(v))
            for v in (0, 131071, -131072) for u in range(8) for lane in range(8)]
    _check_batch(plan, samples, maps)
    blocks = Counter(layer for layer, _ in paths)["conv1"]
    assert blocks >= (2 if budget < DEFAULT_BUDGET else 1)
    assert Counter(paths) == Counter({("conv1", "slab"): blocks, ("conv2", "corrected"): blocks,
                                      ("fc", "masked"): blocks})


def test_half_width_slabs_take_the_correction_path(paths, desk_plan, desk_dataset):
    # Each map faults one used lane on each of four units, so conv1's slab
    # has d = 4 = Cin / 2 channels of conv2 in every block: a slab input
    # takes the correction path however wide it is.
    maps = []
    for i, v in enumerate((0, 1, -1, 131071, -131072)):
        fmap = FaultMap()
        for u in range(i, i + 8, 2):
            fmap.set(u % 8, (3 * u + i) % 8, fault_for_error_value(v))
        maps.append(fmap)
    _check_batch(desk_plan, desk_dataset.samples[:3], maps)
    assert set(paths) == {("conv1", "slab"), ("conv2", "corrected"), ("fc", "masked")}


def test_dense_maps_take_the_dense_and_masked_paths(paths, desk_plan, desk_dataset):
    # k = 64 faults every unit: d = Cout, so conv1 runs the K = 8 GEMM over
    # all channels and conv2 the masked GEMM.
    maps = [sample_random_fault_map(64, fault_for_error_value(v), 5, 8, 8) for v in (0, 1, -1)]
    _check_batch(desk_plan, desk_dataset.samples[:3], maps)
    assert set(paths) == {("conv1", "dense"), ("conv2", "masked"), ("fc", "masked")}


def test_slab_or_dense_is_decided_per_run_block(paths, desk_plan, desk_dataset, monkeypatch):
    # One run and one sample per block: a k = 64 run faults every channel of
    # conv1, so its block is dense and conv2 takes the masked GEMM, while a
    # single-lane run of the same call keeps its block a slab, which conv2
    # corrects.
    monkeypatch.setattr(macarray, "BATCH_BYTES", 1)
    k64 = [sample_random_fault_map(64, fault_for_error_value(v), 5, 8, 8) for v in (0, -1)]
    single = [single_lane_map(u, lane, fault_for_error_value(v))
              for u, lane, v in ((0, 0, 1), (3, 5, 131071), (7, 2, 0))]
    maps = [k64[0], single[0], single[1], k64[1], single[2]]
    samples = desk_dataset.samples[:2]
    _check_batch(desk_plan, samples, maps)
    expected = []
    for _ in samples:
        for fmap in maps:
            dense = any(fmap is m for m in k64)
            expected += [("conv1", "dense" if dense else "slab"),
                         ("conv2", "masked" if dense else "corrected"), ("fc", "masked")]
    assert paths == expected


def _slab_model(cfg: ArrayConfig, dtype: str) -> ModelGraph:
    """One 3x3 conv with Cin = 12 on a 3x3 input, which is also the output,
    so every channel of its slab is a logit. Cout = 12 gives units of one
    and of several channels on every array below. Under "float64", channel
    0's bias of 2^24 lifts the layer's dtype bound past float32 (that
    channel saturates; the others stay informative)."""
    rng = np.random.default_rng(cfg.units * 10 + cfg.lanes)
    conv = mac_layer(rng, "conv", "conv", "input", 12, 12, 3, 1, 1, m=2.0 ** -8)
    if dtype == "float64":
        conv.bias[0] = F32_EXACT
    return ModelGraph([conv], (12, 3, 3), 2.0 ** -6, "conv", 12 * 9)


def _slab_maps(rng: np.random.Generator, cfg: ArrayConfig) -> list[FaultMap]:
    """Maps of the slab model's lane groups G = min(12, lanes): one unit
    dropping m = 1 .. G lanes, three that fault several units with
    different drop counts (padded with the zero row), one that leaves a
    single unit clean with another dropping all G lanes (d * m > Cout,
    d < Cout), a full map (d = Cout) and a clean one (m = 0)."""
    groups = min(12, cfg.lanes)

    def fault(fmap, unit, lanes):
        for lane in lanes:
            fmap.set(unit, int(lane), LaneFault.constant(int(rng.integers(-512, 513)))
                     if rng.integers(2) else LaneFault.stuck_zero())

    maps = []
    for m in range(1, groups + 1):
        maps.append(FaultMap(cfg.units, cfg.lanes))
        fault(maps[-1], int(rng.integers(cfg.units)), rng.choice(groups, m, replace=False))
    for _ in range(3):
        maps.append(FaultMap(cfg.units, cfg.lanes))
        for unit in rng.choice(cfg.units, int(rng.integers(2, cfg.units)), replace=False):
            fault(maps[-1], int(unit), rng.choice(groups, int(rng.integers(1, groups + 1)),
                                                  replace=False))
    clean = int(rng.integers(cfg.units))
    maps.append(FaultMap(cfg.units, cfg.lanes))
    for unit in range(cfg.units):
        if unit != clean:
            fault(maps[-1], unit, range(groups) if unit == (clean + 1) % cfg.units else [0])
    maps.append(FaultMap(cfg.units, cfg.lanes))
    for unit in range(cfg.units):
        fault(maps[-1], unit, [int(rng.integers(groups))])
    return maps + [FaultMap(cfg.units, cfg.lanes)]


@pytest.fixture
def free_gemms(monkeypatch):
    """Layer ids of every _from_partials call, the all-channel GEMM."""
    seen = []
    real = macarray._from_partials

    def spy(op, *args):
        seen.append(op.prog.layer.id)
        return real(op, *args)

    monkeypatch.setattr(macarray, "_from_partials", spy)
    return seen


def _slab_path(fmap: FaultMap, cout: int, groups: int) -> str:
    """The path _mac_slab takes for a block of fmap alone, from the lanes
    each unit faults: "dense" when d = Cout, "gemm" when d * m > Cout, else
    "gather"."""
    lanes = [{lane for lane in range(groups) if fmap.get(u, lane).mode is not FaultMode.NONE}
             for u in range(fmap.units)]
    d = sum(1 for o in range(cout) if lanes[o % fmap.units])
    m = max(map(len, lanes))
    return "dense" if d == cout else "gemm" if d * m > cout else "gather"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("cfg", [ArrayConfig(8, 8), ArrayConfig(3, 5), ArrayConfig(8, 2)],
                         ids=lambda cfg: f"{cfg.units}x{cfg.lanes}")
def test_slab_from_golden_matches_run_and_oracle(cfg, dtype, gemm_dtypes, monkeypatch):
    # A slab channel is its golden accumulator minus the partials of the
    # lane groups its unit drops, plus the run's constants. At one run per
    # block every map takes its own path: the gather for d * m <= Cout, the
    # all-channel GEMM for d * m > Cout, dense at d = Cout. At the default
    # budget the maps share blocks. Both must equal Emulator.run and the
    # scalar oracle.
    g = _slab_model(cfg, dtype)
    plan = plan_model(g, cfg)
    rng = np.random.default_rng(cfg.units * 100 + cfg.lanes + len(dtype))
    maps = _slab_maps(rng, cfg)
    samples = rng.integers(-128, 128, size=(2, *g.input_shape)).astype(np.int8)
    want = np.array([[oracle_run(plan, QTensor(x, g.input_scale), fmap).logits for x in samples]
                     for fmap in maps])
    for fmap, row in zip(maps, want):
        emu = Emulator(plan, fmap)
        assert np.array_equal([emu.run(QTensor(x, g.input_scale)).logits for x in samples], row)
    taken = []
    real_slab, real_gemm = macarray._mac_slab, macarray._from_partials

    def slab(*args):
        taken.append("gather")
        y = real_slab(*args)
        if not isinstance(y, macarray._Slab):
            taken[-1] = "dense"
        return y

    def gemm(*args):
        taken[-1] = "gemm"
        return real_gemm(*args)

    monkeypatch.setattr(macarray, "_mac_slab", slab)
    monkeypatch.setattr(macarray, "_from_partials", gemm)
    for budget in (1, DEFAULT_BUDGET):
        monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
        taken.clear()
        assert np.array_equal(batch_logits(plan, samples, maps), want), budget
    monkeypatch.setattr(macarray, "BATCH_BYTES", 1)
    taken.clear()
    batch_logits(plan, samples, maps)
    expected = [_slab_path(fmap, 12, min(12, cfg.lanes)) for fmap in maps]
    assert taken == expected * len(samples)  # one block per (sample, run), runs inner
    assert {"gather", "gemm", "dense"} <= set(expected)
    # One block of the one-unit maps with m = 1 and m = min(3, G): its d * m
    # stays within Cout, so it gathers, and the m = 1 run's channels read
    # the zero row past their one drop.
    few = [0, min(3, cfg.lanes) - 1]
    monkeypatch.setattr(macarray, "BATCH_BYTES", DEFAULT_BUDGET)
    taken.clear()
    assert np.array_equal(batch_logits(plan, samples, [maps[i] for i in few]), want[few])
    assert taken == ["gather"]
    assert gemm_dtypes["conv"] == {dtype}


def test_wide_heatmap_slab_skips_the_all_channel_gemm(free_gemms):
    # A single-lane map drops one lane group on 3 of conv1's 24 channels, so
    # d * m = 3: conv1's slab comes from golden, with no GEMM over all its
    # channels; conv2's correction is the only _from_partials call.
    plan = plan_model(_wide_like_model())
    samples = np.random.default_rng(5).integers(-128, 128, size=(2, 16, 8, 8)).astype(np.int8)
    maps = [single_lane_map(u, lane, fault_for_error_value(v))
            for v in (0, 131071, -131072) for u in range(8) for lane in range(8)]
    _check_batch(plan, samples, maps)
    assert free_gemms and set(free_gemms) == {"conv2"}


def _buffer_calls(desk_plan, desk_dataset):
    """Two different batch_logits calls: a desk sweep-like one and a wide
    heatmap-like one, as (plan, samples, maps)."""
    wide = plan_model(_wide_like_model())
    heat = [single_lane_map(u, lane, fault_for_error_value(v))
            for v in (0, 131071) for u in range(8) for lane in range(8)]
    sweep = [sample_random_fault_map(k, fault_for_error_value(v), 40 + k, 8, 8)
             for k in (1, 4, 16, 64) for v in (0, 1, -1, 131071)]
    wide_samples = np.random.default_rng(8).integers(-128, 128, size=(2, 16, 8, 8))
    return [(desk_plan, desk_dataset.samples[:6], sweep),
            (wide, wide_samples.astype(np.int8), heat)]


def test_threads_running_at_once_match_serial_logits(desk_plan, desk_dataset):
    # Each thread has its own tile buffers, so calls that overlap in time,
    # from more threads than cores and switching often, give the logits
    # each gives alone.
    calls = _buffer_calls(desk_plan, desk_dataset) * 2
    serial = [batch_logits(*call) for call in calls]
    start, got = threading.Barrier(len(calls)), [[] for _ in calls]

    def work(i):
        start.wait()
        for _ in range(50):
            got[i].append(batch_logits(*calls[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, outs in zip(serial, got):
        assert len(outs) == 50 and all(np.array_equal(out, want) for out in outs)


def test_a_repeated_call_grows_no_buffer(desk_plan, desk_dataset):
    # In a fresh thread, the first calls grow its buffers; the same calls
    # again reuse every buffer as it is, and nothing returned is one.
    calls = _buffer_calls(desk_plan, desk_dataset)
    seen = {}

    def work():
        outs = [batch_logits(*call) for call in calls]
        seen["first"] = dict(vars(macarray._scratch))
        outs += [batch_logits(*call) for call in calls]
        seen["second"] = dict(vars(macarray._scratch))
        seen["outs"] = outs

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    first, second = seen["first"], seen["second"]
    assert {"pad", "cols", "gemm", "keep @ P", "slab", "dropped"} <= set(first)
    assert second.keys() == first.keys()
    assert all(second[slot] is buf for slot, buf in first.items())
    for out in seen["outs"]:
        assert not any(np.shares_memory(out, buf) for buf in second.values())
    mine = vars(macarray._scratch)  # this thread's, another's than the worker's
    assert not any(mine.get(slot) is buf for slot, buf in second.items())


def test_a_buffer_over_the_budget_is_not_kept(desk_plan, desk_dataset, monkeypatch):
    # Under a 4 KiB budget a one-sample, one-run tile of desk's layers asks
    # for larger temporaries: they are fresh arrays, and the thread keeps
    # no buffer over the budget once the call has returned.
    budget, calls = 4096, _buffer_calls(desk_plan, desk_dataset)
    want = [batch_logits(*call) for call in calls]
    monkeypatch.setattr(macarray, "BATCH_BYTES", budget)
    real, over, seen = macarray._scratch_array, [], {}

    def spy(slot, shape, dtype):
        out = real(slot, shape, dtype)
        if out.nbytes > budget:
            over.append(slot)
        return out

    monkeypatch.setattr(macarray, "_scratch_array", spy)

    def work():
        seen["outs"] = [batch_logits(*call) for call in calls]
        seen["kept"] = dict(vars(macarray._scratch))

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    assert {"pad", "cols"} <= set(over)
    assert all(buf.nbytes <= budget for buf in seen["kept"].values())
    assert all(np.array_equal(got, w) for got, w in zip(seen["outs"], want))


@pytest.mark.parametrize("tap", [-1, 17])
def test_im2col_refuses_a_tap_outside_the_input(desk_plan, tap):
    # conv2 reads a 4x4 input: its taps lie in [0, 16], 0 the padding.
    prog = desk_plan.by_id["conv2"]
    taps = prog.taps.copy()
    taps[3, 5] = tap
    bad = dataclasses.replace(prog, taps=taps)
    x = np.zeros((8, 2, 4, 4), dtype=np.int8)
    with pytest.raises(IndexError, match="tap index"):
        macarray._im2col(bad, x, np.float32)
    assert macarray._im2col(prog, x, np.float32).shape == (8, 9, 2, 16)


def test_take_refuses_an_index_outside_the_rows():
    rows = np.arange(12, dtype=np.float32).reshape(4, 3)
    out = np.empty((2, 3), dtype=np.float32)
    assert np.array_equal(macarray._take(rows, np.array([3, 0]), out), rows[[3, 0]])
    for idx in ([4, 0], [0, -1]):
        with pytest.raises(IndexError):
            macarray._take(rows, np.array(idx), out)
