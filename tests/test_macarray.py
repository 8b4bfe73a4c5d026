from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import macfi.macarray as macarray
from macfi.errors import EmptyLogits, ShapeError
from macfi.faultctl import FaultMap, LaneFault, single_lane_map
from macfi.macarray import (
    Emulator,
    TraceEvent,
    classify_argmax,
    mac_dot,
    mult_lane,
)
from macfi.model import ModelGraph, reference_forward
from macfi.planner import plan_model, plan_stats
from macfi.qtensor import PRODUCT_MAX, PRODUCT_MIN, QTensor, conv_out_hw

from helpers import (assert_same_run, mac_layer, make_random_model, oracle_run, random_input,
                     zero_weight_copy)

int8s = st.integers(-128, 127)


class TestMultLane:
    def test_extreme_product(self):
        assert mult_lane(-128, -128) == 16384

    def test_stuck_zero(self):
        assert mult_lane(3, -7, LaneFault.stuck_zero()) == 0

    def test_constant_max(self):
        assert mult_lane(50, 2, LaneFault.constant(131071)) == 131071

    def test_pulse_window(self):
        f = LaneFault.pulse(-9, start=10, length=3)
        assert mult_lane(2, 2, f, cycle=9) == 4
        assert mult_lane(2, 2, f, cycle=10) == -9
        assert mult_lane(2, 2, f, cycle=12) == -9
        assert mult_lane(2, 2, f, cycle=13) == 4

    @given(int8s, int8s)
    def test_genuine_products_in_18bit_subrange(self, a, b):
        v = mult_lane(a, b)
        assert PRODUCT_MIN <= v <= PRODUCT_MAX

    @given(int8s, int8s, st.integers(-131072, 131071))
    @settings(max_examples=100)
    def test_constant_ignores_operands(self, a, b, v):
        assert mult_lane(a, b, LaneFault.constant(v)) == v


class TestMacDot:
    def test_sum_one_to_eight(self):
        pairs = [(i, 1) for i in range(1, 9)]
        assert mac_dot(pairs, 0, FaultMap(), 0) == 36

    def test_constant_substitution(self):
        pairs = [(i, 1) for i in range(1, 9)]
        fmap = FaultMap()
        fmap.set(0, 0, LaneFault.constant(100))
        assert mac_dot(pairs, 0, fmap, 0) == 135  # 36 - 1 + 100

    def test_idle_gating_makes_fault_inert(self):
        pairs = [(i, 1) for i in range(1, 5)] + [None] * 4
        fmap = FaultMap()
        fmap.set(0, 5, LaneFault.stuck_zero())
        assert mac_dot(pairs, 0, fmap, 0) == 10

    def test_fault_on_other_unit_inert(self):
        pairs = [(i, 1) for i in range(1, 9)]
        fmap = FaultMap()
        fmap.set(3, 0, LaneFault.constant(100))
        assert mac_dot(pairs, 0, fmap, 0) == 36

    def test_wrong_slot_count(self):
        with pytest.raises(ShapeError):
            mac_dot([(1, 1)], 0, FaultMap(), 0)


class TestClassifyArgmax:
    def test_tie_break_lowest_index(self):
        assert classify_argmax(np.array([3, 5, 5], dtype=np.int8)) == 1

    def test_single(self):
        assert classify_argmax(np.array([-1], dtype=np.int8)) == 0

    def test_all_equal(self):
        assert classify_argmax(np.array([0, 0, 0, 0], dtype=np.int8)) == 0

    def test_empty(self):
        with pytest.raises(EmptyLogits):
            classify_argmax(np.array([], dtype=np.int8))


class TestOracleEquivalence:
    def test_desk_model_bit_exact(self, desk_graph, desk_plan, desk_dataset):
        for i in range(8):
            x = desk_dataset.sample(i)
            ref_outputs, ref_logits = reference_forward(desk_graph, x)
            res = Emulator(desk_plan).run(x)
            assert np.array_equal(res.logits, ref_logits)
            for lid, want in ref_outputs.items():
                assert res.outputs[lid] == want

    def test_random_models_bit_exact(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            g = make_random_model(rng)
            plan = plan_model(g)
            x = random_input(rng, g)
            ref_outputs, ref_logits = reference_forward(g, x)
            res = Emulator(plan).run(x)
            assert np.array_equal(res.logits, ref_logits)
            for lid, want in ref_outputs.items():
                assert res.outputs[lid] == want

    def test_cycle_count_is_total_micro_ops(self, desk_plan, desk_dataset):
        res = Emulator(desk_plan).run(desk_dataset.sample(0))
        assert res.cycles == desk_plan.total_micro_ops

    def test_input_validation(self, desk_plan):
        bad_shape = np.zeros((1, 8, 8), dtype=np.int8)
        with pytest.raises(ShapeError):
            Emulator(desk_plan).run(QTensor(bad_shape, desk_plan.input_scale))
        good = np.zeros(desk_plan.input_shape, dtype=np.int8)
        with pytest.raises(ShapeError):
            Emulator(desk_plan).run(QTensor(good, 0.123))

    def test_fault_map_dims_must_match(self, desk_plan):
        with pytest.raises(ShapeError):
            Emulator(desk_plan, FaultMap(4, 4))


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 2), st.sampled_from([np.float32, np.float64]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_im2col_matches_padded_slices(h, w, k, stride, pad, dtype, seed):
    # The batched closed form's columns, gathered through the plan's tap
    # index, against slices of np.pad(x) taken the way ref_conv2d takes them.
    assume(k <= min(h, w) + 2 * pad)
    rng = np.random.default_rng(seed)
    c, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    hout, wout = conv_out_hw(h, w, k, stride, pad)
    layer = mac_layer(rng, "c", "conv", "input", c, 1, k, stride, pad)
    prog = plan_model(ModelGraph([layer], (c, h, w), 1.0, "c", hout * wout)).programs[0]
    x = rng.integers(-128, 128, (2, c, n, h, w)).astype(np.int8)  # (runs, C, S, H, W)
    padded = np.pad(x, [(0, 0)] * 3 + [(pad, pad)] * 2)
    want = np.stack([padded[..., i : i + hout * stride : stride, j : j + wout * stride : stride]
                     for i in range(k) for j in range(k)], axis=2)
    got = macarray._im2col(prog, x, dtype)
    assert got.shape == (2, c, k * k, n, hout * wout) and got.dtype == dtype
    assert np.array_equal(got.reshape(want.shape), want)


def test_layer_program_rejects_wrong_input_dims(backend, desk_plan):
    emu = Emulator(desk_plan, single_lane_map(0, 0, LaneFault.constant(5)))
    emu.cycle = 17
    x = QTensor(np.ones((1, 1, 1), dtype=np.int8), desk_plan.input_scale)
    with pytest.raises(ShapeError) as err:
        emu.run_layer_program(desk_plan.by_id["conv2"], x)
    assert err.value.layer == "conv2"
    assert emu.cycle == 17  # the kernel never ran


class TestFaultSemantics:
    def test_all_lanes_stuck_zero_equals_bias_only_model(self, desk_graph, desk_plan,
                                                         desk_dataset):
        fmap = FaultMap()
        for u in range(8):
            for l in range(8):
                fmap.set(u, l, LaneFault.stuck_zero())
        zg = zero_weight_copy(desk_graph)
        for i in range(4):
            x = desk_dataset.sample(i)
            res = Emulator(desk_plan, fmap).run(x)
            want_outputs, want_logits = reference_forward(zg, x)
            assert np.array_equal(res.logits, want_logits)
            for lid, want in want_outputs.items():
                assert res.outputs[lid] == want

    def test_single_unit_fault_localized_to_channel_residue(self, desk_plan, desk_dataset):
        # compare per-layer programs on identical clean inputs
        x = desk_dataset.sample(0)
        clean = Emulator(desk_plan).run(x)
        fmap = FaultMap()
        for lane in range(8):
            fmap.set(2, lane, LaneFault.constant(-77))
        emu = Emulator(desk_plan, fmap)
        for prog in desk_plan.programs:
            src = prog.layer.inputs[0]
            if prog.is_mac:
                clean_in = clean.outputs[src] if src != "input" else x
                emu.cycle = 0
                out = emu.run_layer_program(prog, clean_in)
                diff_channels = {
                    int(c) for c in
                    np.nonzero(np.any(out.data != clean.outputs[prog.layer.id].data,
                                      axis=(1, 2)))[0]
                }
                assert all(c % 8 == 2 for c in diff_channels)

    def test_gated_idle_lanes_cannot_corrupt(self, cin4_plan, cin4_dataset):
        fmap = FaultMap()
        for u in range(8):
            for l in range(4, 8):
                fmap.set(u, l, LaneFault.constant(131071))
        for i in range(4):
            x = cin4_dataset.sample(i)
            clean = Emulator(cin4_plan).run(x)
            faulty = Emulator(cin4_plan, fmap).run(x)
            assert np.array_equal(clean.logits, faulty.logits)
            for lid in clean.outputs:
                assert clean.outputs[lid] == faulty.outputs[lid]

    def test_pulse_outside_cycle_range_is_inert(self, desk_plan, desk_dataset):
        x = desk_dataset.sample(1)
        clean = Emulator(desk_plan).run(x)
        fmap = single_lane_map(0, 0, LaneFault.pulse(131071, desk_plan.total_micro_ops, 50))
        faulty = Emulator(desk_plan, fmap).run(x)
        assert np.array_equal(clean.logits, faulty.logits)

    def test_pulse_window_confined_to_covered_layers(self, desk_plan, desk_dataset):
        # window covering only conv1's cycles must leave later MAC layers
        # unchanged when they are fed identical inputs
        x = desk_dataset.sample(2)
        clean = Emulator(desk_plan).run(x)
        n_conv1 = desk_plan.programs[0].n_ops
        fmap = single_lane_map(1, 3, LaneFault.pulse(-131072, 0, n_conv1))
        faulty = Emulator(desk_plan, fmap).run(x)
        assert not np.array_equal(faulty.outputs["conv1"].data, clean.outputs["conv1"].data)
        emu = Emulator(desk_plan, fmap)
        emu.cycle = n_conv1  # conv2's program starts after conv1's window
        conv2_prog = desk_plan.by_id["conv2"]
        out = emu.run_layer_program(conv2_prog, clean.outputs["pool1"])
        assert out == clean.outputs["conv2"]

    def test_determinism(self, desk_plan, desk_dataset):
        fmap = single_lane_map(3, 4, LaneFault.constant(55))
        x = desk_dataset.sample(3)
        a = Emulator(desk_plan, fmap).run(x)
        b = Emulator(desk_plan, fmap).run(x)
        assert np.array_equal(a.logits, b.logits)
        assert a.cycles == b.cycles


class TestTrace:
    def test_trace_matches_kernel_and_counts_engagements(self, desk_plan, desk_dataset):
        fmap = single_lane_map(1, 2, LaneFault.constant(9))
        x = desk_dataset.sample(0)
        plain = Emulator(desk_plan, fmap).run(x)
        traced = Emulator(desk_plan, fmap, trace=True).run(x)
        assert np.array_equal(plain.logits, traced.logits)
        for lid in plain.outputs:
            assert plain.outputs[lid] == traced.outputs[lid]
        stats = plan_stats(desk_plan)
        assert len(traced.trace) == int(stats.lane_activity[1, 2])
        assert all(ev.unit == 1 and ev.lane == 2 and ev.value == 9 for ev in traced.trace)

    def test_fault_free_trace_is_empty(self, desk_plan, desk_dataset):
        res = Emulator(desk_plan, trace=True).run(desk_dataset.sample(0))
        assert res.trace == []

    def test_no_trace_by_default(self, desk_plan, desk_dataset):
        res = Emulator(desk_plan).run(desk_dataset.sample(0))
        assert res.trace is None

    @staticmethod
    def assert_matches_oracle(plan, x, fmap):
        res = Emulator(plan, fmap, trace=True).run(x)
        assert_same_run(res, oracle_run(plan, x, fmap))
        return res.trace

    def test_events_are_built_once_per_emulator(self, desk_plan, desk_dataset, monkeypatch):
        # The mux reads row indices and fault arrays, never an activation:
        # the events are built when the emulator is, and every run returns
        # its own list of them, equal to the oracle's on the run's sample.
        made = []

        def counted(*args):
            made.append(args)
            return TraceEvent(*args)

        monkeypatch.setattr(macarray, "TraceEvent", counted)
        fmap = single_lane_map(1, 2, LaneFault.constant(9))
        fmap.set(4, 6, LaneFault.pulse(-300, 4000, 1500))  # conv1 into conv2
        fmap.set(6, 0, LaneFault.stuck_zero())
        emu = Emulator(desk_plan, fmap, trace=True)
        built = len(made)
        assert built > 0
        for s in range(3):
            x = desk_dataset.sample(s)
            res = emu.run(x)
            assert len(made) == built
            assert_same_run(res, oracle_run(desk_plan, x, fmap))
            res.trace.clear()  # the caller's list; the next run's is whole

    def test_pulse_straddling_layer_boundary(self):
        # lane 0 carries channel 0 on every row, so a pulse on lane 0 of
        # every unit fires on each row of its window
        rng = np.random.default_rng(71)
        checked = 0
        while checked < 6:
            g = make_random_model(rng)
            plan = plan_model(g)
            macs = [p for p in plan.programs if p.is_mac]
            if len(macs) < 2:
                continue
            boundary = macs[0].n_ops
            width = int(rng.integers(1, min(3, boundary, macs[1].n_ops) + 1))
            fmap = FaultMap()
            for u in range(8):
                fmap.set(u, 0, LaneFault.pulse(int(rng.integers(-131072, 131072)),
                                               boundary - width, 2 * width))
            trace = self.assert_matches_oracle(plan, random_input(rng, g), fmap)
            assert [ev.cycle for ev in trace] == list(range(boundary - width, boundary + width))
            assert {ev.layer_id for ev in trace} == {macs[0].layer.id, macs[1].layer.id}
            checked += 1

    def test_stuck_zero_mixed_with_constant(self):
        rng = np.random.default_rng(72)
        modes = set()
        for _ in range(8):
            g = make_random_model(rng)
            plan = plan_model(g)
            fmap = FaultMap()
            for u in range(8):
                fmap.set(u, 0, LaneFault.stuck_zero())
                fmap.set(u, int(rng.integers(1, 8)),
                         LaneFault.constant(int(rng.integers(-131072, 131072))))
            trace = self.assert_matches_oracle(plan, random_input(rng, g), fmap)
            assert {ev.mode for ev in trace if ev.lane == 0} == {"stuck_zero"}
            assert all(ev.value == 0 for ev in trace if ev.lane == 0)
            modes.update(ev.mode for ev in trace)
        assert modes == {"stuck_zero", "constant"}

    def test_idle_lanes_produce_no_events(self):
        # every lane faulted: one event per carried slot and none on idle ones
        rng = np.random.default_rng(73)
        fmap = FaultMap()
        for u in range(8):
            for lane in range(8):
                fmap.set(u, lane, LaneFault.constant(u * 8 + lane + 1))
        checked = 0
        while checked < 6:
            g = make_random_model(rng)
            plan = plan_model(g)
            macs = [p for p in plan.programs if p.is_mac]
            if all(p.in_shape[0] % 8 == 0 for p in macs):
                continue
            trace = self.assert_matches_oracle(plan, random_input(rng, g), fmap)
            cycle0 = 0
            for prog in macs:
                events = [ev for ev in trace if ev.layer_id == prog.layer.id]
                cout, hout, wout = prog.out_shape
                assert len(events) == cout * hout * wout * len(prog.taps) * prog.in_shape[0]
                assert all(prog.packed.act_idx[ev.cycle - cycle0, ev.lane] != -2
                           for ev in events)
                cycle0 += prog.n_ops
            checked += 1


class TestTracePythonKernel(TestTrace):
    """TestTrace on the pure-Python kernel: tracing runs through either kernel."""

    @pytest.fixture(autouse=True)
    def python_kernel(self, monkeypatch):
        monkeypatch.setattr(macarray, "_kernel", None)
