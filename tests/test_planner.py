from __future__ import annotations

import numpy as np
import pytest

from macfi.errors import ShapeError, UnsupportedLayer
from macfi.model import LayerSpec, ModelGraph
from macfi.planner import (
    ArrayConfig,
    dump_plan,
    plan_layer,
    plan_model,
    plan_stats,
)

from helpers import mac_layer, make_random_model


def conv_spec(rng, cin, cout, k, stride=1, pad=0):
    return mac_layer(rng, "c", "conv", "input", cin, cout, k, stride, pad, m=2.0 ** -7)


class TestArrayConfig:
    def test_defaults(self):
        cfg = ArrayConfig()
        assert (cfg.units, cfg.lanes) == (8, 8)
        assert cfg.total_lanes == 64

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            ArrayConfig(units=0)
        with pytest.raises(ShapeError):
            ArrayConfig(lanes=0)


class TestPlanLayer:
    def test_counts_cin8(self):
        # Cin=8, Cout=8, K=3, 4x4 input with pad 1 -> Hout=Wout=4
        rng = np.random.default_rng(0)
        ops = plan_layer(conv_spec(rng, 8, 8, 3, 1, 1), (8, 4, 4), ArrayConfig())
        assert len(ops) == 1152  # Cout*Hout*Wout*K^2*ceil(Cin/8) = 8*4*4*9*1
        per_channel = sum(1 for op in ops if op.dest[0] == 0)
        assert per_channel == 144  # 4*4*9
        active = sum(1 for op in ops for l in op.lanes if l is not None)
        assert active == 9216  # Cout*Hout*Wout*K^2*Cin

    def test_counts_cin4_idle_lanes(self):
        rng = np.random.default_rng(0)
        ops = plan_layer(conv_spec(rng, 4, 8, 3, 1, 1), (4, 4, 4), ArrayConfig())
        assert len(ops) == 1152
        for op in ops:
            assert all(op.lanes[l] is None for l in range(4, 8))
        active = sum(1 for op in ops for l in op.lanes if l is not None)
        assert active == 4608

    def test_fc_single_micro_op(self):
        rng = np.random.default_rng(0)
        layer = mac_layer(rng, "f", "fc", "input", 8, 1, 1, m=2.0 ** -7)
        ops = plan_layer(layer, (8, 1, 1), ArrayConfig())
        assert len(ops) == 1
        assert ops[0].unit == 0
        assert ops[0].dest == (0, 0, 0)

    def test_unit_assignment_is_output_channel_mod_units(self):
        rng = np.random.default_rng(1)
        ops = plan_layer(conv_spec(rng, 3, 11, 2), (3, 5, 5), ArrayConfig())
        for op in ops:
            assert op.unit == op.dest[0] % 8

    def test_lanes_carry_consecutive_input_channels(self):
        rng = np.random.default_rng(2)
        ops = plan_layer(conv_spec(rng, 11, 2, 1), (11, 2, 2), ArrayConfig())
        # groups of ceil(11/8)=2: first group channels 0..7, second 8..10 + idle
        for op in ops:
            carried = [l.weight[1] for l in op.lanes if l is not None]
            base = carried[0]
            assert carried == list(range(base, base + len(carried)))

    def test_padding_taps_are_marked_not_idle(self):
        rng = np.random.default_rng(3)
        ops = plan_layer(conv_spec(rng, 1, 1, 3, 1, 1), (1, 3, 3), ArrayConfig())
        corner = [op for op in ops if op.dest == (0, 0, 0)]
        pad_taps = [l for op in corner for l in op.lanes if l is not None and l.act is None]
        assert len(pad_taps) == 5  # 3x3 window at the corner has 5 out-of-bounds taps

    def test_rejects_non_mac_layer(self):
        layer = LayerSpec(id="r", kind="relu", inputs=["input"])
        with pytest.raises(UnsupportedLayer):
            plan_layer(layer, (1, 2, 2), ArrayConfig())

    def test_coverage_and_conservation_random_shapes(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            cin = int(rng.integers(1, 17))
            cout = int(rng.integers(1, 17))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            pad = int(rng.integers(0, 2))
            k = int(rng.integers(1, min(h, w) + 2 * pad + 1))
            stride = int(rng.integers(1, 3))
            layer = conv_spec(rng, cin, cout, k, stride, pad)
            layer.weights = rng.integers(-8, 9, (cout, cin, k, k)).astype(np.int8)
            cfg = ArrayConfig()
            ops = plan_layer(layer, (cin, h, w), cfg)
            hout = (h + 2 * pad - k) // stride + 1
            wout = (w + 2 * pad - k) // stride + 1
            groups_per_dest = {}
            active = 0
            for op in ops:
                groups_per_dest.setdefault(op.dest, set()).add(op.group)
                active += sum(1 for l in op.lanes if l is not None)
            # every output element is exactly one accumulate-group
            assert set(groups_per_dest) == {(o, y, x) for o in range(cout)
                                            for y in range(hout) for x in range(wout)}
            assert all(len(s) == 1 for s in groups_per_dest.values())
            assert active == cout * hout * wout * k * k * cin


class TestPlanModel:
    def test_programs_in_topo_order_with_delegation(self):
        rng = np.random.default_rng(4)
        layers = [
            mac_layer(rng, "conv1", "conv", "input", 2, 4, 3, 1, 1, m=2.0 ** -7),
            LayerSpec(id="relu1", kind="relu", inputs=["conv1"]),
            LayerSpec(id="gap", kind="gavgpool", inputs=["relu1"]),
            mac_layer(rng, "fc1", "fc", "gap", 4, 3, 1, m=2.0 ** -7),
        ]
        g = ModelGraph(layers, (2, 4, 4), 2.0 ** -6, "fc1", 3)
        plan = plan_model(g)
        assert [p.layer.id for p in plan.programs] == ["conv1", "relu1", "gap", "fc1"]
        assert [p.is_mac for p in plan.programs] == [True, False, False, True]

    def test_invalid_graph_raises(self):
        g = ModelGraph([], (1, 1, 1), 1.0, "missing", 1)
        with pytest.raises(Exception):
            plan_model(g)

    def test_plan_dump_deterministic(self):
        rng1, rng2 = np.random.default_rng(31), np.random.default_rng(31)
        p1 = plan_model(make_random_model(rng1))
        p2 = plan_model(make_random_model(rng2))
        assert dump_plan(p1) == dump_plan(p2)

    def test_dump_format(self):
        rng = np.random.default_rng(5)
        layers = [mac_layer(rng, "c", "conv", "input", 1, 1, 1, m=0.5)]
        g = ModelGraph(layers, (1, 1, 1), 1.0, "c", 1)
        text = dump_plan(plan_model(g))
        assert text == ("unit=0 dest=c:0,0,0 group=0 lanes=[a[0,0,0]*w[0,0,0,0],"
                        "idle,idle,idle,idle,idle,idle,idle]\n")


class TestPlanStats:
    def test_uniform_lane_activity(self):
        rng = np.random.default_rng(0)
        layers = [mac_layer(rng, "c", "conv", "input", 8, 8, 3, 1, 1, m=2.0 ** -7),
                  LayerSpec(id="gap", kind="gavgpool", inputs=["c"]),
                  mac_layer(rng, "f", "fc", "gap", 8, 8, 1, m=2.0 ** -7)]
        g = ModelGraph(layers, (8, 4, 4), 2.0 ** -6, "f", 8)
        plan = plan_model(g)
        stats = plan_stats(plan)
        # conv: 9216 active lane-multiplies spread evenly, fc adds 1 per lane
        assert stats.lane_activity.sum() == 9216 + 64
        assert np.all(stats.lane_activity == 9216 // 64 + 1)
        assert np.all(stats.micro_ops_per_unit == stats.micro_ops_per_unit[0])

    def test_cin4_lanes_inactive(self, cin4_plan):
        # cout=4 everywhere, so units 4..7 never fire; cin=4, so lanes 4..7
        # carry no operands on the units that do
        stats = plan_stats(cin4_plan)
        assert np.all(stats.lane_activity[:, 4:] == 0)
        assert np.all(stats.lane_activity[4:, :] == 0)
        assert np.all(stats.lane_activity[:4, :4] > 0)
        assert stats.idle_slots > 0

    def test_empty_plan_all_zero(self):
        g = ModelGraph([LayerSpec(id="r", kind="relu", inputs=["input"])],
                       (2, 2, 2), 1.0, "r", 8)
        stats = plan_stats(plan_model(g))
        assert stats.micro_ops_per_unit.sum() == 0
        assert stats.lane_activity.sum() == 0
        assert stats.idle_slots == 0
