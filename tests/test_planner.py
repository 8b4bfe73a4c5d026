from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from macfi.campaign import SweepSpec, run_fault_sweep, run_heatmap
from macfi.errors import ShapeError
from macfi.faultctl import FaultMap, LaneFault, single_lane_map
from macfi.macarray import Emulator, batch_logits
from macfi.model import LayerSpec, ModelGraph
import macfi.planner as planner
from macfi.planner import ArrayConfig, dump_plan, plan_model, plan_stats

from helpers import mac_layer, make_random_model, make_strided_padded_model


def conv_spec(rng, cin, cout, k, stride=1, pad=0):
    return mac_layer(rng, "c", "conv", "input", cin, cout, k, stride, pad, m=2.0 ** -7)


class TestArrayConfig:
    def test_defaults(self):
        cfg = ArrayConfig()
        assert (cfg.units, cfg.lanes) == (8, 8)

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            ArrayConfig(units=0)
        with pytest.raises(ShapeError):
            ArrayConfig(lanes=0)


def program_of(layer: LayerSpec, in_shape):
    """The program plan_model builds for a one-layer model."""
    c, h, w = in_shape
    hout = (h + 2 * layer.pad - layer.k) // layer.stride + 1
    wout = (w + 2 * layer.pad - layer.k) // layer.stride + 1
    g = ModelGraph([layer], in_shape, 2.0 ** -6, layer.id, layer.cout * hout * wout)
    return plan_model(g).programs[0]


def dest_coords(prog):
    """(o, y, x) of each row's destination."""
    _, hout, wout = prog.out_shape
    o, rem = np.divmod(prog.packed.dest, hout * wout)
    return o, *np.divmod(rem, wout)


def weight_channel(prog):
    """Input channel c of each slot's weight ((o*Cin+c)*K+i)*K+j; -1 when idle."""
    p = prog.packed
    c = (p.w_idx // len(prog.taps)) % prog.in_shape[0]
    return np.where(p.act_idx == -2, -1, c)


class TestPlanLayer:
    def test_counts_cin8(self):
        # Cin=8, Cout=8, K=3, 4x4 input with pad 1 -> Hout=Wout=4
        rng = np.random.default_rng(0)
        prog = program_of(conv_spec(rng, 8, 8, 3, 1, 1), (8, 4, 4))
        p = prog.packed
        assert len(p.unit) == 1152  # Cout*Hout*Wout*K^2*ceil(Cin/8) = 8*4*4*9*1
        o, _, _ = dest_coords(prog)
        assert int((o == 0).sum()) == 144  # 4*4*9
        assert int((p.act_idx != -2).sum()) == 9216  # Cout*Hout*Wout*K^2*Cin

    def test_counts_cin4_idle_lanes(self):
        rng = np.random.default_rng(0)
        p = program_of(conv_spec(rng, 4, 8, 3, 1, 1), (4, 4, 4)).packed
        assert len(p.unit) == 1152
        assert np.all(p.act_idx[:, 4:] == -2)
        assert np.all(p.w_idx[:, 4:] == -1)
        assert int((p.act_idx != -2).sum()) == 4608

    def test_fc_single_micro_op(self):
        rng = np.random.default_rng(0)
        layer = mac_layer(rng, "f", "fc", "input", 8, 1, 1, m=2.0 ** -7)
        prog = program_of(layer, (8, 1, 1))
        assert len(prog.packed.unit) == 1
        assert int(prog.packed.unit[0]) == 0
        assert [int(a[0]) for a in dest_coords(prog)] == [0, 0, 0]

    def test_unit_assignment_is_output_channel_mod_units(self):
        rng = np.random.default_rng(1)
        prog = program_of(conv_spec(rng, 3, 11, 2), (3, 5, 5))
        o, _, _ = dest_coords(prog)
        assert np.array_equal(prog.packed.unit, o % 8)

    def test_lanes_carry_consecutive_input_channels(self):
        rng = np.random.default_rng(2)
        prog = program_of(conv_spec(rng, 11, 2, 1), (11, 2, 2))
        # groups of ceil(11/8)=2: first group channels 0..7, second 8..10 + idle
        for row in weight_channel(prog).tolist():
            carried = [c for c in row if c >= 0]
            base = carried[0]
            assert carried == list(range(base, base + len(carried)))
            assert row == carried + [-1] * (8 - len(carried))

    def test_padding_taps_are_marked_not_idle(self):
        rng = np.random.default_rng(3)
        p = program_of(conv_spec(rng, 1, 1, 3, 1, 1), (1, 3, 3)).packed
        corner = p.dest == 0  # output (0, 0, 0)
        assert int((p.act_idx[corner] == -1).sum()) == 5  # 5 of the 3x3 corner taps are out of bounds
        assert np.all(p.w_idx[corner][:, 0] >= 0)

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
            prog = program_of(layer, (cin, h, w))
            p = prog.packed
            hout = (h + 2 * pad - k) // stride + 1
            wout = (w + 2 * pad - k) // stride + 1
            # every output element is exactly one accumulate-group of
            # ceil(Cin/8)*K*K rows
            o, y, x = dest_coords(prog)
            assert set(zip(o.tolist(), y.tolist(), x.tolist())) == {
                (oo, yy, xx) for oo in range(cout) for yy in range(hout) for xx in range(wout)}
            assert np.array_equal(np.bincount(p.dest, minlength=cout * hout * wout),
                                  np.full(cout * hout * wout, -(-cin // 8) * k * k))
            assert int((p.act_idx != -2).sum()) == cout * hout * wout * k * k * cin
            # each carried (o, c, i, j) weight tap appears once per output position
            carried = p.act_idx != -2
            assert np.array_equal(np.bincount(p.w_idx[carried], minlength=cout * cin * k * k),
                                  np.full(cout * cin * k * k, hout * wout))


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
        # 3x3 conv, pad 1, Cin=2, Cout=2 over 2x2: output (1, 1, 0) is group 6
        # on unit 1; its tap (0, 0) sits in the padding, its tap (1, 1) does not
        layers = [mac_layer(rng, "k", "conv", "input", 2, 2, 3, 1, 1, m=0.5)]
        g = ModelGraph(layers, (2, 2, 2), 1.0, "k", 8)
        lines = dump_plan(plan_model(g)).splitlines()
        assert len(lines) == 2 * 2 * 2 * 9
        assert lines[6 * 9] == ("unit=1 dest=k:1,1,0 group=6 lanes=[pad*w[1,0,0,0],"
                                "pad*w[1,1,0,0],idle,idle,idle,idle,idle,idle]")
        assert lines[6 * 9 + 4] == ("unit=1 dest=k:1,1,0 group=6 lanes=[a[0,1,0]*w[1,0,1,1],"
                                    "a[1,1,0]*w[1,1,1,1],idle,idle,idle,idle,idle,idle]")

    @pytest.mark.parametrize("field, row, value", [
        ("unit", 5, 8), ("unit", 0, -1),
        ("dest", 3, 8 * 4 * 4), ("dest", -1, -1),
        ("act_idx", 7, 8 * 4 * 4), ("act_idx", 2, -3),
        ("w_idx", 1, 8 * 8 * 9), ("w_idx", 4, -2),
    ])
    def test_corrupted_program_indices_rejected(self, desk_graph, desk_dataset, monkeypatch,
                                                field, row, value):
        # conv2 of the desk model: (8, 4, 4) in, (8, 4, 4) out, 3x3 weights
        real = planner._pack_mac_layer

        def corrupted(layer, in_shape, taps, cfg):
            p = real(layer, in_shape, taps, cfg)
            if layer.id == "conv2":
                p = dataclasses.replace(p, **{field: getattr(p, field).copy()})
                getattr(p, field)[row] = value
            return p

        monkeypatch.setattr(planner, "_pack_mac_layer", corrupted)
        x = desk_dataset.sample(0)
        # Planning builds no rows; they are checked on first use, before
        # either kernel reads an index.
        for first_use in (lambda plan: plan.by_id["conv2"].packed,
                          lambda plan: Emulator(plan, trace=True).run(x)):
            plan = plan_model(desk_graph)
            with pytest.raises(ShapeError) as err:
                first_use(plan)
            assert err.value.layer == "conv2" and field in str(err.value)

    def test_desk_dump_is_pinned(self, desk_plan):
        # `macfi plan` output on the bundled model, byte for byte
        digest = hashlib.sha256(dump_plan(desk_plan).encode()).hexdigest()
        assert digest == "8bc7396f1224c5e11cd51b56054b688a34d90cefb519178d52f6af2c56902576"

    def test_strided_padded_dump_is_pinned(self):
        plan = plan_model(make_strided_padded_model())
        assert plan.by_id["conv"].out_shape == (10, 4, 3)
        text = dump_plan(plan)
        assert len(text.splitlines()) == 10 * 4 * 3 * 2 * 9 + 6 * 2
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "04dc5b643ebbd30814c24ef0de7545e5a3191a5b6c93175fb33b43b4e0f175af"

    @pytest.mark.parametrize("model", ["desk", "strided_padded"])
    def test_dump_bytes_bound_the_traced_peak(self, desk_plan, model):
        # _dump_bytes counts each line twice, as a str in the list and in
        # the join; desk peaks at 96% of the bound, so one copy is too few.
        plan = desk_plan if model == "desk" else plan_model(make_strided_padded_model())
        bound = sum(planner._dump_bytes(p) for p in plan.programs if p.is_mac)
        tracemalloc.start()
        try:
            dump_plan(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


# sha256 of dump_plan for make_random_model(default_rng(seed)), seeds 0..9,
# per array geometry: known answers that pin the dump's text byte for byte
# over random strides, pads, kernel sizes, lane groups and unit wraps.
RANDOM_DUMP_DIGESTS = {
    (8, 8): [
        "99815a8fc26465c77f8c127d08360348f29e861cdb22e7f09220f93a140bd7aa",
        "1d12c3b385141198d5060da4e4fb888ffb904766ce9e40c7477445b8658467b3",
        "a566307bfced14f39aa32134c48d37174e5b8f3eed814053c159a135e1a2eb0f",
        "3a74ec4f7b03eef269a9e4e6db074d28cd51873c2da49808c778f92d90fc45e1",
        "62576024b465e507fda5d1d8947fef96a8efed464e31c2fc5b9993f3332f00e0",
        "96c219ab0ae4dc76e7f1986bad036adf01b2bd46f6c9be85d451783466193faf",
        "09276b1957ea422f3f87ed3e52709e633462f82aa8d674fe7203178a715af8d6",
        "90b58d378e7baffb98922ede3e46ac827e8d1f6d9317ca0b7c42977f780ba3f8",
        "81c93f69e475253f893a226e0927ab92ea6208121760e441c742db5ae842aff1",
        "978ced4e89ae8cae6338a55eb91a9ad45f1d3c77282731f447e618526b039bf4",
    ],
    (3, 5): [
        "ed43870b57c1cc1d6f9772d3c10719e88dde8e55c7429311ca165747df599624",
        "fc79ae4786aa1fa92edb617ff9d6c4d54463e9a519523c290bc15e25ec1a65c7",
        "6e7921df4544136285c95cf3bf28da9537df8e350abc16c7ff6983156ce7c06d",
        "2c71ed9de7ddba8d1938c4697e84ea952779014087dc35810be72fabac6b543a",
        "6bacdce27c9d6281a7509ea93b55f4889389a84f3793b0c168dacf262fd432b8",
        "8ea9f062b82001c1c51db16193bbdc6d32be7c684516f6a55d28db2fc6d3a030",
        "282ff7f772dd0d69cbb8528d6a32cab0d60e8191c3cf19313b5c841fbf9d87fb",
        "1ae6ff5d55e9a865bdb9aded97b91ab7d1f6c876be5145bbf295ef537ab6471f",
        "b8b67038f982b24438af0538d0eeaad732f3e49101f49f433d0eb15da4abe82a",
        "57ab8f6b06b21056055be18b456d8dbf3989062cb308eac364b31a4a7f7994a9",
    ],
    (8, 2): [
        "49f5f275b53ce8c62a3bec5def5d761bac7a2178455bec62541aa0f67a7b2483",
        "f09dfdedf9688096a638dd667e8bef31641821ee4763dc2f934b35e15bf6fdbf",
        "3e80d56c22f773f365d5f58f34a91a6db8024e707501626d014f70e9bce3839c",
        "38a11411df1cc1376c4d2aecb48bde9983a232f437152ace823fb2ba1a6cd2fb",
        "275cadc973c3fd640ce4fb43ee7c41eb3fa59afdf3b49da8cb6a07da0a558277",
        "a11623f1cfb5f133f224ce191e6a8ebf9ba94c08f3c691ca87352a687f4dcc3d",
        "a087975b449010c2428b3cdf7d1f108129ddf57c97472811d2abe69efb1c2d6b",
        "23c01be7e44772ce7b419e0498c5bd691d85b7bf0653e93f629cc20d94aee0d8",
        "29e36ae05cb1a667f0b57a6c52238d7001fa2f957e41d7c38d3b7d1c14ea7cf8",
        "ea68133a174721a1a9d646bc4220e8ebca729d0a819379c86d8958762022f910",
    ],
}


@pytest.mark.parametrize("geometry", RANDOM_DUMP_DIGESTS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_random_model_dumps_are_pinned(geometry):
    cfg = ArrayConfig(*geometry)
    got = [hashlib.sha256(dump_plan(plan_model(make_random_model(np.random.default_rng(seed)),
                                                cfg)).encode()).hexdigest()
           for seed in range(10)]
    assert got == RANDOM_DUMP_DIGESTS[geometry]


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


@pytest.mark.parametrize("cfg", [ArrayConfig(), ArrayConfig(3, 5), ArrayConfig(8, 2),
                                 ArrayConfig(5, 3)])
def test_plan_stats_equal_row_counts(cfg):
    # plan_stats and n_ops count from layer shapes; the packed rows give the
    # same counts one row and one slot at a time.
    rng = np.random.default_rng(41)
    for _ in range(30):
        plan = plan_model(make_random_model(rng), cfg)
        per_unit = np.zeros(cfg.units, dtype=np.int64)
        activity = np.zeros((cfg.units, cfg.lanes), dtype=np.int64)
        idle = 0
        for prog in plan.programs:
            assert prog.n_ops == (len(prog.packed.unit) if prog.is_mac else 0)
            if prog.is_mac:
                carried = prog.packed.act_idx != -2
                np.add.at(per_unit, prog.packed.unit, 1)
                np.add.at(activity, prog.packed.unit, carried)
                idle += int((~carried).sum())
        stats = plan_stats(plan)
        assert np.array_equal(stats.micro_ops_per_unit, per_unit)
        assert np.array_equal(stats.lane_activity, activity)
        assert stats.idle_slots == idle


def test_desk_micro_ops(desk_graph):
    assert plan_model(desk_graph).total_micro_ops == 5768


def test_rows_built_only_by_per_step_runs(desk_graph, desk_dataset, monkeypatch):
    real, calls = planner._pack_mac_layer, []

    def spy(layer, *args):
        calls.append(layer.id)
        return real(layer, *args)

    monkeypatch.setattr(planner, "_pack_mac_layer", spy)
    plan = plan_model(desk_graph)
    x, samples = desk_dataset.sample(0), desk_dataset.samples[:4]
    fmap = single_lane_map(2, 3, LaneFault.constant(-131072))
    Emulator(plan).run(x)
    Emulator(plan, fmap).run(x)
    batch_logits(plan, samples, [FaultMap(), fmap])
    run_heatmap([0, 7], plan, desk_dataset, slice_count=4)
    run_fault_sweep(SweepSpec((1, 64), (0, -131072), 2, 9, 0, 4), plan, desk_dataset)
    dump_plan(plan)
    assert calls == []

    mac_ids = [p.layer.id for p in plan.programs if p.is_mac]
    pulse = FaultMap()
    pulse.set(1, 2, LaneFault.pulse(131071, start=5, length=40))
    Emulator(plan, fmap, trace=True).run(x)
    assert calls == mac_ids
    Emulator(plan, fmap, trace=True).run(x)
    Emulator(plan, pulse).run(x)
    batch_logits(plan, samples, [pulse])
    assert calls == mac_ids
    # A pulse run on a new plan builds them once too.
    calls.clear()
    plan = plan_model(desk_graph)
    Emulator(plan, pulse).run(x)
    assert calls == mac_ids
