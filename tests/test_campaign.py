from __future__ import annotations

import csv
import io
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macfi.campaign
from macfi.campaign import (
    RESULTS_HEADER,
    CampaignResult,
    RunRecord,
    SweepSpec,
    evaluate_accuracy,
    five_number_summary,
    parse_results_csv,
    parse_summary_csv,
    results_to_csv,
    run_fault_sweep,
    run_heatmap,
    summarize_boxplot,
    summary_to_csv,
)
from macfi.errors import EmptyDataset, EmptyGroup, KTooLarge, OutOfRange, SchemaError
from macfi.faultctl import (LANE_VALUE_MAX, LANE_VALUE_MIN, FaultMap, derive_seed,
                            fault_for_error_value, sample_random_fault_map, single_lane_map)
from macfi.macarray import Emulator, classify_argmax

from helpers import bias_only_accuracy


class TestSweepSpec:
    def test_coerces_to_ints(self):
        s = SweepSpec(k_values=(np.int64(1), 4), error_values=[0, np.int32(-1)],
                      reps=np.uint8(2), master_seed=np.int64(9), slice_offset=np.int16(1),
                      slice_count=np.int64(3))
        assert s == SweepSpec((1, 4), (0, -1), 2, 9, 1, 3)
        assert all(type(v) is int for v in (*s.k_values, *s.error_values, s.reps,
                                             s.master_seed, s.slice_offset, s.slice_count))

    @pytest.mark.parametrize("kwargs", [
        dict(k_values=(1,), error_values=(0,), reps=0, master_seed=0),
        dict(k_values=(-1,), error_values=(0,), reps=1, master_seed=0),
        dict(k_values=(1,), error_values=(131072,), reps=1, master_seed=0),
        dict(k_values=(1,), error_values=(-131073,), reps=1, master_seed=0),
        dict(k_values=(1,), error_values=(0,), reps=1, master_seed=0, slice_offset=-1),
        dict(k_values=(1,), error_values=(0,), reps=1, master_seed=0, slice_count=0),
        dict(k_values=(1, 4, 1.0), error_values=(0,), reps=1, master_seed=0),
        dict(k_values=(1,), error_values=(0, -1, 0), reps=1, master_seed=0),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(OutOfRange):
            SweepSpec(**kwargs)

    @pytest.mark.parametrize("field,kwargs", [
        ("k value", dict(k_values=(1.7,))),
        ("k value", dict(k_values=(True,))),
        ("error value", dict(error_values=(0.9,))),
        ("error value", dict(error_values=(np.float64(3),))),
        ("reps", dict(reps=2.5)),
        ("reps", dict(reps=True)),
        ("master seed", dict(master_seed=1.5)),
        ("slice offset", dict(slice_offset=0.0)),
        ("slice count", dict(slice_count=np.True_)),
    ])
    def test_rejects_non_integers(self, field, kwargs):
        # A float was truncated, so (1.7,), (0.9,) ran a k=1 stuck-at-0 sweep.
        args = dict(k_values=(1,), error_values=(1,), reps=1, master_seed=0) | kwargs
        with pytest.raises(OutOfRange, match=f"^{field} must be an integer"):
            SweepSpec(**args)


class TestQuantiles:
    def test_singleton(self):
        s = five_number_summary([0.1])
        assert s == {"min": 0.1, "q1": 0.1, "median": 0.1, "q3": 0.1, "max": 0.1}

    def test_exact_positions(self):
        s = five_number_summary([0.0, 0.1, 0.2, 0.3, 0.4])
        assert s["q1"] == pytest.approx(0.1)
        assert s["median"] == pytest.approx(0.2)
        assert s["q3"] == pytest.approx(0.3)

    def test_interpolated(self):
        s = five_number_summary([1, 2, 3, 4])
        assert s["q1"] == 1.75
        assert s["median"] == 2.5
        assert s["q3"] == 3.25
        assert (s["min"], s["max"]) == (1.0, 4.0)

    def test_empty(self):
        with pytest.raises(EmptyGroup):
            five_number_summary([])

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_matches_numpy_linear_method(self, vals):
        s = five_number_summary(vals)
        for key, q in (("min", 0.0), ("q1", 0.25), ("median", 0.5),
                       ("q3", 0.75), ("max", 1.0)):
            assert s[key] == pytest.approx(float(np.quantile(vals, q)), abs=1e-12)

    def test_unordered_input_is_sorted(self):
        assert five_number_summary([4, 1, 3, 2]) == five_number_summary([1, 2, 3, 4])


def _rec(kind="sweep", k=1, value=0, drop=0.0, **kw):
    base = dict(kind=kind, k=k, value=value, unit=-1, lane=-1, rep=0,
                seed=0, accuracy=1.0 - drop, drop=drop)
    base.update(kw)
    return RunRecord(**base)


class TestSummarize:
    def test_groups_by_k_value_and_skips_baseline(self):
        records = [
            _rec(k=1, value=0, drop=0.1),
            _rec(k=1, value=0, drop=0.3, rep=1),
            _rec(k=4, value=2, drop=0.5),
            _rec(kind="baseline", k=0, value=0, drop=0.0),
        ]
        groups = summarize_boxplot(records)
        assert list(groups) == [(1, 0), (4, 2)]
        assert groups[(1, 0)]["median"] == pytest.approx(0.2)
        assert groups[(4, 2)]["min"] == 0.5


class TestSweep:
    def test_record_counts_and_order(self, cin4_plan, cin4_dataset):
        spec = SweepSpec(k_values=(1, 2), error_values=(0,), reps=2,
                         master_seed=7, slice_count=4)
        res = run_fault_sweep(spec, cin4_plan, cin4_dataset)
        kinds = [r.kind for r in res.records]
        assert kinds == ["baseline"] + ["sweep"] * 4
        assert res.records[0].accuracy == res.baseline
        assert {(r.k, r.rep) for r in res.records[1:]} == {(1, 0), (1, 1), (2, 0), (2, 1)}

    def test_seeds_derived_from_master(self, cin4_plan, cin4_dataset):
        spec = SweepSpec(k_values=(3,), error_values=(5, -5), reps=2,
                         master_seed=42, slice_count=2)
        res = run_fault_sweep(spec, cin4_plan, cin4_dataset)
        for r in res.records:
            if r.kind == "sweep":
                assert r.seed == derive_seed(42, r.k, r.value, r.rep)

    def test_k_zero_drop_is_exactly_zero(self, cin4_plan, cin4_dataset):
        spec = SweepSpec(k_values=(0,), error_values=(0, 7), reps=3,
                         master_seed=1, slice_count=4)
        res = run_fault_sweep(spec, cin4_plan, cin4_dataset)
        for r in res.records:
            assert r.drop == 0.0
            assert r.accuracy == res.baseline

    def test_worker_count_invariance(self, cin4_plan, cin4_dataset):
        spec = SweepSpec(k_values=(1, 8), error_values=(0, 3), reps=3,
                         master_seed=99, slice_count=4)
        a = run_fault_sweep(spec, cin4_plan, cin4_dataset, workers=1)
        b = run_fault_sweep(spec, cin4_plan, cin4_dataset, workers=8)
        assert results_to_csv(a) == results_to_csv(b)
        assert summary_to_csv(a.groups) == summary_to_csv(b.groups)

    def test_accuracy_matches_independent_replay(self, cin4_plan, cin4_dataset):
        spec = SweepSpec(k_values=(2,), error_values=(4,), reps=2,
                         master_seed=5, slice_count=6)
        res = run_fault_sweep(spec, cin4_plan, cin4_dataset)
        for r in res.records:
            if r.kind != "sweep":
                continue
            fmap = sample_random_fault_map(r.k, fault_for_error_value(r.value), r.seed)
            correct = 0
            for i in range(6):
                out = Emulator(cin4_plan, fmap).run(cin4_dataset.sample(i))
                correct += classify_argmax(out.logits) == int(cin4_dataset.labels[i])
            assert r.accuracy == correct / 6

    def test_oversized_k_fails_before_baseline(self, cin4_plan, cin4_dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        spec = SweepSpec((1, 65), (0,), 2, master_seed=3)
        with pytest.raises(KTooLarge):
            run_fault_sweep(spec, cin4_plan, cin4_dataset, workers=1)
        assert calls == []

    def test_grid_beyond_host_memory_fails_before_any_run(self, cin4_plan, cin4_dataset,
                                                          monkeypatch):
        # 2^62 reps would need over 2^62 * 8 KiB: refused from the grid size
        # before any seed or map.
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        spec = SweepSpec((1,), (0,), 2 ** 62, master_seed=0)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(OutOfRange, match="cannot fit in host memory"):
                run_fault_sweep(spec, cin4_plan, cin4_dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5 and peak < 2 ** 26, peak
        assert calls == []

    def test_run_bytes_bound_the_traced_peak(self, desk_plan, desk_dataset):
        # k = 8 maps are all distinct, so every run keeps its own class key,
        # digest and lane masks; heatmap maps are distinct by construction.
        # The per-run figure must cover the peak per run at the larger grid
        # and the growth per run between the two grids.
        per_run = macfi.campaign._run_bytes(desk_plan, 1)

        def sweep(runs):
            spec = SweepSpec((8,), (131071,), runs, master_seed=1, slice_count=1)
            run_fault_sweep(spec, desk_plan, desk_dataset)

        def heatmap(runs):  # 64 runs a value
            run_heatmap(range(runs // 64), desk_plan, desk_dataset, slice_count=1)

        for campaign, small, large in ((sweep, 500, 2000), (heatmap, 8 * 64, 32 * 64)):
            peaks = {}
            for runs in (small, large):
                tracemalloc.start()
                try:
                    campaign(runs)
                    peaks[runs] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peaks[large] <= large * per_run, (campaign.__name__, peaks, per_run)
            assert peaks[large] - peaks[small] <= (large - small) * per_run, \
                (campaign.__name__, peaks, per_run)

    def test_builds_no_fault_map_per_job(self, desk_plan, desk_dataset, monkeypatch):
        # A sweep's maps stay rows of one fault table from sampling to
        # digests: the only FaultMaps are the baseline's empty ones, and
        # only the baseline's map lends its kernel arrays.
        made, lent = [], []
        adopt, to_arrays = FaultMap._adopt, FaultMap.to_arrays
        monkeypatch.setattr(FaultMap, "_adopt", lambda m, *a: made.append(a) or adopt(m, *a))
        monkeypatch.setattr(FaultMap, "to_arrays", lambda m: lent.append(m) or to_arrays(m))
        for reps in (1, 10):
            made.clear(), lent.clear()
            spec = SweepSpec((1, 4, 16, 64), (0, 1, -1, 131071), reps, master_seed=7,
                             slice_count=8)
            res = run_fault_sweep(spec, desk_plan, desk_dataset)
            assert len(res.records) == 16 * reps + 1
            assert (len(made), len(lent)) == (2, 1), reps

    @pytest.mark.parametrize("spare, refused", [(-1, True), (0, False)])
    def test_host_memory_edge(self, cin4_plan, cin4_dataset, monkeypatch, spare, refused):
        # 2 k values x 1 value x 3 reps = 6 sweep runs, and 1 value x 8 units
        # x 8 lanes = 64 heatmap runs, over 4 samples.
        spec = SweepSpec((1, 4), (0,), 3, master_seed=5, slice_count=4)
        campaigns = [
            ("sweep", 6, lambda: run_fault_sweep(spec, cin4_plan, cin4_dataset)),
            ("heatmap", 64, lambda: run_heatmap([0], cin4_plan, cin4_dataset, slice_count=4)),
        ]
        for kind, runs, campaign in campaigns:
            need = runs * macfi.campaign._run_bytes(cin4_plan, 4)
            monkeypatch.setattr(macfi.campaign, "host_memory", lambda n=need + spare: n)
            if refused:
                with pytest.raises(OutOfRange,
                                   match=f"^a {kind} of {runs} runs cannot fit in host memory"):
                    campaign()
            else:
                assert len(campaign().records) == runs + 1

    @pytest.mark.parametrize("k_values, error_values", [((), (0,)), ((1,), ())])
    def test_empty_grid_fails_before_baseline(self, cin4_plan, cin4_dataset, monkeypatch,
                                              k_values, error_values):
        # Both ran a baseline call and returned a baseline-only result.
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(EmptyGroup, match="^a sweep needs at least one run"):
            run_fault_sweep(SweepSpec(k_values, error_values, 1, 0), cin4_plan, cin4_dataset)
        assert calls == []

    def test_empty_slice(self, cin4_plan, cin4_dataset):
        spec = SweepSpec(k_values=(1,), error_values=(0,), reps=1,
                         master_seed=0, slice_offset=10_000)
        with pytest.raises(EmptyDataset):
            run_fault_sweep(spec, cin4_plan, cin4_dataset)

    def test_equal_maps_match_evaluating_each_job_alone(self, desk_plan, desk_dataset):
        # k = 64 draws the full map in every rep; at seed 1, k = 1 reps collide too.
        spec = SweepSpec(k_values=(1, 64), error_values=(0, -1), reps=12,
                         master_seed=1, slice_count=8)
        res = run_fault_sweep(spec, desk_plan, desk_dataset)
        idx = range(8)
        baseline = evaluate_accuracy(desk_plan, desk_dataset, idx)
        records = [RunRecord("baseline", 0, 0, -1, -1, 0, 0, baseline, 0.0, FaultMap().digest())]
        for k in spec.k_values:
            for v in spec.error_values:
                for r in range(spec.reps):
                    seed = derive_seed(1, k, v, r)
                    fmap = sample_random_fault_map(k, fault_for_error_value(v), seed)
                    acc = evaluate_accuracy(desk_plan, desk_dataset, idx, fmap)
                    records.append(RunRecord("sweep", k, v, -1, -1, r, seed, acc,
                                             baseline - acc, fmap.digest()))
        records.sort(key=RunRecord.sort_key)
        want = CampaignResult(baseline, records, summarize_boxplot(records))
        assert results_to_csv(res) == results_to_csv(want)
        assert summary_to_csv(res.groups) == summary_to_csv(want.groups)
        assert res.records == records
        distinct = {(k, v): len({r.digest for r in records if (r.k, r.value) == (k, v)})
                    for k in spec.k_values for v in spec.error_values}
        assert distinct == {(1, 0): 11, (1, -1): 10, (64, 0): 1, (64, -1): 1}
        assert len({r.accuracy for r in records}) > 1  # the maps are told apart


class TestHeatmap:
    def test_exhaustive_counts_and_grid_consistency(self, cin4_plan, cin4_dataset):
        res = run_heatmap([0, 5], cin4_plan, cin4_dataset, slice_count=3)
        heat = [r for r in res.records if r.kind == "heatmap"]
        assert len(heat) == 2 * 64
        assert len(res.records) == 2 * 64 + 1
        assert {(r.unit, r.lane) for r in heat if r.value == 0} \
            == {(u, l) for u in range(8) for l in range(8)}
        for r in heat:
            assert res.heatmap[r.value][r.unit, r.lane] == r.drop

    def test_maps_equal_single_lane_maps(self, cin4_plan, cin4_dataset, monkeypatch):
        # The heatmap builds its maps as rows of one block per kernel array.
        seen = []
        real = macfi.campaign.evaluate_accuracy

        def spy(plan, dataset, indices, faults=None):
            seen.extend(faults or [])
            return real(plan, dataset, indices, faults)

        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy", spy)
        values = [0, 7, -131072]
        res = run_heatmap(values, cin4_plan, cin4_dataset, slice_count=2)
        keys = [(v, u, l) for v in values for u in range(8) for l in range(8)]
        expected = [single_lane_map(u, l, fault_for_error_value(v)) for v, u, l in keys]
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert got == want and list(got.cells()) == list(want.cells())
            assert all(np.array_equal(a, b) and a.dtype == b.dtype and not a.flags.writeable
                       for a, b in zip(got.to_arrays(), want.to_arrays()))
            assert got.digest() == want.digest()
        digests = {(r.value, r.unit, r.lane): r.digest for r in res.records if r.kind == "heatmap"}
        assert digests == {key: m.digest() for key, m in zip(keys, expected)}

    def test_grid_beyond_host_memory_fails_before_any_map(self, cin4_plan, cin4_dataset,
                                                          monkeypatch):
        # All 2^18 lane values on 8 x 8 lanes are 2^24 runs: refused before a
        # map is built or anything is evaluated. It used to build every map.
        calls = []
        monkeypatch.setattr(macfi.campaign, "host_memory", lambda: 1 << 30)
        for name in ("fault_map_rows", "evaluate_accuracy"):
            monkeypatch.setattr(macfi.campaign, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        values = range(LANE_VALUE_MIN, LANE_VALUE_MAX + 1)
        with pytest.raises(OutOfRange, match=f"^a heatmap of {1 << 24} runs cannot fit"):
            run_heatmap(values, cin4_plan, cin4_dataset)
        assert calls == []

    def test_zero_activity_lanes_have_zero_drop(self, cin4_plan, cin4_dataset):
        # cin=4 model leaves lanes 4..7 without operands on every cycle
        res = run_heatmap([0, -131072], cin4_plan, cin4_dataset, slice_count=4)
        for v, grid in res.heatmap.items():
            assert np.all(grid[:, 4:] == 0.0)

    def test_single_sample_drops_are_zero_or_one(self, cin4_plan, cin4_dataset):
        res = run_heatmap([0], cin4_plan, cin4_dataset, slice_count=1)
        assert res.baseline == 1.0  # labels are the model's own predictions
        assert set(np.unique(res.heatmap[0])) <= {0.0, 1.0}

    def test_matches_sweep_with_same_lane(self, cin4_plan, cin4_dataset):
        # a k=1 sweep run and the heatmap cell it sampled must agree exactly
        spec = SweepSpec(k_values=(1,), error_values=(0, 5), reps=3,
                         master_seed=77, slice_count=4)
        sweep = run_fault_sweep(spec, cin4_plan, cin4_dataset)
        heat = run_heatmap([0, 5], cin4_plan, cin4_dataset, slice_count=4)
        cells = {(r.value, r.unit, r.lane): r for r in heat.records if r.kind == "heatmap"}
        checked = 0
        for r in sweep.records:
            if r.kind != "sweep":
                continue
            fmap = sample_random_fault_map(1, fault_for_error_value(r.value), r.seed)
            ((unit, lane), _), = fmap.cells()
            assert r.accuracy == cells[(r.value, unit, lane)].accuracy
            checked += 1
        assert checked == 6

    def test_bad_values(self, cin4_plan, cin4_dataset):
        with pytest.raises(EmptyGroup):
            run_heatmap([], cin4_plan, cin4_dataset)
        with pytest.raises(OutOfRange):
            run_heatmap([1 << 17], cin4_plan, cin4_dataset)
        # A negative offset read range(-1, n): the last sample, then all of them.
        with pytest.raises(OutOfRange, match="slice offset -1 outside"):
            run_heatmap([0], cin4_plan, cin4_dataset, slice_offset=-1, slice_count=2)

    @pytest.mark.parametrize("field,values,kwargs", [
        ("error value", [0.5], {}),
        ("error value", [1, False], {}),
        ("slice offset", [1], dict(slice_offset=1.0)),
        ("slice count", [1], dict(slice_count=2.5)),
    ])
    def test_rejects_non_integers(self, cin4_plan, cin4_dataset, monkeypatch,
                                  field, values, kwargs):
        # [0.5] was truncated into a stuck-at-0 heatmap recorded as value 0.
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(OutOfRange, match=f"^{field} must be an integer"):
            run_heatmap(values, cin4_plan, cin4_dataset, **kwargs)
        assert calls == []

    def test_numpy_integer_values(self, cin4_plan, cin4_dataset):
        got = run_heatmap(np.array([0, 5]), cin4_plan, cin4_dataset, slice_count=np.int64(2))
        want = run_heatmap([0, 5], cin4_plan, cin4_dataset, slice_count=2)
        assert results_to_csv(got) == results_to_csv(want)

    def test_repeated_value_fails_before_baseline(self, cin4_plan, cin4_dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(OutOfRange, match="error value 1 given more than once"):
            run_heatmap([1, 0, 1], cin4_plan, cin4_dataset)
        assert calls == []

    def test_worker_count_invariance(self, cin4_plan, cin4_dataset):
        a = run_heatmap([0], cin4_plan, cin4_dataset, workers=1, slice_count=2)
        b = run_heatmap([0], cin4_plan, cin4_dataset, workers=8, slice_count=2)
        assert results_to_csv(a) == results_to_csv(b)


class TestStuckZeroOracle:
    def test_all_lane_stuck_zero_matches_bias_only_model(self, desk_graph, desk_plan,
                                                         desk_dataset):
        res = run_heatmap([0], desk_plan, desk_dataset, slice_count=8)
        want = bias_only_accuracy(desk_graph, desk_dataset, range(8))
        full = run_fault_sweep(
            SweepSpec(k_values=(64,), error_values=(0,), reps=1, master_seed=0,
                      slice_count=8),
            desk_plan, desk_dataset)
        k64 = [r for r in full.records if r.kind == "sweep"]
        assert len(k64) == 1
        assert k64[0].accuracy == want
        assert k64[0].drop == full.baseline - want
        assert res.baseline == full.baseline


class TestCsvRoundTrip:
    def test_results(self, cin4_plan, cin4_dataset):
        res = run_heatmap([0, 2], cin4_plan, cin4_dataset, slice_count=2)
        text = results_to_csv(res)
        back = parse_results_csv(text)
        assert back.baseline == res.baseline
        assert len(back.records) == len(res.records)
        for a, b in zip(res.records, back.records):
            assert a.csv_row() == b.csv_row()
        for v in res.heatmap:
            assert np.array_equal(back.heatmap[v], res.heatmap[v])
        assert results_to_csv(back) == text
        assert back.groups == res.groups

    def test_float_fields_round_trip_exactly(self):
        base = RunRecord("baseline", 0, 0, -1, -1, 0, 0, 0.9, 0.0)
        rec = RunRecord("sweep", 3, -7, -1, -1, 2, 12345, 1 / 3, 0.9 - 1 / 3)
        back = parse_results_csv(results_to_csv(CampaignResult(0.9, [base, rec])))
        assert back.baseline == 0.9
        (back,) = (r for r in back.records if r.kind == "sweep")
        assert back.accuracy == 1 / 3
        assert back.drop == 0.9 - 1 / 3

    def test_summary(self):
        groups = summarize_boxplot([
            _rec(k=1, value=0, drop=d) for d in (0.125, 1 / 3, 0.5, 0.875)
        ] + [_rec(k=4, value=-1, drop=0.0625)])
        text = summary_to_csv(groups)
        assert text.splitlines()[0] == "k,value,min,q1,median,q3,max"
        assert parse_summary_csv(text) == groups

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            parse_results_csv("nope\n1,2\n")
        with pytest.raises(SchemaError):
            parse_summary_csv("k,value\n")

    @pytest.mark.parametrize("row, reason", [
        ("sweep,1,0,-1,-1,0,5,0.5", "8 fields, expected 9"),
        ("sweep,1,0,-1,x,0,5,0.5,0.5", "invalid literal for int"),
        ("sweep,1,0,-1,-1,0,5,half,0.5", "could not convert string to float"),
        ("foo,1,0,-1,-1,0,5,0.5,0.5", "unknown kind 'foo'"),
        ("heatmap,1,0,-1,3,0,0,0.5,0.5", "heatmap unit -1 or lane 3 is negative"),
    ], ids=["short", "int", "float", "kind", "heatmap-unit"])
    def test_malformed_row(self, row, reason):
        # A short row and a non-numeric field raised ValueError; an unknown
        # kind was accepted, and sorting its record raised KeyError; a
        # negative heatmap unit raised IndexError, or a lane wrapped round.
        text = ",".join(RESULTS_HEADER) + "\nbaseline,0,0,-1,-1,0,0,0.5,0.0\n" + row + "\n"
        with pytest.raises(SchemaError, match=f"^results CSV line 3: {reason}"):
            parse_results_csv(text)

    @staticmethod
    def _text(*rows) -> str:
        return ",".join(RESULTS_HEADER) + "\n" + "".join(row + "\n" for row in rows)

    def test_second_baseline_row(self):
        # It parsed, and the first baseline row's accuracy became the baseline.
        text = self._text("baseline,0,0,-1,-1,0,0,0.5,0.0", "sweep,1,0,-1,-1,0,5,0.25,0.25",
                          "baseline,0,0,-1,-1,0,0,0.75,0.0")
        with pytest.raises(SchemaError, match=r"^results CSV line 4: a second baseline row "
                                              r"\(the first is on line 2\)"):
            parse_results_csv(text)

    @pytest.mark.parametrize("first, again", [
        ("sweep,1,0,-1,-1,0,5,0.25,0.25", "sweep,1,0,-1,-1,0,6,0.5,0.0"),
        ("heatmap,1,7,2,3,0,0,0.25,0.25", "heatmap,1,7,2,3,0,0,0.25,0.25"),
    ], ids=["sweep", "heatmap"])
    def test_repeated_run_key(self, first, again):
        # Both copies parsed: a sweep group of two drops, a heatmap cell
        # written twice. The seed is not part of the key.
        kind, k, value, unit, lane, rep = first.split(",")[:6]
        text = self._text("baseline,0,0,-1,-1,0,0,0.5,0.0", first, "sweep,4,0,-1,-1,0,1,0.5,0.0",
                          again)
        with pytest.raises(SchemaError, match=rf"^results CSV line 5: {kind} \(k, value, unit, "
                                              rf"lane, rep\) \({k}, {value}, {unit}, {lane}, "
                                              rf"{rep}\) repeats line 3"):
            parse_results_csv(text)

    @pytest.mark.parametrize("baseline_first", [True, False])
    def test_drop_must_be_baseline_minus_accuracy(self, baseline_first):
        # Exact: 0.3 - 0.1 is 0.19999999999999998, and a drop of 0.2 is
        # refused wherever the baseline row stands; it parsed silently.
        base = "baseline,0,0,-1,-1,0,0,0.3,0.0"
        good, bad = "sweep,1,0,-1,-1,0,5,0.1,0.19999999999999998", "sweep,1,0,-1,-1,1,6,0.1,0.2"
        rows = [base, good, bad] if baseline_first else [good, bad, base]
        line = 4 if baseline_first else 3
        with pytest.raises(SchemaError, match=rf"^results CSV line {line}: drop 0.2 is not "
                                              r"baseline 0.3 - accuracy 0.1$"):
            parse_results_csv(self._text(*rows))
        back = parse_results_csv(self._text(*(r for r in rows if r != bad)))
        assert sorted(r.drop for r in back.records) == [0.0, 0.3 - 0.1]

    def test_run_rows_need_a_baseline_row(self):
        # Without one every drop parsed unchecked, contradictory ones too.
        # A header alone, or a baseline row alone, still parses.
        rows = ("sweep,1,0,-1,-1,0,5,0.1,0.7", "sweep,1,0,-1,-1,1,6,0.1,-3.0")
        with pytest.raises(SchemaError, match=r"^results CSV line 2: a run row, but no "
                                              r"baseline row$"):
            parse_results_csv(self._text(*rows))
        assert parse_results_csv(self._text()).records == []
        assert parse_results_csv(self._text("baseline,0,0,-1,-1,0,0,0.5,0.0")).baseline == 0.5

    def test_campaign_csvs_round_trip(self, desk_plan, desk_dataset):
        spec = SweepSpec((1, 8, 64), (0, -1, 131071), 4, master_seed=3, slice_count=7)
        for res in (run_fault_sweep(spec, desk_plan, desk_dataset),
                    run_heatmap([0, 131071], desk_plan, desk_dataset, slice_count=7)):
            text = results_to_csv(res)
            back = parse_results_csv(text)
            assert results_to_csv(back) == text
            assert [r.csv_row() for r in back.records] == [r.csv_row() for r in res.records]
            assert back.baseline == res.baseline and back.groups == res.groups
            assert len({r.drop for r in back.records}) > 2  # runs are told apart

    def test_results_csv_is_csv_writer_output(self, cin4_plan, cin4_dataset):
        spec = SweepSpec((1, 8), (0, -1), 3, master_seed=4, slice_count=3)
        edge = [RunRecord("sweep", 2, -131072, -1, -1, 7, 2**64 - 1, x, -x)
                for x in (-0.0, 1e-300, 1 / 3, float("inf"), float("nan"))]
        for res in (run_fault_sweep(spec, cin4_plan, cin4_dataset),
                    run_heatmap([0, 3], cin4_plan, cin4_dataset, slice_count=3),
                    CampaignResult(0.5, edge)):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(RESULTS_HEADER)
            writer.writerows(rec.csv_row() for rec in res.records)
            assert results_to_csv(res) == buf.getvalue()


class TestEvaluateAccuracy:
    def test_matches_manual_loop(self, cin4_plan, cin4_dataset):
        idx = range(5)
        acc = evaluate_accuracy(cin4_plan, cin4_dataset, idx)
        correct = sum(
            classify_argmax(Emulator(cin4_plan).run(cin4_dataset.sample(i)).logits)
            == int(cin4_dataset.labels[i])
            for i in idx
        )
        assert acc == correct / 5


class TestEvaluateAccuracySeam:
    """Campaigns call evaluate_accuracy through the module: once with three
    positional arguments for the baseline, then once with four (plan,
    dataset, indices, maps) holding each distinct map once, in order of
    first appearance (every run's map in job order when none repeat),
    whatever the workers argument. Instrumentation that wraps
    macfi.campaign.evaluate_accuracy, such as perfbench's traced run, relies
    on that."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = macfi.campaign.evaluate_accuracy

        def spy(*args, **kwargs):
            seen.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy", spy)
        return seen

    def check(self, calls, plan, dataset, maps):
        assert len(calls) == 2
        (base_args, base_kwargs), (args, kwargs) = calls
        assert len(base_args) == 3 and base_kwargs == {}
        assert base_args[0] is plan and base_args[1] is dataset
        assert len(args) == 4 and kwargs == {}
        assert args[0] is plan and args[1] is dataset
        assert all(isinstance(m, FaultMap) for m in args[3])
        assert list(args[3]) == maps
        calls.clear()

    def test_heatmap(self, cin4_plan, cin4_dataset, calls):
        values = [0, 7]
        maps = [single_lane_map(u, l, fault_for_error_value(v))
                for v in values for u in range(8) for l in range(8)]
        for workers in (1, 3, 20):
            run_heatmap(values, cin4_plan, cin4_dataset, workers=workers, slice_count=4)
            self.check(calls, cin4_plan, cin4_dataset, maps)

    def test_sweep(self, cin4_plan, cin4_dataset, calls):
        spec = SweepSpec((1, 8), (0, -1), 3, master_seed=9, slice_count=4)
        maps = [sample_random_fault_map(k, fault_for_error_value(v), derive_seed(9, k, v, r), 8, 8)
                for k in spec.k_values for v in spec.error_values for r in range(spec.reps)]
        for workers in (1, 3, 20):
            run_fault_sweep(spec, cin4_plan, cin4_dataset, workers=workers)
            self.check(calls, cin4_plan, cin4_dataset, maps)

    def test_sweep_with_repeats(self, cin4_plan, cin4_dataset, calls):
        spec = SweepSpec((1, 64), (0, -1), 12, master_seed=1, slice_count=4)
        jobs = [sample_random_fault_map(k, fault_for_error_value(v), derive_seed(1, k, v, r), 8, 8)
                for k in spec.k_values for v in spec.error_values for r in range(spec.reps)]
        maps = []
        for fmap in jobs:
            if fmap not in maps:
                maps.append(fmap)
        res = run_fault_sweep(spec, cin4_plan, cin4_dataset)
        assert len(maps) == len({r.digest for r in res.records if r.kind == "sweep"}) < len(jobs)
        self.check(calls, cin4_plan, cin4_dataset, maps)


def test_map_sequence_gives_one_accuracy_per_map(cin4_plan, cin4_dataset):
    idx = range(2, 14)
    maps = [FaultMap()] + [sample_random_fault_map(k, fault_for_error_value(v), 40 + k, 8, 8)
                           for k in (1, 8, 64) for v in (0, 3, -131072)]
    expected = [evaluate_accuracy(cin4_plan, cin4_dataset, idx, m) for m in maps]
    assert evaluate_accuracy(cin4_plan, cin4_dataset, idx, maps) == expected
    assert evaluate_accuracy(cin4_plan, cin4_dataset, idx, tuple(maps[1:3])) == expected[1:3]
    assert evaluate_accuracy(cin4_plan, cin4_dataset, idx, []) == []
    assert len(set(expected)) > 1  # the maps are told apart


@pytest.mark.parametrize("workers", [1.5, True])
@pytest.mark.parametrize("campaign", ["sweep", "heatmap"])
def test_workers_must_be_an_integer(cin4_plan, cin4_dataset, monkeypatch, campaign, workers):
    # Both were accepted: workers was only range-checked.
    calls = []
    monkeypatch.setattr(macfi.campaign, "evaluate_accuracy",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(OutOfRange, match="^workers must be an integer"):
        if campaign == "sweep":
            run_fault_sweep(SweepSpec((1,), (0,), 1, master_seed=0), cin4_plan, cin4_dataset,
                            workers=workers)
        else:
            run_heatmap([0], cin4_plan, cin4_dataset, workers=workers)
    assert calls == []
