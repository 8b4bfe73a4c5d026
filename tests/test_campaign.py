from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macfi.campaign
from macfi.campaign import (
    CampaignResult,
    RunRecord,
    SweepSpec,
    accuracy_drop,
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
from macfi.faultctl import (FaultMap, derive_seed, fault_for_error_value,
                            sample_random_fault_map, single_lane_map)
from macfi.macarray import classify_argmax, execute_plan

from helpers import bias_only_accuracy


class TestSweepSpec:
    def test_coerces_to_ints(self):
        s = SweepSpec(k_values=(1.0, 4), error_values=[0, -1], reps=2, master_seed=9)
        assert s.k_values == (1, 4)
        assert s.error_values == (0, -1)

    @pytest.mark.parametrize("kwargs", [
        dict(k_values=(1,), error_values=(0,), reps=0, master_seed=0),
        dict(k_values=(-1,), error_values=(0,), reps=1, master_seed=0),
        dict(k_values=(1,), error_values=(131072,), reps=1, master_seed=0),
        dict(k_values=(1,), error_values=(-131073,), reps=1, master_seed=0),
        dict(k_values=(1,), error_values=(0,), reps=1, master_seed=0, slice_offset=-1),
        dict(k_values=(1,), error_values=(0,), reps=1, master_seed=0, slice_count=0),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(OutOfRange):
            SweepSpec(**kwargs)


class TestAccuracyDrop:
    def test_example(self):
        assert accuracy_drop(0.755, 0.600) == pytest.approx(0.155)
        assert accuracy_drop(0.755, 0.600) == 0.755 - 0.600

    def test_zero_and_negative(self):
        assert accuracy_drop(0.5, 0.5) == 0.0
        assert accuracy_drop(0.5, 0.55) == pytest.approx(-0.05)

    @pytest.mark.parametrize("b,f", [(1.5, 0.5), (-0.1, 0.5), (0.5, 1.01), (0.5, -2.0)])
    def test_out_of_range(self, b, f):
        with pytest.raises(OutOfRange):
            accuracy_drop(b, f)


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
                out = execute_plan(cin4_plan, cin4_dataset.sample(i), fmap)
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

    def test_empty_slice(self, cin4_plan, cin4_dataset):
        spec = SweepSpec(k_values=(1,), error_values=(0,), reps=1,
                         master_seed=0, slice_offset=10_000)
        with pytest.raises(EmptyDataset):
            run_fault_sweep(spec, cin4_plan, cin4_dataset)


class TestPoolSize:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """max_workers of every thread pool a campaign starts."""
        sizes = []
        real = macfi.campaign.ThreadPoolExecutor

        def spy(max_workers=None):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(macfi.campaign, "ThreadPoolExecutor", spy)
        return sizes

    def test_default_is_affinity_cpu_count(self, cin4_plan, cin4_dataset, pool_sizes,
                                           monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4}, raising=False)
        run_heatmap([0], cin4_plan, cin4_dataset, slice_count=1)
        assert pool_sizes == [5]

    def test_default_falls_back_to_cpu_count(self, cin4_plan, cin4_dataset, pool_sizes,
                                             monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        spec = SweepSpec(k_values=(1,), error_values=(0,), reps=1, master_seed=0, slice_count=1)
        run_fault_sweep(spec, cin4_plan, cin4_dataset)
        assert pool_sizes == [3]

    def test_explicit_count(self, cin4_plan, cin4_dataset, pool_sizes):
        run_heatmap([0], cin4_plan, cin4_dataset, workers=2, slice_count=1)
        assert pool_sizes == [2]


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
        rec = RunRecord("sweep", 3, -7, -1, -1, 2, 12345, 1 / 3, 2 / 7)
        text = results_to_csv(CampaignResult(1 / 3, [rec]))
        back = parse_results_csv(text).records[0]
        assert back.accuracy == 1 / 3
        assert back.drop == 2 / 7

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


class TestEvaluateAccuracy:
    def test_matches_manual_loop(self, cin4_plan, cin4_dataset):
        idx = range(5)
        acc = evaluate_accuracy(cin4_plan, cin4_dataset, idx)
        correct = sum(
            classify_argmax(execute_plan(cin4_plan, cin4_dataset.sample(i)).logits)
            == int(cin4_dataset.labels[i])
            for i in idx
        )
        assert acc == correct / 5


class TestEvaluateAccuracySeam:
    """Campaigns call evaluate_accuracy through the module: once with three
    positional arguments for the baseline, then once per chunk of runs with
    four (plan, dataset, indices, maps), where the chunks are min(workers,
    runs) contiguous slices of every run's fault map in job order.
    Instrumentation that wraps macfi.campaign.evaluate_accuracy, such as
    perfbench's traced run, relies on that."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = macfi.campaign.evaluate_accuracy

        def spy(*args, **kwargs):
            seen.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(macfi.campaign, "evaluate_accuracy", spy)
        return seen

    def check(self, calls, plan, dataset, maps, workers):
        assert len(calls) == 1 + min(workers, len(maps))
        (args, kwargs), rest = calls[0], calls[1:]
        assert len(args) == 3 and kwargs == {}
        assert args[0] is plan and args[1] is dataset
        chunks = []
        for args, kwargs in rest:
            assert len(args) == 4 and kwargs == {}
            assert args[0] is plan and args[1] is dataset
            assert len(args[3]) > 0 and all(isinstance(m, FaultMap) for m in args[3])
            chunks.extend(args[3])
        assert chunks == maps
        calls.clear()

    def test_heatmap(self, cin4_plan, cin4_dataset, calls):
        values = [0, 7]
        maps = [single_lane_map(u, l, fault_for_error_value(v))
                for v in values for u in range(8) for l in range(8)]
        for workers in (1, 3):
            run_heatmap(values, cin4_plan, cin4_dataset, workers=workers, slice_count=4)
            self.check(calls, cin4_plan, cin4_dataset, maps, workers)

    def test_sweep(self, cin4_plan, cin4_dataset, calls):
        spec = SweepSpec((1, 8), (0, -1), 3, master_seed=9, slice_count=4)
        maps = [sample_random_fault_map(k, fault_for_error_value(v), derive_seed(9, k, v, r), 8, 8)
                for k in spec.k_values for v in spec.error_values for r in range(spec.reps)]
        for workers in (2, 20):
            run_fault_sweep(spec, cin4_plan, cin4_dataset, workers=workers)
            self.check(calls, cin4_plan, cin4_dataset, maps, workers)


def test_map_sequence_gives_one_accuracy_per_map(cin4_plan, cin4_dataset):
    idx = range(2, 14)
    maps = [FaultMap()] + [sample_random_fault_map(k, fault_for_error_value(v), 40 + k, 8, 8)
                           for k in (1, 8, 64) for v in (0, 3, -131072)]
    expected = [evaluate_accuracy(cin4_plan, cin4_dataset, idx, m) for m in maps]
    assert evaluate_accuracy(cin4_plan, cin4_dataset, idx, maps) == expected
    assert evaluate_accuracy(cin4_plan, cin4_dataset, idx, tuple(maps[1:3])) == expected[1:3]
    assert evaluate_accuracy(cin4_plan, cin4_dataset, idx, []) == []
    assert len(set(expected)) > 1  # the maps are told apart
