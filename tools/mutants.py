"""Mutation check of macfi's exactness bounds and refusals.

Each mutant is a one-place source edit: it makes a bound unsound, moves a
window edge, mixes up units and lanes, or removes a refusal, and the tests
listed with it, the ones that kill it, must fail on it (DeMillo, Lipton &
Sayward, "Hints on test data selection", 1978). An equivalent mutant
changes no output, only how the result is reached; it is run on the tests
of the paths it changes and reported, but its survival is not a gap in the
tests.

Usage:
    python tools/mutants.py SCRATCH_DIR [NAME ...]

For each mutant (all, or those named), the repository is copied into
SCRATCH_DIR/NAME, the edit applied (``old`` must occur in the file exactly
once), and ``python -m pytest -x -q`` run there on the mutant's tests, one
mutant at a time, and the copy removed. The compiled kernel is built inside
each copy, so a C mutant is compiled as mutated. Prints one line per mutant,
naming the first test that failed, and exits 1 when a non-equivalent mutant
survives. It is not part of the tier-1 suite, which it runs in parts, once
per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: bool = False


_SLAB_PATH_TESTS = tuple(f"tests/test_batch.py::{name}" for name in (
    "test_slab_from_golden_matches_run_and_oracle",
    "test_wide_heatmap_slab_skips_the_all_channel_gemm",
    "test_heatmap_blocks_take_the_slab_and_correction_paths",
    "test_half_width_slabs_take_the_correction_path",
    "test_dense_maps_take_the_dense_and_masked_paths",
    "test_slab_or_dense_is_decided_per_run_block",
))

MUTANTS = [
    # The no-saturation bound admitting a run whose partial sum reaches ACC_MAX + 1.
    Mutant("nosat-strict", "src/macfi/macarray.py",
           "groups * len(prog.taps) * row_bound <= ACC_MAX",
           "groups * len(prog.taps) * row_bound < ACC_MAX",
           ("tests/test_batch.py::test_bound_edge[1000-False]",)),
    # ... counting floor(Cin / lanes) lane groups per tap instead of the ceiling.
    Mutant("nosat-floor-groups", "src/macfi/macarray.py",
           "groups = -(-prog.in_shape[0] // cfg.lanes)",
           "groups = prog.in_shape[0] // cfg.lanes",
           ("tests/test_batch.py::test_bound_edge_counts_a_partial_lane_group[1-True]",)),
    # ... and with a product bound one short of (-128) * (-128).
    Mutant("product-max", "src/macfi/qtensor.py",
           "PRODUCT_MIN, PRODUCT_MAX = -16256, 16384",
           "PRODUCT_MIN, PRODUCT_MAX = -16256, 16383",
           ("tests/test_batch.py::test_bound_edge[1001-True]",)),
    # The float32 GEMM bound: float32 holds every integer up to 2^24 only.
    Mutant("gemm-2^25", "src/macfi/macarray.py",
           "+ np.abs(const).max() <= 2 ** 24 else",
           "+ np.abs(const).max() <= 2 ** 25 else",
           ("tests/test_batch.py::test_gemm_dtype_boundary[1-float64-False]",)),
    Mutant("gemm-127", "src/macfi/macarray.py",
           "128 * w_abs + np.abs(const).max()",
           "127 * w_abs + np.abs(const).max()",
           ("tests/test_batch.py::test_gemm_dtype_boundary[1-float64-False]",)),
    # The closed forms taking units for lanes, which a square array hides:
    # the lane groups of a layer reading a fault-free value, and the lane
    # an input channel rides on.
    Mutant("groups-by-units", "src/macfi/macarray.py",
           "groups = min(cin, cfg.lanes) if src",
           "groups = min(cin, cfg.units) if src",
           ("tests/test_batch.py::test_non_square_arrays_match_the_oracle",)),
    Mutant("lane-of-by-units", "src/macfi/macarray.py",
           "lane_of = np.arange(prog.in_shape[0]) % cfg.lanes",
           "lane_of = np.arange(prog.in_shape[0]) % cfg.units",
           ("tests/test_batch.py::test_non_square_arrays_match_the_oracle",)),
    # The pulse window [start, start + length) in both kernels, at each end.
    Mutant("mux-window-python", "src/macfi/_kernel_py.py",
           "(cyc < start + flen[fidx])",
           "(cyc <= start + flen[fidx])",
           ("tests/test_kernel_backends.py::test_pulse_windows_agree_across_layer_boundaries",)),
    Mutant("mux-start-python", "src/macfi/_kernel_py.py",
           "(start <= cyc)",
           "(start < cyc)",
           ("tests/test_kernel_backends.py::test_pulse_windows_agree_across_layer_boundaries",)),
    Mutant("mux-window-c", "src/macfi/_kernel.c",
           "cyc < fstart[fi] + flen[fi]",
           "cyc <= fstart[fi] + flen[fi]",
           ("tests/test_macarray.py::TestTrace::test_pulse_straddling_layer_boundary",)),
    Mutant("mux-start-c", "src/macfi/_kernel.c",
           "fstart[fi] <= cyc",
           "fstart[fi] < cyc",
           ("tests/test_macarray.py::TestTrace::test_pulse_straddling_layer_boundary",)),
    # Trace events of every MAC layer after the first stamped from cycle 0.
    Mutant("trace-cycle0-kept", "src/macfi/macarray.py",
           "        cycle0 += prog.n_ops\n",
           "",
           ("tests/test_macarray.py::TestTrace::test_pulse_straddling_layer_boundary",)),
    # A tap one row or column past the input reading a value instead of padding.
    Mutant("tap-edge-x", "src/macfi/planner.py",
           "(ix >= 0) & (ix < w)",
           "(ix >= 0) & (ix <= w)",
           ("tests/test_planner.py::TestPlanLayer::test_counts_cin8",)),
    Mutant("tap-edge-y", "src/macfi/planner.py",
           "(iy >= 0) & (iy < h)",
           "(iy >= 0) & (iy <= h)",
           ("tests/test_planner.py::TestPlanLayer::test_counts_cin8",)),
    # ... or a tap just before the input's first row or column padding.
    Mutant("tap-lower-x", "src/macfi/planner.py",
           "(ix >= 0) & (ix < w)",
           "(ix > 0) & (ix < w)",
           ("tests/test_planner.py::TestPlanLayer::test_padding_taps_are_marked_not_idle",)),
    Mutant("tap-lower-y", "src/macfi/planner.py",
           "(iy >= 0) & (iy < h)",
           "(iy > 0) & (iy < h)",
           ("tests/test_planner.py::TestPlanLayer::test_padding_taps_are_marked_not_idle",)),
    # Modulo-rejection sampling accepting one draw of the biased tail.
    Mutant("rejection-limit", "src/macfi/faultctl.py",
           "return draws <= ~((~n + 1) % n)",
           "return draws < ~((~n + 1) % n)",
           ("tests/test_faultctl.py::TestSampling::test_acceptance_rule_at_the_limit",)),
    # The full-map shortcut taken one cell short of full.
    Mutant("full-map-early", "src/macfi/faultctl.py",
           "full = ks == total",
           "full = ks >= total - 1",
           ("tests/test_faultctl.py::TestSampling::test_full_maps_take_no_draw",)),
    # Fault-table class keys without the start and length blocks, which
    # merge pulses with different windows.
    Mutant("class-key-no-window", "src/macfi/faultctl.py",
           "for b in (mode, *(b for b in rest if b.any()))",
           "for b in (mode, *(b for b in rest[:1] if b.any()))",
           ("tests/test_faultctl.py::TestFaultTable::test_classes_tell_pulse_windows_apart",)),
    # The spec text, and so every digest, without a pulse's start.
    Mutant("digest-no-pulse-start", "src/macfi/faultctl.py",
           'else f"{names[i]}pulse,{v},{s},{n}\\n"',
           'else f"{names[i]}pulse,{v},{n}\\n"',
           ("tests/test_faultctl.py::TestFaultMap::test_spec_text_round_trip",)),
    # The campaign host-memory refusal: loosened 4x, off by one, or skipped
    # by a heatmap.
    Mutant("grid-memory-4x", "src/macfi/campaign.py",
           "_run_bytes(plan, len(idx)) > host_memory()",
           "_run_bytes(plan, len(idx)) > 4 * host_memory()",
           ("tests/test_campaign.py::TestSweep::test_host_memory_edge",)),
    Mutant("grid-memory-ge", "src/macfi/campaign.py",
           "_run_bytes(plan, len(idx)) > host_memory()",
           "_run_bytes(plan, len(idx)) >= host_memory()",
           ("tests/test_campaign.py::TestSweep::test_host_memory_edge",)),
    # Its edge test fails first, so -x stops before the 2^24-run heatmap
    # test would build every map without the refusal.
    Mutant("heatmap-unrefused", "src/macfi/campaign.py",
           '    _check_grid("heatmap", len(values) * cfg.units * cfg.lanes, plan, idx)\n',
           "",
           ("tests/test_campaign.py::TestSweep::test_host_memory_edge",)),
    # dump_plan's bound counting each line once, though the list and the join both hold it.
    Mutant("dump-bytes-once", "src/macfi/planner.py",
           "prog.n_ops * (2 * (len(head)",
           "prog.n_ops * ((len(head)",
           ("tests/test_planner.py::TestPlanModel::test_dump_bytes_bound_the_traced_peak",)),
    # A slab channel from golden: the zero row's index one row early (group
    # G - 1 of the last channel), one dropped group short, or golden
    # accumulators that already hold the bias the run's constants add.
    Mutant("slab-zero-row-early", "src/macfi/macarray.py",
           "cout * groups)  # past a channel's drops, the zero row",
           "cout * groups - 1)  # past a channel's drops, the zero row",
           ("tests/test_batch.py::test_slab_from_golden_matches_run_and_oracle[8x8-float32]",)),
    Mutant("slab-m-short", "src/macfi/macarray.py",
           "    m = int(n_drops.max())\n",
           "    m = int(n_drops.max()) - 1\n",
           ("tests/test_batch.py::test_slab_from_golden_matches_run_and_oracle[8x8-float32]",)),
    Mutant("golden-after-bias", "src/macfi/macarray.py",
           "golden_acc[layer.id] = acc\n",
           "golden_acc[layer.id] = acc + prog.bias[:, None].astype(acc.dtype)\n",
           ("tests/test_batch.py::test_slab_from_golden_matches_run_and_oracle[8x8-float32]",)),
    # Equivalent: a slab padded with one more clean channel (it reads golden
    # accumulators), or made dense one channel early. They run on the slab
    # and dense path tests, which show how a block is evaluated.
    Mutant("slab-one-wider", "src/macfi/macarray.py",
           "d = max(1, int(dirty.sum(axis=1).max()))",
           "d = min(cout, 1 + int(dirty.sum(axis=1).max()))",
           _SLAB_PATH_TESTS, equivalent=True),
    Mutant("dense-one-early", "src/macfi/macarray.py",
           "    if d == cout:\n        acc = _from_partials",
           "    if d >= cout - 1:\n        acc = _from_partials",
           _SLAB_PATH_TESTS, equivalent=True),
]

_COPY_IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")


def apply(root: Path, m: Mutant):
    path = root / m.file
    text = path.read_text()
    count = text.count(m.old)
    if count != 1:
        raise SystemExit(f"{m.name}: {m.old!r} occurs {count} times in {m.file}, expected once")
    path.write_text(text.replace(m.old, m.new))


def run(m: Mutant, scratch: Path) -> tuple[str | None, float]:
    """(the first failed test, or None if none failed; seconds) of the
    mutant's tests on a mutated copy, which is removed afterwards."""
    copy = scratch / m.name
    if copy.exists():
        shutil.rmtree(copy)
    shutil.copytree(ROOT, copy, ignore=_COPY_IGNORE)
    try:
        apply(copy, m)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *m.tests], cwd=copy, env=env, capture_output=True, text=True)
        secs = time.perf_counter() - t0
    finally:
        shutil.rmtree(copy)
    if proc.returncode not in (0, 1):  # 1: a test failed; anything else broke the run
        raise SystemExit(f"{m.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return (failed[0] if failed else "?") if proc.returncode == 1 else None, secs


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(__doc__)
    scratch, names = Path(argv[0]).resolve(), argv[1:]
    if scratch == ROOT or ROOT in scratch.parents:
        raise SystemExit("the scratch directory must lie outside the repository")
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        raise SystemExit(f"unknown mutants {unknown}; known: {sorted(known)}")
    scratch.mkdir(parents=True, exist_ok=True)
    survivors = 0
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        failed, secs = run(m, scratch)
        survivors += failed is None and not m.equivalent
        print(f"{m.name:20s} {'equivalent, ' if m.equivalent else ''}"
              f"{'survived' if failed is None else 'killed by ' + failed} ({secs:.1f} s)",
              flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
