from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macfi import faultctl
from macfi.errors import KTooLarge, OutOfRange, SchemaError, UnmappedAddress
from macfi.faultctl import (
    LANE_VALUE_MAX,
    LANE_VALUE_MIN,
    REG_FI_CTRL,
    REG_FI_GLOBAL_ENABLE,
    REG_FI_INDEX,
    REG_FI_PULSE_LEN,
    REG_FI_PULSE_START,
    REG_FI_VALUE,
    FaultMap,
    FaultMode,
    FiRegisterFile,
    LaneFault,
    SplitMix64,
    derive_seed,
    fault_for_error_value,
    materialize,
    parse_fault_spec,
    read_register,
    sample_random_fault_map,
    sample_random_fault_maps,
    single_lane_map,
    write_register,
)

from helpers import scalar_fault_map


class TestLaneFault:
    def test_value_range_checked(self):
        LaneFault.constant(LANE_VALUE_MAX)
        LaneFault.constant(LANE_VALUE_MIN)
        with pytest.raises(OutOfRange):
            LaneFault.constant(LANE_VALUE_MAX + 1)
        with pytest.raises(OutOfRange):
            LaneFault.pulse(LANE_VALUE_MIN - 1, 0, 1)

    def test_pulse_window_checked(self):
        with pytest.raises(OutOfRange):
            LaneFault.pulse(1, 0, 0)
        with pytest.raises(OutOfRange):
            LaneFault.pulse(1, -1, 5)

    def test_error_value_realization(self):
        assert fault_for_error_value(0).mode is FaultMode.STUCK_ZERO
        assert fault_for_error_value(1) == LaneFault.constant(1)
        assert fault_for_error_value(-1) == LaneFault.constant(-1)


class TestFaultMap:
    def test_default_is_empty(self):
        fmap = FaultMap()
        assert fmap.is_empty()
        assert list(fmap.cells()) == []

    def test_set_get_bounds(self):
        fmap = FaultMap()
        fmap.set(7, 7, LaneFault.stuck_zero())
        assert fmap.get(7, 7).mode is FaultMode.STUCK_ZERO
        with pytest.raises(OutOfRange):
            fmap.get(8, 0)
        with pytest.raises(OutOfRange):
            fmap.set(0, -1, LaneFault.stuck_zero())

    def test_spec_text_round_trip(self):
        fmap = FaultMap()
        fmap.set(1, 7, LaneFault.constant(-1))
        fmap.set(0, 0, LaneFault.stuck_zero())
        fmap.set(3, 2, LaneFault.pulse(5, 10, 20))
        text = fmap.to_spec_text()
        assert parse_fault_spec(text) == fmap

    def test_parse_comments_and_errors(self):
        fmap = parse_fault_spec("# comment\n\n0,0,zero  # trailing\n")
        assert fmap.get(0, 0).mode is FaultMode.STUCK_ZERO
        for bad in ("0,0,bogus", "0,0,const", "0,0,pulse,1", "9,0,zero", "0,0,const,200000"):
            with pytest.raises(SchemaError):
                parse_fault_spec(bad)

    def test_kernel_arrays_are_read_only_views(self):
        built = FaultMap()
        built.set(2, 3, LaneFault.pulse(-9, 4, 6))
        for fmap in (built, single_lane_map(1, 1, LaneFault.constant(5)),
                     *sample_random_fault_maps([3, 64], [LaneFault.stuck_zero()] * 2, [1, 2])):
            arrays, before = fmap.to_arrays(), fmap.to_spec_text()
            assert [a.dtype for a in arrays] == [np.uint8, np.int32, np.int64, np.int64]
            for a in arrays:
                with pytest.raises(ValueError):
                    a[0] = 1
            assert fmap.to_spec_text() == before
            assert parse_fault_spec(before) == fmap
        # A later set shows through the views: they are the map's storage.
        mode, value, start, length = built.to_arrays()
        assert (mode[19], value[19], start[19], length[19]) == (3, -9, 4, 6)
        built.set(2, 3, LaneFault.constant(8))
        assert (mode[19], value[19]) == (2, 8)

    def test_digest_distinguishes_maps(self):
        a, b = FaultMap(), FaultMap()
        a.set(0, 0, LaneFault.stuck_zero())
        assert a.digest() != b.digest()
        assert a.digest() == a.digest()


class TestRegisterFile:
    def test_value_sign_extension(self):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_VALUE, 0x0003FFFF)
        assert read_register(rf, REG_FI_VALUE) == -1

    def test_value_masked_to_18_bits(self):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_VALUE, 0xFFFC0000 | 5)
        assert read_register(rf, REG_FI_VALUE) == 5

    def test_unmapped_offset(self):
        rf = FiRegisterFile()
        with pytest.raises(UnmappedAddress):
            write_register(rf, 0xFF, 1)
        with pytest.raises(UnmappedAddress):
            read_register(rf, 0x18)

    def test_ctrl_reserved_bits_read_zero(self):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_CTRL, 0xFFFFFFFF)
        assert read_register(rf, REG_FI_CTRL) == 0x3F07

    def test_index_masked(self):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_INDEX, 64 + 3)
        assert read_register(rf, REG_FI_INDEX) == 3

    @given(st.integers(0, 63), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_round_trip_all_fields(self, idx, raw):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_INDEX, idx)
        for off, mask in ((REG_FI_CTRL, 0x3F07), (REG_FI_PULSE_START, 0xFFFFFFFF),
                          (REG_FI_PULSE_LEN, 0xFFFFFFFF)):
            write_register(rf, off, raw)
            assert read_register(rf, off) == raw & mask
        write_register(rf, REG_FI_VALUE, raw)
        v = read_register(rf, REG_FI_VALUE)
        assert LANE_VALUE_MIN <= v <= LANE_VALUE_MAX
        assert v & 0x3FFFF == raw & 0x3FFFF


def program_entry(rf, idx, unit, lane, mode, value=0, start=0, length=0, enable=True):
    write_register(rf, REG_FI_INDEX, idx)
    ctrl = (1 if enable else 0) | (mode << 1) | (unit << 8) | (lane << 11)
    write_register(rf, REG_FI_CTRL, ctrl)
    write_register(rf, REG_FI_VALUE, value & 0x3FFFF)
    write_register(rf, REG_FI_PULSE_START, start)
    write_register(rf, REG_FI_PULSE_LEN, length)


class TestMaterialize:
    def test_single_constant_entry(self):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_GLOBAL_ENABLE, 1)
        program_entry(rf, 0, 1, 7, mode=1, value=-1)
        fmap = materialize(rf)
        cells = list(fmap.cells())
        assert cells == [((1, 7), LaneFault.constant(-1))]

    def test_global_enable_gates_everything(self):
        rf = FiRegisterFile()
        program_entry(rf, 0, 1, 7, mode=1, value=-1)
        write_register(rf, REG_FI_GLOBAL_ENABLE, 0)
        assert materialize(rf).is_empty()

    def test_no_entries_enabled(self):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_GLOBAL_ENABLE, 1)
        program_entry(rf, 0, 1, 1, mode=1, value=3, enable=False)
        assert materialize(rf).is_empty()

    def test_last_write_wins_same_target(self):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_GLOBAL_ENABLE, 1)
        program_entry(rf, 0, 0, 0, mode=1, value=7)
        program_entry(rf, 1, 0, 0, mode=0)  # stuck-zero overwrites
        assert materialize(rf).get(0, 0) == LaneFault.stuck_zero()

    def test_order_independent_across_distinct_targets(self):
        rf1, rf2 = FiRegisterFile(), FiRegisterFile()
        for rf, order in ((rf1, [(0, 1, 2), (1, 3, 4)]), (rf2, [(1, 1, 2), (0, 3, 4)])):
            write_register(rf, REG_FI_GLOBAL_ENABLE, 1)
            for idx, unit, lane in order:
                program_entry(rf, idx, unit, lane, mode=1, value=9)
        assert materialize(rf1) == materialize(rf2)

    def test_pulse_entry_and_zero_len_disabled(self):
        rf = FiRegisterFile()
        write_register(rf, REG_FI_GLOBAL_ENABLE, 1)
        program_entry(rf, 0, 2, 3, mode=2, value=5, start=10, length=4)
        program_entry(rf, 1, 4, 4, mode=2, value=5, start=0, length=0)
        program_entry(rf, 2, 5, 5, mode=3, value=5)  # reserved mode code
        fmap = materialize(rf)
        assert fmap.get(2, 3) == LaneFault.pulse(5, 10, 4)
        assert fmap.get(4, 4).mode is FaultMode.NONE
        assert fmap.get(5, 5).mode is FaultMode.NONE


# Sampled lanes (flat unit * lanes + lane, sorted) and digests under the
# stuck-at-0, +131071 and -131071 templates, recorded from the per-seed
# SplitMix64 definition. Campaign results are keyed to these draws.
ALL_LANES = list(range(64))
KNOWN_TEMPLATES = (LaneFault.stuck_zero(), LaneFault.constant(131071),
                   LaneFault.constant(-131071))
KNOWN_MAPS = {
    (0, 0): ([],
        ('86b501817f8ac68d', '86b501817f8ac68d', '86b501817f8ac68d')),
    (0, 1): ([],
        ('86b501817f8ac68d', '86b501817f8ac68d', '86b501817f8ac68d')),
    (0, 2**63 + 5): ([],
        ('86b501817f8ac68d', '86b501817f8ac68d', '86b501817f8ac68d')),
    (0, -7): ([],
        ('86b501817f8ac68d', '86b501817f8ac68d', '86b501817f8ac68d')),
    (0, 2**64 + 3): ([],
        ('86b501817f8ac68d', '86b501817f8ac68d', '86b501817f8ac68d')),
    (1, 0): ([47],
        ('5f771f162d6314d4', '9412f94adf52d7e7', '5894f7004270203d')),
    (1, 1): ([1],
        ('5325355115c796df', '57852a8deb4bd9dc', '51270ce27c74f84c')),
    (1, 2**63 + 5): ([48],
        ('8c8e46c8aa8b2282', '2c0ad4d0640de199', 'b8e5f1f7ed8a74c4')),
    (1, -7): ([48],
        ('8c8e46c8aa8b2282', '2c0ad4d0640de199', 'b8e5f1f7ed8a74c4')),
    (1, 2**64 + 3): ([45],
        ('22b73eaa5967f1f4', '4a30e313a49ddc7b', '3e8522e654d77458')),
    (4, 0): ([31, 35, 37, 47],
        ('222211a7cc533e41', '4b187c4b4cc20788', '7fae76c1d43e0ef3')),
    (4, 1): ([1, 6, 8, 52],
        ('3d482c8fad4bb8bf', 'f4dcbce364f77e84', '905a23c612c08dab')),
    (4, 2**63 + 5): ([9, 23, 26, 48],
        ('6e5382cb8e4c4ded', 'ab8ef735e35c9e4b', '8dd49b5ecc292713')),
    (4, -7): ([7, 48, 53, 55],
        ('9f47a8a98f538c56', '57a5ec1a1a6c3c45', '6cf6e41ba5139f2a')),
    (4, 2**64 + 3): ([4, 26, 39, 45],
        ('4924566bb2bdb84c', 'd45ee44098a77bfa', '5a20906f7450d8b1')),
    (16, 0): ([0, 3, 8, 9, 11, 17, 30, 31, 35, 37, 47, 49, 51, 53, 55, 63],
        ('72ac041bbb3b9d5f', '024e77d3113d6dfb', 'd0e472b7838ee874')),
    (16, 1): ([1, 6, 7, 8, 16, 25, 26, 29, 30, 36, 37, 38, 41, 43, 44, 52],
        ('070d22ecfe0445be', '476725d49711ccf4', '75450ef284ac2182')),
    (16, 2**63 + 5): ([8, 9, 13, 16, 17, 20, 23, 26, 29, 34, 39, 41, 48, 52, 54, 58],
        ('c47c7d9409167be1', '4adbc5e3272d7392', '9b8cb20e031490a8')),
    (16, -7): ([1, 7, 15, 17, 26, 28, 29, 32, 37, 43, 45, 48, 51, 53, 55, 57],
        ('1630fc07d043736b', '0a64f80d77d31cf4', 'ee851d588505246a')),
    (16, 2**64 + 3): ([3, 4, 6, 10, 14, 20, 23, 26, 34, 35, 39, 41, 45, 46, 56, 61],
        ('3abe1e65fc9eccef', 'baefbafdb82beaec', 'bcb766eb4822ee18')),
    (64, 0): (ALL_LANES,
        ('341f63c7754d793a', '590d3197ce41b79d', 'f8c71758458dec58')),
    (64, 1): (ALL_LANES,
        ('341f63c7754d793a', '590d3197ce41b79d', 'f8c71758458dec58')),
    (64, 2**63 + 5): (ALL_LANES,
        ('341f63c7754d793a', '590d3197ce41b79d', 'f8c71758458dec58')),
    (64, -7): (ALL_LANES,
        ('341f63c7754d793a', '590d3197ce41b79d', 'f8c71758458dec58')),
    (64, 2**64 + 3): (ALL_LANES,
        ('341f63c7754d793a', '590d3197ce41b79d', 'f8c71758458dec58')),
}


class TestSampling:
    @pytest.mark.parametrize("k, seed", list(KNOWN_MAPS))
    def test_known_answers(self, k, seed):
        lanes, digests = KNOWN_MAPS[(k, seed)]
        for template, digest in zip(KNOWN_TEMPLATES, digests):
            fmap = sample_random_fault_map(k, template, seed)
            cells = list(fmap.cells())
            assert [u * 8 + l for (u, l), _ in cells] == lanes
            assert all(f == template for _, f in cells)
            assert fmap.digest() == digest
            # Seeds are taken modulo 2^64, as SplitMix64 takes them.
            assert sample_random_fault_map(k, template, seed & (2**64 - 1)) == fmap

    def test_k_zero_empty(self):
        assert sample_random_fault_map(0, LaneFault.stuck_zero(), 1).is_empty()

    def test_k_full_covers_grid(self):
        fmap = sample_random_fault_map(64, LaneFault.stuck_zero(), 1)
        assert sum(1 for _ in fmap.cells()) == 64

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            sample_random_fault_map(65, LaneFault.stuck_zero(), 1)

    def test_seed_deterministic(self):
        t = LaneFault.constant(1)
        assert sample_random_fault_map(5, t, 42) == sample_random_fault_map(5, t, 42)
        assert sample_random_fault_map(5, t, 42) != sample_random_fault_map(5, t, 43)

    @given(st.integers(0, 64), st.integers(0, 2**64 - 1))
    @settings(max_examples=100)
    def test_exactly_k_distinct_lanes(self, k, seed):
        fmap = sample_random_fault_map(k, LaneFault.stuck_zero(), seed)
        cells = [pos for pos, _ in fmap.cells()]
        assert len(cells) == k
        assert len(set(cells)) == k

    def test_single_lane_frequency_uniform(self):
        # 10^4 draws of k=1: each lane within 1/64 +/- 0.01
        counts = {}
        for seed in range(10_000):
            fmap = sample_random_fault_map(1, LaneFault.stuck_zero(), seed)
            ((unit, lane), _), = fmap.cells()
            counts[(unit, lane)] = counts.get((unit, lane), 0) + 1
        assert len(counts) == 64
        for n in counts.values():
            assert abs(n / 10_000 - 1 / 64) <= 0.01


    @given(st.lists(st.tuples(st.integers(0, 64), st.integers(-2**64, 2**65),
                              st.sampled_from([0, 1, -131072, 131071])), max_size=12),
           st.sampled_from([(8, 8), (4, 2), (1, 3)]))
    @settings(max_examples=60, deadline=None)
    def test_batched_matches_scalar_reference(self, runs, grid):
        units, lanes = grid
        runs = [(min(k, units * lanes), seed, v) for k, seed, v in runs]
        templates = [fault_for_error_value(v) for _, _, v in runs]
        got = sample_random_fault_maps([k for k, _, _ in runs], templates,
                                       [seed for _, seed, _ in runs], units, lanes)
        want = [scalar_fault_map(k, t, seed, units, lanes)
                for (k, seed, _), t in zip(runs, templates)]
        assert got == want
        assert [m.digest() for m in got] == [m.digest() for m in want]

    def test_acceptance_rule_at_the_limit(self):
        for n in range(1, 65):
            limit = (1 << 64) - (1 << 64) % n
            draws = sorted({limit - 1, min(limit, 2**64 - 1), 2**64 - 1})
            got = faultctl._accepted(np.array(draws, dtype=np.uint64),
                                     np.full(len(draws), n, dtype=np.uint64))
            assert got.tolist() == [r < limit for r in draws], n

    def test_rejected_draw_redraws_through_bounded(self, monkeypatch):
        real_accepted, real_bounded = faultctl._accepted, SplitMix64.bounded
        bounded_calls = []

        def reject_second_map(draws, n):
            ok = real_accepted(draws, n)
            ok[1, 2] = False
            return ok

        def counting_bounded(rng, n):
            bounded_calls.append(n)
            return real_bounded(rng, n)

        monkeypatch.setattr(faultctl, "_accepted", reject_second_map)
        monkeypatch.setattr(SplitMix64, "bounded", counting_bounded)
        ks, seeds = [5, 7, 2], [11, 2**64 - 3, 12]
        templates = [LaneFault.stuck_zero(), LaneFault.constant(-4), LaneFault.constant(9)]
        got = sample_random_fault_maps(ks, templates, seeds)
        assert bounded_calls == [64 - i for i in range(7)]  # only the rejected map redraws
        monkeypatch.setattr(SplitMix64, "bounded", real_bounded)
        assert got == [scalar_fault_map(k, t, s) for k, t, s in zip(ks, templates, seeds)]

    def test_batched_checks_every_k(self):
        with pytest.raises(KTooLarge):
            sample_random_fault_maps([1, 65], [LaneFault.stuck_zero()] * 2, [1, 2])
        with pytest.raises(KTooLarge):
            sample_random_fault_maps([-1], [LaneFault.stuck_zero()], [1])
        assert sample_random_fault_maps([], [], []) == []


class TestPrng:
    def test_splitmix_known_stream(self):
        # Reference values of the standard splitmix64 sequence from seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_bounded_rejects_bad_n_and_stays_in_range(self):
        rng = SplitMix64(9)
        with pytest.raises(OutOfRange):
            rng.bounded(0)
        assert all(0 <= rng.bounded(7) < 7 for _ in range(200))

    def test_derive_seed_sensitivity(self):
        base = derive_seed(1, 2, 3, 4)
        assert derive_seed(1, 2, 3, 4) == base
        assert derive_seed(1, 2, 3, 5) != base
        assert derive_seed(2, 2, 3, 4) != base
        assert derive_seed(1, 2, -1, 4) != derive_seed(1, 2, 1, 4)
        assert 0 <= base < 2**64


def test_single_lane_map_helper():
    fmap = single_lane_map(2, 5, LaneFault.constant(3))
    assert list(fmap.cells()) == [((2, 5), LaneFault.constant(3))]
