"""Fault descriptors, the FI register control plane, and seeded fault sampling.

Randomness is a fixed SplitMix64 stream (documented in the README): draws
are ``state += 0x9E3779B97F4A7C15; output = mix(state)`` with the standard
finalizer, bounded integers use modulo rejection, and lane subsets come
from a partial Fisher-Yates shuffle; sample_random_fault_maps runs many
seeds' streams in one uint64 pass, with the same lanes as the per-seed
definition. FaultMaps store the kernels' arrays and lend read-only views.
This must never be changed silently: campaign results are keyed to it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import KTooLarge, OutOfRange, SchemaError, UnmappedAddress

LANE_VALUE_MIN, LANE_VALUE_MAX = -(1 << 17), (1 << 17) - 1  # signed 18-bit

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class FaultMode(Enum):
    NONE = "none"
    STUCK_ZERO = "stuck_zero"
    CONSTANT = "constant"
    PULSE = "pulse"


# Codes shared with the execution kernels.
MODE_CODE = {
    FaultMode.NONE: 0,
    FaultMode.STUCK_ZERO: 1,
    FaultMode.CONSTANT: 2,
    FaultMode.PULSE: 3,
}
_MODE_OF_CODE = {code: mode for mode, code in MODE_CODE.items()}


@dataclass(frozen=True)
class LaneFault:
    """Override descriptor for one multiplier output lane."""

    mode: FaultMode = FaultMode.NONE
    value: int = 0  # 18-bit signed, constant/pulse only
    start: int = 0  # first cycle of a pulse window
    length: int = 0  # pulse window length

    def __post_init__(self):
        if self.mode in (FaultMode.CONSTANT, FaultMode.PULSE):
            if not (LANE_VALUE_MIN <= self.value <= LANE_VALUE_MAX):
                raise OutOfRange(f"fault value {self.value} outside 18-bit signed range")
        if self.mode is FaultMode.PULSE:
            if self.start < 0:
                raise OutOfRange(f"pulse start must be >= 0, got {self.start}")
            if self.length < 1:
                raise OutOfRange(f"pulse length must be >= 1, got {self.length}")

    @staticmethod
    def stuck_zero() -> "LaneFault":
        return LaneFault(FaultMode.STUCK_ZERO)

    @staticmethod
    def constant(value: int) -> "LaneFault":
        return LaneFault(FaultMode.CONSTANT, value=value)

    @staticmethod
    def pulse(value: int, start: int, length: int) -> "LaneFault":
        return LaneFault(FaultMode.PULSE, value=value, start=start, length=length)


NO_FAULT = LaneFault()


def fault_for_error_value(value: int) -> LaneFault:
    """Campaign realization of an injected error value: 0 is the stuck-at-zero
    override, anything else a constant override."""
    return LaneFault.stuck_zero() if value == 0 else LaneFault.constant(value)


@functools.cache
def _cell_names(units: int, lanes: int) -> tuple[str, ...]:
    """Spec-text prefix "unit,lane," of every flat cell index."""
    return tuple(f"{u},{l}," for u in range(units) for l in range(lanes))


def _read_only(arrays) -> tuple:
    views = tuple(a.view() for a in arrays)
    for view in views:
        view.flags.writeable = False
    return views


class FaultMap:
    """Dense units x lanes grid of lane faults; default-constructed all-none.

    Stored as the four lane-major arrays the kernels read (index unit *
    lanes + lane): mode (u8, MODE_CODE), value (i32), start and length
    (i64); to_arrays() lends read-only views of them, with no copy.

    Built once, then treated as immutable and shared across worker threads.
    """

    def __init__(self, units: int = 8, lanes: int = 8):
        n = units * lanes
        arrays = (np.zeros(n, np.uint8), np.zeros(n, np.int32),
                  np.zeros(n, np.int64), np.zeros(n, np.int64))
        self._adopt(units, lanes, arrays, _read_only(arrays))

    def _adopt(self, units: int, lanes: int, arrays: tuple, views: tuple) -> "FaultMap":
        self.units = units
        self.lanes = lanes
        self._arrays = arrays
        self._views = views
        return self

    def _index(self, unit: int, lane: int) -> int:
        if not (0 <= unit < self.units and 0 <= lane < self.lanes):
            raise OutOfRange(f"lane ({unit},{lane}) outside {self.units}x{self.lanes} grid")
        return unit * self.lanes + lane

    def set(self, unit: int, lane: int, fault: LaneFault):
        idx = self._index(unit, lane)
        if fault.mode is FaultMode.NONE:
            fault = NO_FAULT  # a none cell is all zeros
        for a, v in zip(self._arrays, (MODE_CODE[fault.mode], fault.value, fault.start, fault.length)):
            a[idx] = v

    def _fault(self, idx: int) -> LaneFault:
        mode, value, start, length = self._arrays
        if not mode[idx]:
            return NO_FAULT
        return LaneFault(_MODE_OF_CODE[int(mode[idx])], int(value[idx]), int(start[idx]), int(length[idx]))

    def get(self, unit: int, lane: int) -> LaneFault:
        return self._fault(self._index(unit, lane))

    def is_empty(self) -> bool:
        return not self._arrays[0].any()

    def cells(self):
        """Yield ((unit, lane), fault) for every non-none cell."""
        for idx in np.flatnonzero(self._arrays[0]).tolist():
            yield divmod(idx, self.lanes), self._fault(idx)

    def to_arrays(self):
        """Kernel view: read-only (mode u8, value i32, start i64, length i64), lane-major."""
        return self._views

    def to_spec_text(self) -> str:
        mode, value, start, length = self._arrays
        idx = np.flatnonzero(mode)
        names = _cell_names(self.units, self.lanes)
        return "".join([names[i] + "zero\n" if m == 1
                        else f"{names[i]}const,{v}\n" if m == 2
                        else f"{names[i]}pulse,{v},{int(start[i])},{int(length[i])}\n"
                        for i, m, v in zip(idx.tolist(), mode[idx].tolist(), value[idx].tolist())])

    def digest(self) -> str:
        head = f"{self.units}x{self.lanes}\n"
        return hashlib.sha256((head + self.to_spec_text()).encode()).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return (
            self.units == other.units
            and self.lanes == other.lanes
            and all(map(np.array_equal, self._arrays, other._arrays))
        )


def single_lane_map(unit: int, lane: int, fault: LaneFault, units: int = 8, lanes: int = 8) -> FaultMap:
    fmap = FaultMap(units, lanes)
    fmap.set(unit, lane, fault)
    return fmap


def parse_fault_spec(text: str, units: int = 8, lanes: int = 8) -> FaultMap:
    """Parse the CLI fault-spec format: ``unit,lane,mode[,value[,start,len]]``.

    ``mode`` is one of zero/const/pulse; blank lines and ``#`` comments are
    skipped.
    """
    fmap = FaultMap(units, lanes)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            unit, lane = int(fields[0]), int(fields[1])
            mode = fields[2]
            if mode == "zero":
                if len(fields) != 3:
                    raise ValueError("zero takes no value")
                fault = LaneFault.stuck_zero()
            elif mode == "const":
                if len(fields) != 4:
                    raise ValueError("const needs a value")
                fault = LaneFault.constant(int(fields[3]))
            elif mode == "pulse":
                if len(fields) != 6:
                    raise ValueError("pulse needs value,start,len")
                fault = LaneFault.pulse(int(fields[3]), int(fields[4]), int(fields[5]))
            else:
                raise ValueError(f"unknown mode {mode!r}")
            fmap.set(unit, lane, fault)
        except (IndexError, ValueError, OutOfRange) as exc:
            raise SchemaError(f"fault spec line {lineno}: {exc}") from exc
    return fmap


# ---------------------------------------------------------------------------
# FI register file (AXI-style control plane)
# ---------------------------------------------------------------------------

REG_FI_GLOBAL_ENABLE = 0x00  # bit 0
REG_FI_INDEX = 0x04  # entry selector, 0..63
REG_FI_CTRL = 0x08  # bit0 enable; bits1-2 mode (0 zero / 1 constant / 2 pulse);
#                     bits8-10 unit; bits11-13 lane
REG_FI_VALUE = 0x0C  # 18-bit value, sign-extended on read
REG_FI_PULSE_START = 0x10
REG_FI_PULSE_LEN = 0x14

_CTRL_MASK = 0x3F07  # enable | mode | unit | lane fields; reserved bits read 0
_N_ENTRIES = 64


class FiRegisterFile:
    """Software model of the fault-injection register plane.

    The geometry is fixed by the register layout: 3-bit unit/lane fields and
    a 64-entry table, i.e. the default 8x8 grid.
    """

    def __init__(self):
        self.global_enable = 0
        self.index = 0
        self.ctrl = [0] * _N_ENTRIES
        self.value = [0] * _N_ENTRIES
        self.pulse_start = [0] * _N_ENTRIES
        self.pulse_len = [0] * _N_ENTRIES

    def write(self, offset: int, value: int):
        value &= 0xFFFFFFFF
        if offset == REG_FI_GLOBAL_ENABLE:
            self.global_enable = value & 0x1
        elif offset == REG_FI_INDEX:
            self.index = value & 0x3F
        elif offset == REG_FI_CTRL:
            self.ctrl[self.index] = value & _CTRL_MASK
        elif offset == REG_FI_VALUE:
            self.value[self.index] = value & 0x3FFFF
        elif offset == REG_FI_PULSE_START:
            self.pulse_start[self.index] = value
        elif offset == REG_FI_PULSE_LEN:
            self.pulse_len[self.index] = value
        else:
            raise UnmappedAddress(f"no register at offset {offset:#x}")

    def read(self, offset: int) -> int:
        if offset == REG_FI_GLOBAL_ENABLE:
            return self.global_enable
        if offset == REG_FI_INDEX:
            return self.index
        if offset == REG_FI_CTRL:
            return self.ctrl[self.index]
        if offset == REG_FI_VALUE:
            raw = self.value[self.index]
            return raw - (1 << 18) if raw & (1 << 17) else raw
        if offset == REG_FI_PULSE_START:
            return self.pulse_start[self.index]
        if offset == REG_FI_PULSE_LEN:
            return self.pulse_len[self.index]
        raise UnmappedAddress(f"no register at offset {offset:#x}")


def write_register(rf: FiRegisterFile, offset: int, value: int) -> FiRegisterFile:
    rf.write(offset, value)
    return rf


def read_register(rf: FiRegisterFile, offset: int) -> int:
    return rf.read(offset)


def materialize(rf: FiRegisterFile) -> FaultMap:
    """Turn register state into a FaultMap.

    Entries are applied in index order, so a later entry targeting the same
    (unit, lane) overwrites an earlier one. Disabled entries, the reserved
    mode code 3, and zero-length pulses contribute nothing; if the global
    enable bit is clear the map is empty regardless of the entries.
    """
    fmap = FaultMap(8, 8)
    if not rf.global_enable:
        return fmap
    for idx in range(_N_ENTRIES):
        ctrl = rf.ctrl[idx]
        if not ctrl & 0x1:
            continue
        mode = (ctrl >> 1) & 0x3
        unit = (ctrl >> 8) & 0x7
        lane = (ctrl >> 11) & 0x7
        raw = rf.value[idx]
        value = raw - (1 << 18) if raw & (1 << 17) else raw
        if mode == 0:
            fmap.set(unit, lane, LaneFault.stuck_zero())
        elif mode == 1:
            fmap.set(unit, lane, LaneFault.constant(value))
        elif mode == 2 and rf.pulse_len[idx] > 0:
            fmap.set(unit, lane, LaneFault.pulse(value, rf.pulse_start[idx], rf.pulse_len[idx]))
    return fmap


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The fixed 64-bit generator behind every random draw in this package."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _mix64(self._state)

    def bounded(self, n: int) -> int:
        """Uniform integer in [0, n) by modulo rejection (bias-free)."""
        if n < 1:
            raise OutOfRange(f"bounded() needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


def derive_seed(master: int, *parts: int) -> int:
    """Per-job seed from (master, fields...); independent of scheduling order."""
    s = master & MASK64
    for p in parts:
        s = _mix64(((s + _GOLDEN) & MASK64) ^ (p & MASK64))
    return s


def _accepted(draws: np.ndarray, n: np.ndarray) -> np.ndarray:
    """SplitMix64.bounded's modulo-rejection test on uint64 draws: a draw
    bounded to [0, n) is kept when it is below 2^64 - 2^64 mod n. In uint64,
    (~n + 1) % n is 2^64 mod n and ~x is 2^64 - 1 - x."""
    return draws <= ~((~n + 1) % n)


def sample_random_fault_maps(ks, templates, seeds, units: int = 8, lanes: int = 8) -> list[FaultMap]:
    """sample_random_fault_map for each (k, template, seed) of the three sequences.

    Draw i = 1, 2, ... of a map is _mix64(seed + i * GOLDEN) modulo the lanes
    left (SplitMix64(seed).bounded's stream), for all maps in one uint64
    pass; the Fisher-Yates swaps then run one step at a time across all maps.
    A map with a rejected draw (odds at most 2^-58 each) redraws through
    SplitMix64.bounded.
    """
    total = units * lanes
    for k in ks:
        if not 0 <= k <= total:
            raise KTooLarge(f"k={k} outside [0, {total}]")
    ks = np.array(ks, dtype=np.intp).reshape(-1)
    runs, steps = len(ks), int(ks.max(initial=0))
    left = np.arange(total, total - steps, -1, dtype=np.uint64)
    state = (np.fromiter((s & MASK64 for s in seeds), np.uint64, runs)[:, None]
             + np.arange(1, steps + 1, dtype=np.uint64) * np.uint64(_GOLDEN))
    draws = _mix64(state)
    offset = (draws % left).astype(np.intp)
    drawn = np.arange(steps) < ks[:, None]
    for r in np.flatnonzero((drawn & ~_accepted(draws, left)).any(axis=1)).tolist():
        rng = SplitMix64(seeds[r])
        offset[r, :ks[r]] = [rng.bounded(total - i) for i in range(ks[r])]
    # Flat positions in a (runs, total) permutation block: step i swaps
    # position i of every map with position i + offset of the same map.
    perm = np.tile(np.arange(total), runs)
    pos_i = np.arange(runs) * total + np.arange(steps)[:, None]
    for a, b in zip(pos_i, pos_i + offset.T):
        perm[a], perm[b] = perm[b], perm[a]
    owner = np.nonzero(drawn)[0]
    flat = owner * total + perm.reshape(runs, total)[:, :steps][drawn]
    fields = np.array([(MODE_CODE[t.mode], t.value, t.start, t.length) for t in templates],
                      dtype=np.int64).reshape(runs, 4)
    blocks = tuple(np.zeros((runs, total), dt) for dt in (np.uint8, np.int32, np.int64, np.int64))
    for block, field in zip(blocks, fields.T):
        block.reshape(-1)[flat] = field[owner]
    # Each map owns one row of every block; rows of read-only views are read-only.
    return [FaultMap.__new__(FaultMap)._adopt(units, lanes, rows[:4], rows[4:])
            for rows in zip(*blocks, *_read_only(blocks))]


def sample_random_fault_map(k: int, template: LaneFault, seed: int,
                            units: int = 8, lanes: int = 8) -> FaultMap:
    """Place ``template`` on k distinct lanes drawn uniformly without replacement.

    Selection is a partial Fisher-Yates shuffle over the flat lane indices
    driven by SplitMix64(seed); identical arguments always produce an
    identical map. The one-map case of sample_random_fault_maps.
    """
    return sample_random_fault_maps([k], [template], [seed], units, lanes)[0]
