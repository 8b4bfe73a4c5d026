"""Fault descriptors, the FI register control plane, and seeded fault sampling.

Randomness is a fixed SplitMix64 stream (documented in the README): draws
are ``state += 0x9E3779B97F4A7C15; output = mix(state)`` with the standard
finalizer, bounded integers use modulo rejection, and lane subsets come
from a partial Fisher-Yates shuffle. This must never be changed silently:
campaign results are keyed to it.
"""

from __future__ import annotations

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


class FaultMap:
    """Dense units x lanes grid of LaneFaults; default-constructed all-none.

    Built once, then treated as immutable and shared across worker threads.
    """

    def __init__(self, units: int = 8, lanes: int = 8):
        self.units = units
        self.lanes = lanes
        self._grid: list[LaneFault] = [NO_FAULT] * (units * lanes)

    def _index(self, unit: int, lane: int) -> int:
        if not (0 <= unit < self.units and 0 <= lane < self.lanes):
            raise OutOfRange(f"lane ({unit},{lane}) outside {self.units}x{self.lanes} grid")
        return unit * self.lanes + lane

    def set(self, unit: int, lane: int, fault: LaneFault):
        self._grid[self._index(unit, lane)] = fault

    def get(self, unit: int, lane: int) -> LaneFault:
        return self._grid[self._index(unit, lane)]

    def is_empty(self) -> bool:
        return all(f.mode is FaultMode.NONE for f in self._grid)

    def cells(self):
        """Yield ((unit, lane), fault) for every non-none cell."""
        for idx, fault in enumerate(self._grid):
            if fault.mode is not FaultMode.NONE:
                yield divmod(idx, self.lanes), fault

    def to_arrays(self):
        """Kernel view: (mode u8, value i32, start i64, length i64), lane-major."""
        n = self.units * self.lanes
        mode = np.zeros(n, dtype=np.uint8)
        value = np.zeros(n, dtype=np.int32)
        start = np.zeros(n, dtype=np.int64)
        length = np.zeros(n, dtype=np.int64)
        for idx, f in enumerate(self._grid):
            if f.mode is FaultMode.NONE:
                continue
            mode[idx] = MODE_CODE[f.mode]
            value[idx] = f.value
            start[idx] = f.start
            length[idx] = f.length
        return mode, value, start, length

    def to_spec_text(self) -> str:
        lines = []
        for (unit, lane), f in self.cells():
            if f.mode is FaultMode.STUCK_ZERO:
                lines.append(f"{unit},{lane},zero")
            elif f.mode is FaultMode.CONSTANT:
                lines.append(f"{unit},{lane},const,{f.value}")
            else:
                lines.append(f"{unit},{lane},pulse,{f.value},{f.start},{f.length}")
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        head = f"{self.units}x{self.lanes}\n"
        return hashlib.sha256((head + self.to_spec_text()).encode()).hexdigest()[:16]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return (
            self.units == other.units
            and self.lanes == other.lanes
            and self._grid == other._grid
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


def sample_random_fault_map(
    k: int,
    template: LaneFault,
    seed: int,
    units: int = 8,
    lanes: int = 8,
) -> FaultMap:
    """Place ``template`` on k distinct lanes drawn uniformly without replacement.

    Selection is a partial Fisher-Yates shuffle over the flat lane indices
    driven by SplitMix64(seed); identical arguments always produce an
    identical map.
    """
    total = units * lanes
    if not 0 <= k <= total:
        raise KTooLarge(f"k={k} outside [0, {total}]")
    rng = SplitMix64(seed)
    idx = list(range(total))
    for i in range(k):
        j = i + rng.bounded(total - i)
        idx[i], idx[j] = idx[j], idx[i]
    fmap = FaultMap(units, lanes)
    for flat in idx[:k]:
        unit, lane = divmod(flat, lanes)
        fmap.set(unit, lane, template)
    return fmap
