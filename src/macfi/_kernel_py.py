"""Pure-Python execution kernel for packed MAC programs.

Fallback for the C extension in ``_kernel.c``, used when that extension is
not built; both implement the exact same semantics and the test suite asserts
they agree bit for bit. ``engaged`` is the one Python definition of the fault
mux; the emulator's trace events are read from it as well.
Lane products are vectorized with numpy over every row. The accumulate is
one saturating route, stepped over the rows of each output element and
vectorized over the elements.
"""

from __future__ import annotations

import numpy as np

from .qtensor import ACC_MAX, ACC_MIN

BACKEND = "python"


def engaged(unit, act_idx, fmode, fvalue, fstart, flen, lanes: int, cycle0: int):
    """Where the fault muxes override the product, for rows at cycles
    ``cycle0``, ``cycle0 + 1``, ...

    Returns the (n, lanes) bool mask of slots whose mux fires and the int64
    (n, lanes) value it forces there (0 under stuck-at-0). Idle slots
    (act_idx -2) are gated and never fire; padded taps do.
    """
    fidx = unit[:, None].astype(np.int64) * lanes + np.arange(lanes)
    mode = fmode[fidx]
    cyc = cycle0 + np.arange(unit.shape[0], dtype=np.int64)[:, None]
    start = fstart[fidx]
    on = (mode == 1) | (mode == 2) | ((mode == 3) & (start <= cyc) & (cyc < start + flen[fidx]))
    on &= act_idx != -2
    return on, np.where(mode == 1, 0, fvalue[fidx]).astype(np.int64)


def run_program(unit, dest, act_idx, w_idx, act_flat, w_flat, acc,
                fmode, fvalue, fstart, flen, lanes: int, cycle0: int) -> int:
    """Execute one packed layer program against ``acc`` (modified in place).

    acc must be pre-loaded with the per-channel bias, broadcast over the
    spatial output positions. act_idx slots: >=0 flat activation index,
    -1 padding zero (fault mux still applies), -2 idle (gated, no fault).
    Returns the global cycle counter after the last micro-op.
    """
    n = unit.shape[0]
    if n == 0:
        return cycle0

    # Padded and idle slots read activation 0, so their product is 0.
    a = np.where(act_idx >= 0, act_flat[np.maximum(act_idx, 0)], 0).astype(np.int64)
    prod = a * w_flat[np.maximum(w_idx, 0)]

    if fmode.any():
        on, forced = engaged(unit, act_idx, fmode, fvalue, fstart, flen, lanes, cycle0)
        prod = np.where(on, forced, prod)

    mac = np.clip(prod.sum(axis=1, dtype=np.int64), ACC_MIN, ACC_MAX)

    # Step k of an accumulator is its k-th row in program order. A stable
    # sort by dest lays the rows out as (step, dest); each step then
    # saturate-adds into every accumulator at once, padding steps adding 0.
    order = np.argsort(dest, kind="stable")
    counts = np.bincount(dest, minlength=acc.size)
    d = dest[order]
    steps = np.zeros((counts.max(), acc.size), dtype=np.int64)
    steps[np.arange(n) - (np.cumsum(counts) - counts)[d], d] = mac[order]
    acc64 = acc.astype(np.int64)
    for step in steps:
        acc64 += step
        np.clip(acc64, ACC_MIN, ACC_MAX, out=acc64)
    acc[:] = acc64
    return cycle0 + n
