"""Pure-Python execution kernel for packed MAC programs.

Fallback for the C extension in ``_kernel.c``, used when that extension is
not built; both implement the exact same semantics and the test suite asserts
they agree bit for bit.
Lane products are vectorized with numpy; the saturating accumulate runs as
a plain loop only when an intermediate 32-bit overflow is actually possible.
"""

from __future__ import annotations

import numpy as np

from .qtensor import ACC_MAX, ACC_MIN

BACKEND = "python"


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

    carried = act_idx != -2
    a = np.where(act_idx >= 0, act_flat[np.maximum(act_idx, 0)], 0).astype(np.int64)
    b = np.where(carried, w_flat[np.maximum(w_idx, 0)], 0).astype(np.int64)
    prod = a * b

    if fmode.any():
        fidx = unit[:, None].astype(np.int64) * lanes + np.arange(lanes)[None, :]
        mode = fmode[fidx]
        cyc = cycle0 + np.arange(n, dtype=np.int64)[:, None]
        pulse_on = (mode == 3) & (fstart[fidx] <= cyc) & (cyc < fstart[fidx] + flen[fidx])
        prod = np.where(carried & (mode == 1), 0, prod)
        prod = np.where(carried & ((mode == 2) | pulse_on), fvalue[fidx].astype(np.int64), prod)

    mac = np.clip(prod.sum(axis=1, dtype=np.int64), ACC_MIN, ACC_MAX)

    # If no prefix sum can leave the 32-bit range, a bulk scatter-add equals
    # the per-step saturating accumulate; otherwise do it step by step.
    rows_per_dest = int(np.bincount(dest).max())
    bound = int(np.abs(acc).max(initial=0)) + rows_per_dest * int(np.abs(mac).max(initial=0))
    if bound <= ACC_MAX:
        acc64 = acc.astype(np.int64)
        np.add.at(acc64, dest, mac)
        acc[:] = acc64
    else:
        acc_list = acc.tolist()
        for d, m in zip(dest.tolist(), mac.tolist()):
            s = acc_list[d] + m
            if s > ACC_MAX:
                s = ACC_MAX
            elif s < ACC_MIN:
                s = ACC_MIN
            acc_list[d] = s
        acc[:] = acc_list
    return cycle0 + n
