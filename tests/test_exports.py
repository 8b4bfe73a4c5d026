from __future__ import annotations

import importlib
import inspect

import macfi
from macfi.planner import PackedOps

# Deleted because each restated one call or expression that callers use
# directly: Emulator(...).run, FiRegisterFile.write/read, ref_execute_layer
# or the *_array kernels, baseline - accuracy, ref_conv2d's int32 array.
REMOVED = {
    "macarray": ["execute_plan"],
    "faultctl": ["write_register", "read_register"],
    "qtensor": ["ref_relu", "ref_maxpool", "ref_gavgpool", "AccTensor"],
    "campaign": ["accuracy_drop"],
}


def test_exports_resolve_once_and_removed_names_stay_gone():
    assert [n for n in macfi.__all__ if not hasattr(macfi, n)] == []
    assert len(set(macfi.__all__)) == len(macfi.__all__)
    namespace: dict = {}
    exec("from macfi import *", namespace)
    assert set(macfi.__all__) <= namespace.keys()
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"macfi.{module}")
        assert [n for n in names if hasattr(mod, n)] == [], module
    assert not hasattr(macfi.ArrayConfig, "total_lanes")
    # len(unit) and LayerProgram.n_ops count a program's rows.
    assert not hasattr(PackedOps, "n_ops")


def test_layer_program_computes_values_only(desk_plan):
    # A traced emulator's events are built once, when it is constructed.
    params = inspect.signature(macfi.Emulator.run_layer_program).parameters
    assert list(params) == ["self", "prog", "x"]
    assert not hasattr(macfi.Emulator(desk_plan, trace=True), "trace")
