from __future__ import annotations

import importlib

import macfi

# Deleted because each restated one call or expression that callers use
# directly: Emulator(...).run, FiRegisterFile.write/read, ref_execute_layer
# or the *_array kernels, baseline - accuracy.
REMOVED = {
    "macarray": ["execute_plan"],
    "faultctl": ["write_register", "read_register"],
    "qtensor": ["ref_relu", "ref_maxpool", "ref_gavgpool"],
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
