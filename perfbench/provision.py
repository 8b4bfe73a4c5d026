"""Build the committed compiled kernel and make it importable as macfi._kernel.

The extension source ``src/macfi/_kernel.c`` is compiled with gcc into the
checkout's ``.bench_build`` directory (never into ``src/``), keyed by the
hash of the source and the interpreter, so only the first run in a checkout
pays for the build. It must be loaded before ``macfi`` is imported, because
``macfi.macarray`` binds the extension at import time.

A failed build is reported as ``compiled=absent`` with the reason; nothing
falls back silently.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np


def _gcc_version(gcc: str | None) -> str:
    if gcc is None:
        return "absent"
    proc = subprocess.run([gcc, "-dumpfullversion"], capture_output=True, text=True, timeout=60)
    return proc.stdout.strip() or "unknown"


def load_compiled_kernel(root: Path, build_dir: Path) -> dict:
    """Build and register macfi._kernel; returns {"compiled": status, ...versions}."""
    gcc = shutil.which("gcc")
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "gcc": _gcc_version(gcc)}
    src = root / "src" / "macfi" / "_kernel.c"
    if not src.is_file():
        return {**info, "compiled": "absent (src/macfi/_kernel.c not found)"}
    if gcc is None:
        return {**info, "compiled": "absent (gcc not found)"}
    key = hashlib.sha256(src.read_bytes())
    key.update(f"{sys.version}|{np.__version__}|{info['gcc']}".encode())
    out = build_dir / "kernel" / key.hexdigest()[:16] / ("_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    status = "cached"
    if not out.is_file():
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = out.with_name(out.name + ".partial")
        cmd = [gcc, "-O2", "-shared", "-fPIC",
               "-I" + sysconfig.get_paths()["include"], "-I" + np.get_include(),
               str(src), "-o", str(tmp)]
        scratch = build_dir / "gcc-tmp"  # keeps gcc's intermediate files inside the checkout
        scratch.mkdir(exist_ok=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                              env={**os.environ, "TMPDIR": str(scratch)})
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return {**info, "compiled": f"absent (gcc exited {proc.returncode}: {tail})"}
        tmp.replace(out)
        status = "built"
    spec = importlib.util.spec_from_file_location("macfi._kernel", out)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        return {**info, "compiled": f"absent (cannot load {out.name}: {exc})"}
    sys.modules["macfi._kernel"] = module
    return {**info, "compiled": status}
