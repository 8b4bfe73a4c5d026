from __future__ import annotations

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

# Build the C kernel with the benchmark's own recipe and register it as
# macfi._kernel before macfi is imported, so the suite exercises the compiled
# backend. Without gcc or _kernel.c the compiled-only tests skip; with both,
# a kernel that fails to build or load stops the session.
ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("provision", ROOT / "perfbench" / "provision.py")
_provision = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_provision)
_KERNEL_STATUS = _provision.load_compiled_kernel(ROOT, ROOT / ".bench_build")["compiled"]

import macfi.macarray as macarray
from macfi.deskmodel import build_desk_dataset, build_desk_model, write_desk_bundle
from macfi.planner import plan_model

from helpers import make_cin4_model, make_dataset_for

_ACCEPT = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")


def pytest_configure(config):
    """Stops the session when gcc and _kernel.c are present but the kernel
    did not build or load."""
    if (_KERNEL_STATUS.startswith("absent") and shutil.which("gcc")
            and (ROOT / "src" / "macfi" / "_kernel.c").is_file()):
        pytest.exit(f"compiled kernel {_KERNEL_STATUS}", returncode=pytest.ExitCode.INTERNAL_ERROR)


def pytest_report_teststatus(report, config):
    """Replace the verbose-mode status word with an acceptance verdict line."""
    m = _ACCEPT.search(report.nodeid)
    if m is None:
        return None
    label = f"ACCEPTANCE {int(m.group(1))} {m.group(2)}"
    if report.when == "call":
        if report.passed:
            return "passed", ".", f"{label}: PASS"
        if report.failed:
            return "failed", "F", f"{label}: FAIL"
        return "skipped", "s", f"{label}: SKIP"
    if report.failed:  # fixture error counts as a failed criterion
        return "error", "E", f"{label}: FAIL"
    return None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One ACCEPTANCE line per criterion, printed outside capture in any mode."""
    verdicts: dict[tuple[int, str], str] = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            m = _ACCEPT.search(getattr(rep, "nodeid", ""))
            when = getattr(rep, "when", None)
            if m is None or when not in ("call", "setup"):
                continue
            outcome = getattr(rep, "outcome", "")
            if when == "setup" and outcome == "passed":
                continue
            key = (int(m.group(1)), m.group(2))
            verdicts[key] = "PASS" if outcome == "passed" else "FAIL"
    if verdicts:
        terminalreporter.write_sep("-", "acceptance criteria")
        for (n, name), verdict in sorted(verdicts.items()):
            terminalreporter.write_line(f"ACCEPTANCE {n} {name}: {verdict}")


@pytest.fixture(params=["compiled", "python"])
def backend(request, monkeypatch):
    """Runs the test once per kernel; "python" pins an install without the
    extension."""
    if request.param == "python":
        monkeypatch.setattr(macarray, "_kernel", None)
    elif macarray._kernel is None:
        pytest.skip("compiled kernel not built")
    return request.param


@pytest.fixture(scope="session")
def desk_graph():
    return build_desk_model()


@pytest.fixture(scope="session")
def desk_dataset(desk_graph):
    return build_desk_dataset(desk_graph, 32)


@pytest.fixture(scope="session")
def desk_plan(desk_graph):
    return plan_model(desk_graph)


@pytest.fixture(scope="session")
def desk_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    return write_desk_bundle(str(out), 32)


@pytest.fixture(scope="session")
def cin4_graph():
    return make_cin4_model()


@pytest.fixture(scope="session")
def cin4_plan(cin4_graph):
    return plan_model(cin4_graph)


@pytest.fixture(scope="session")
def cin4_dataset(cin4_graph):
    return make_dataset_for(cin4_graph, 16, seed=99)
