"""Degradation without numpy: the vector kernel must fail loudly, not late.

The environment running this suite ships numpy, so these tests simulate
a numpy-free install with an import-block fixture: a meta-path finder that
refuses to find numpy, plus a reload of ``repro.hardware.vector_view`` so
its module-level ``importlib.util.find_spec`` probe re-runs and concludes
``HAVE_NUMPY = False``.  The probe answers from ``sys.modules`` when numpy
was already imported (earlier vector-kernel tests import it), so the
fixture hides those entries for the duration of the test.  The real numpy
state is restored (and the module reloaded again) after each test, so the
rest of the suite is unaffected.

numpy is loaded only when a vector kernel asks for it, so importing the
package and its entry points must leave it unimported.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.jobs import shared_context
from repro.schedulers import make_scheduler
from repro.sim import SimulationEngine


class _NumpyBlocker:
    """Meta-path finder that makes ``import numpy`` fail immediately."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"import of {name!r} blocked by test fixture")
        return None


@pytest.fixture
def numpy_absent(monkeypatch):
    """Reload vector_view in a world where numpy cannot be imported."""
    import repro.hardware.vector_view as vector_view

    blocker = _NumpyBlocker()
    sys.meta_path.insert(0, blocker)
    # Hide cached numpy modules so the find_spec probe actually consults
    # the blocker (monkeypatch restores every entry afterwards).
    for name in [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]:
        monkeypatch.delitem(sys.modules, name)
    try:
        importlib.reload(vector_view)
        assert vector_view.HAVE_NUMPY is False
        yield vector_view
    finally:
        sys.meta_path.remove(blocker)
        monkeypatch.undo()
        importlib.reload(vector_view)
        assert vector_view.HAVE_NUMPY is True


def _make_engine(kernel):
    scenario, platform, cost_table = shared_context("ar_call", "4k_1ws_2os", 0.5)
    return SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler("dream_full"),
        duration_ms=100.0,
        cost_table=cost_table,
        kernel=kernel,
    )


def test_vector_kernel_fails_at_construction_with_clear_message(numpy_absent):
    # The error must fire while the engine is being built — not deep in the
    # first scheduling round — and must name both the missing dependency
    # and the fallback.
    with pytest.raises(RuntimeError, match="requires numpy") as excinfo:
        _make_engine("vector")
    assert "kernel='python'" in str(excinfo.value)


def test_python_kernel_still_runs_without_numpy(numpy_absent):
    result = _make_engine("python").run()
    assert sum(stats.total_frames for stats in result.task_stats.values()) > 0


def test_require_numpy_raises_and_returns(numpy_absent):
    with pytest.raises(RuntimeError, match="not\\s+installed"):
        numpy_absent.require_numpy()


def test_importing_repro_does_not_load_numpy():
    # A fresh interpreter: this process may already hold numpy from the
    # vector-kernel tests.
    script = (
        "import sys\n"
        "import repro, repro.experiments.harness, repro.fleet, repro.cli\n"
        "from repro.hardware.vector_view import HAVE_NUMPY\n"
        "print(HAVE_NUMPY, 'numpy' in sys.modules)\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    output = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        check=True, capture_output=True, text=True,
    ).stdout.split()
    # The probe still sees numpy (where it is installed) without loading it.
    from repro.hardware.vector_view import HAVE_NUMPY

    assert output == [str(HAVE_NUMPY), "False"]
