"""Event-loop implementation selection and compiled-build detection.

Fast mode has exactly one event loop: the struct-of-arrays loop of
:mod:`repro.sim.fastloop`, which runs every fast-mode simulation, faulted
or not.  The dict/heap loop inside :class:`~repro.sim.engine.SimulationEngine`
serves only ``mode="reference"``, the differential oracle.  Two names are
selectable via ``SimulationEngine(loop=...)`` (fast mode only):

* ``"fast"`` — the default: :mod:`repro.sim.fastloop`, pure Python,
  always available;
* ``"compiled"`` — the same module compiled to a C extension with mypyc
  (``pip install .[compiled]`` plus the gated ``build_ext`` hook in
  setup.py).  The extension shadows ``fastloop.py`` under the same
  import name, so when it is present ``loop="fast"`` already runs
  compiled code — ``loop="compiled"`` additionally *asserts* the build
  is active and fails fast (at engine construction, like
  ``kernel="vector"`` without numpy) when it is not.

Both produce bit-for-bit identical results, traces and stats to
reference mode; the parity sweep and ``repro fuzz --kernels reference``
enforce it.
"""

from __future__ import annotations

#: Event-loop implementations selectable via ``SimulationEngine(loop=...)``.
ENGINE_LOOPS = ("fast", "compiled")


def fastloop_is_compiled() -> bool:
    """Whether :mod:`repro.sim.fastloop` is the mypyc-compiled extension."""
    import repro.sim.fastloop as fastloop

    origin = getattr(fastloop, "__file__", None) or ""
    return origin.endswith((".so", ".pyd"))


def available_loops() -> tuple[str, ...]:
    """The loop names constructible in this environment, in axis order."""
    if fastloop_is_compiled():
        return ENGINE_LOOPS
    return ("fast",)


def require_compiled() -> None:
    """Raise a clear error when the compiled fastloop build is absent."""
    if not fastloop_is_compiled():
        raise RuntimeError(
            "loop='compiled' requires the mypyc-built fastloop extension; "
            "install with `pip install mypy` and "
            "`REPRO_BUILD_COMPILED=1 pip install -e . --no-build-isolation` "
            "(see docs/performance.md), or use loop='fast' for the "
            "pure-Python fast loop"
        )
