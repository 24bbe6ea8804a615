"""Flat NumPy mirrors of the cost table, for the vector decision kernel.

The scheduler hot loops consume the cost table one scalar at a time; the
vector kernel (:mod:`repro.core.vector_kernel`) instead scores whole
pending x idle populations with array operations.  This module builds the
arrays those operations gather from: every per-(model, layer) column of
:class:`~repro.hardware.cost_table._ModelArrays` concatenated into one
*global layer axis* (per-model offsets map ``(model, layer)`` to a global
index), plus a dense context-switch energy tensor.

Bit-for-bit contract: every element is the exact Python float already
stored in the cost table (float64 conversion is lossless), and the kernel
only ever applies the same elementwise IEEE-754 operations the scalar
expressions apply — so scores computed through these arrays are identical
to the scalar hot path's, bit for bit.

NumPy is an optional dependency of the package, and a heavy one, so it
is loaded only when a vector kernel asks for it: importing this module
(and therefore ``repro``) probes for numpy without importing it, and
:func:`require_numpy` performs the import.  Building a view without NumPy
installed raises a ``RuntimeError`` explaining the fallback
(``kernel="python"``).
"""

from __future__ import annotations

import importlib.util
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.cost_table import CostTable


def _numpy_installed() -> bool:
    """Whether numpy is importable, found without importing it."""
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:
        return False


#: Whether the optional NumPy dependency is importable.
HAVE_NUMPY = _numpy_installed()


def require_numpy():
    """Import and return the numpy module, or raise a helpful error when missing."""
    if not HAVE_NUMPY:
        raise RuntimeError(
            "the vector decision kernel requires numpy, which is not "
            "installed; install numpy or run with kernel='python'"
        )
    import numpy

    return numpy


class VectorCostView:
    """Dense NumPy projection of one :class:`CostTable`.

    Attributes:
        model_index: model name -> model id (sorted-name order).
        none_model: the pseudo model id meaning "no resident model" in the
            previous-model axis of :attr:`switch_energy`.
        layer_offset: model name -> base index on the global layer axis.
        latency / energy: ``[acc_id][global_layer]`` float64 matrices.
        total_latency / average_latency / total_energy / best_latency:
            per-global-layer cross-accelerator aggregates.
        switch_energy: ``[acc_id][previous_model][new_model]`` context
            switch energies, where ``previous_model == none_model`` (the
            extra trailing row) means the accelerator held no model —
            filled from :meth:`CostTable.context_switch_energy`, so every
            entry is the exact scalar the hot path reads.
    """

    def __init__(self, cost_table: "CostTable") -> None:
        np = require_numpy()
        platform = cost_table.platform
        num_acc = platform.num_accelerators
        names = cost_table.model_names  # sorted, deterministic
        self.model_index = {name: index for index, name in enumerate(names)}
        self.none_model = len(names)

        self.layer_offset: dict[str, int] = {}
        total_layers = 0
        per_model = []
        for name in names:
            arrays = cost_table.layer_arrays(name)
            self.layer_offset[name] = total_layers
            total_layers += arrays.num_layers
            per_model.append(arrays)
        self.num_global_layers = total_layers

        def concat(select):
            values: list[float] = []
            for arrays in per_model:
                values.extend(select(arrays))
            return np.array(values, dtype=np.float64)

        self.latency = np.empty((num_acc, total_layers), dtype=np.float64)
        self.energy = np.empty((num_acc, total_layers), dtype=np.float64)
        for acc_id in range(num_acc):
            self.latency[acc_id] = concat(lambda a, i=acc_id: a.latency[i])
            self.energy[acc_id] = concat(lambda a, i=acc_id: a.energy[i])
        self.total_latency = concat(lambda a: a.total_latency)
        self.average_latency = concat(lambda a: a.average_latency)
        self.total_energy = concat(lambda a: a.total_energy)
        self.best_latency = concat(lambda a: a.best_latency)

        # The "no resident model" row (index none_model) stays all zero —
        # context_switch_energy(new, None, acc) is 0.0 by definition.
        switch = np.zeros((num_acc, len(names) + 1, len(names)), dtype=np.float64)
        for acc_id in range(num_acc):
            for prev_id, prev in enumerate(names):
                for new_id, new in enumerate(names):
                    switch[acc_id, prev_id, new_id] = cost_table.context_switch_energy(
                        new, prev, acc_id
                    )
        self.switch_energy = switch

    def global_layer(self, model_name: str, layer_index: int) -> int:
        """Global-layer-axis index of one (model, layer) pair."""
        return self.layer_offset[model_name] + layer_index

    def resident_id(self, resident_model) -> int:
        """Previous-model axis index of an accelerator's resident model."""
        if resident_model is None:
            return self.none_model
        return self.model_index[resident_model]


__all__ = ["HAVE_NUMPY", "VectorCostView", "require_numpy"]
