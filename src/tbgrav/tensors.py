"""Dense tensor containers used across the geometry modules.

Components are numpy object arrays of jets (or plain float arrays once values
are extracted).  Variance is a string of 'u'/'l' characters, one per index,
matching the component array's rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError


@dataclass
class TensorValue:
    components: np.ndarray
    variance: str
    point: np.ndarray
    y: np.ndarray | None = None
    symmetry: tuple[int, int] | None = None  # pair of index slots validated as symmetric

    def __post_init__(self):
        self.components = np.asarray(self.components)
        if self.components.ndim != len(self.variance):
            raise UsageError(
                f"variance {self.variance!r} does not match rank {self.components.ndim}"
            )
        if any(n != 4 for n in self.components.shape):
            raise UsageError("tensor indices must have dimension 4")
        if self.symmetry is not None:
            a, b = self.symmetry
            swapped = np.swapaxes(self.components, a, b)
            for idx in np.ndindex(self.components.shape):
                lhs, rhs = self.components[idx], swapped[idx]
                same = lhs is rhs or _close(lhs, rhs)
                if not same:
                    raise UsageError(f"tensor not symmetric in slots {self.symmetry} at {idx}")

    @property
    def rank(self) -> int:
        return self.components.ndim

    def values(self) -> np.ndarray:
        """Float array of jet values (or the components themselves if numeric)."""
        return jet_values(self.components)


def _close(a, b) -> bool:
    va = a.value if hasattr(a, "value") else float(a)
    vb = b.value if hasattr(b, "value") else float(b)
    return abs(va - vb) <= 1e-12 * (1.0 + abs(va) + abs(vb))


def jet_values(arr: np.ndarray) -> np.ndarray:
    """Extract the value of every jet in an object array."""
    if arr.dtype != object:
        return np.asarray(arr, dtype=float)
    out = np.empty(arr.shape)
    for idx in np.ndindex(arr.shape):
        out[idx] = arr[idx].value
    return out
