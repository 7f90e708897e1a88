"""Length-checked arithmetic on flat parameter vectors.

A model's parameters are one float64 vector θ in its learner's static layout
(``learners.LAYOUTS``): tensors in declaration order, row-major within each.
Updates, privacy filters, encryption packing and aggregation all work on
vectors of that form, so the only layout fact left to check here is length.

Only the benchmark harness under ``perfbench/`` uses this module's
``LayoutManifest``, ``flatten``, ``unflatten``, ``compute_delta`` and
``apply_update``: the round computes ``trained - θ`` and ``θ + Δ`` directly,
each frame's length being checked where it is read.  The package itself
uses only ``check_finite``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError


@dataclass(frozen=True)
class LayoutManifest:
    """The length of a θ; ``apply_update`` checks a delta against it."""

    total_length: int

    @classmethod
    def of(cls, theta) -> "LayoutManifest":
        return cls(np.asarray(theta).size)


def _vector(values, length: int, what: str) -> np.ndarray:
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if flat.size != length:
        raise LayoutError(f"{what} has {flat.size} values, expected {length}")
    return flat


def flatten(theta) -> tuple[np.ndarray, LayoutManifest]:
    """A copy of θ and its manifest.  Kept only for the benchmark harness
    under ``perfbench/``; it goes with that harness's next change."""
    flat = np.array(theta, dtype=np.float64).reshape(-1)
    return flat, LayoutManifest.of(flat)


def unflatten(flat, manifest: LayoutManifest) -> np.ndarray:
    """A copy of ``flat``, which must have the manifest's length.  Kept, like
    ``flatten``, only for the benchmark harness."""
    return _vector(flat, manifest.total_length, "flat vector").copy()


def compute_delta(after, before) -> np.ndarray:
    """Elementwise ``after - before``; the lengths must match."""
    before = np.asarray(before, dtype=np.float64)
    return _vector(after, before.size, "parameters after training") - before


def apply_update(base, delta, manifest: LayoutManifest) -> np.ndarray:
    """``base + delta``; both must have the manifest's length."""
    base = _vector(base, manifest.total_length, "base parameters")
    return base + _vector(delta, manifest.total_length, "update")


def check_finite(flat: np.ndarray, context: str = "vector") -> np.ndarray:
    """Reject NaN/Inf; filters and aggregation must hand over finite values."""
    flat = np.asarray(flat, dtype=np.float64)
    if not np.all(np.isfinite(flat)):
        raise LayoutError(f"{context} contains non-finite values")
    return flat
