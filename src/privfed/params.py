"""Canonical model-parameter containers and flat-vector arithmetic.

Parameters move between learners, privacy filters, encryption packing and
aggregation as either a named-tensor set (:class:`ParamSet`) or its flattened
form (a float64 vector plus a :class:`LayoutManifest` describing how to fold
it back).  Flattening is entry-declaration order, row-major within tensors,
and all values are float64 end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError


def _as_value_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ParamEntry:
    name: str
    shape: tuple[int, ...]
    values: np.ndarray

    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1


class ParamSet:
    """Ordered collection of named float64 tensors.

    Entry names are unique and the declaration order is preserved; it defines
    the canonical flattening order.
    """

    def __init__(self, entries):
        built = []
        seen = set()
        for name, shape, values in entries:
            if name in seen:
                raise LayoutError(f"duplicate entry name {name!r}")
            seen.add(name)
            shape = tuple(int(s) for s in shape)
            if any(s <= 0 for s in shape):
                raise LayoutError(f"entry {name!r} has nonpositive dimension {shape}")
            arr = _as_value_array(values).reshape(-1)
            expected = int(np.prod(shape, dtype=np.int64))
            if arr.size != expected:
                raise LayoutError(
                    f"entry {name!r}: shape {shape} wants {expected} values, got {arr.size}"
                )
            built.append(ParamEntry(name, shape, arr.reshape(shape)))
        self._entries = tuple(built)

    @property
    def entries(self) -> tuple[ParamEntry, ...]:
        return self._entries

    def names(self) -> list[str]:
        return [e.name for e in self._entries]

    def tensor(self, name: str) -> np.ndarray:
        for e in self._entries:
            if e.name == name:
                return e.values
        raise KeyError(name)

    def same_layout(self, other: "ParamSet") -> bool:
        return [(e.name, e.shape) for e in self._entries] == [
            (e.name, e.shape) for e in other._entries
        ]

    def __eq__(self, other):
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self.same_layout(other) and all(
            np.array_equal(a.values, b.values)
            for a, b in zip(self._entries, other._entries)
        )

    def __repr__(self):
        inner = ", ".join(f"{e.name}:{list(e.shape)}" for e in self._entries)
        return f"ParamSet({inner})"


@dataclass(frozen=True)
class LayoutManifest:
    """Name/shape/offset table recording where each tensor sits in the flat vector."""

    entries: tuple[tuple[str, tuple[int, ...], int], ...]
    total_length: int

    @classmethod
    def of(cls, params: ParamSet) -> "LayoutManifest":
        rows = []
        offset = 0
        for e in params.entries:
            rows.append((e.name, e.shape, offset))
            offset += e.size()
        return cls(tuple(rows), offset)


def flatten(params: ParamSet) -> tuple[np.ndarray, LayoutManifest]:
    """Concatenate all tensors (entry order, row-major) into one float64 vector."""
    manifest = LayoutManifest.of(params)
    if manifest.total_length == 0:
        return np.zeros(0, dtype=np.float64), manifest
    flat = np.concatenate([e.values.reshape(-1) for e in params.entries]).astype(
        np.float64, copy=False
    )
    return flat, manifest


def unflatten(flat: np.ndarray, manifest: LayoutManifest) -> ParamSet:
    """Fold a flat vector back into the named-tensor form described by ``manifest``."""
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    if flat.size != manifest.total_length:
        raise LayoutError(
            f"flat length {flat.size} != manifest length {manifest.total_length}"
        )
    entries = []
    for name, shape, offset in manifest.entries:
        size = int(np.prod(shape, dtype=np.int64))
        entries.append((name, shape, flat[offset : offset + size].reshape(shape)))
    return ParamSet(entries)


def compute_delta(after: ParamSet, before: ParamSet) -> ParamSet:
    """Elementwise ``after - before``; layouts must match exactly."""
    if not after.same_layout(before):
        raise LayoutError("parameter layouts differ")
    return ParamSet(
        (a.name, a.shape, a.values - b.values)
        for a, b in zip(after.entries, before.entries)
    )


def apply_update(base: ParamSet, delta_flat: np.ndarray, manifest: LayoutManifest) -> ParamSet:
    """Add a flattened delta onto ``base``; manifest must describe base's layout."""
    base_manifest = LayoutManifest.of(base)
    if base_manifest != manifest:
        raise LayoutError("manifest does not match base layout")
    delta = unflatten(delta_flat, manifest)
    return ParamSet(
        (b.name, b.shape, b.values + d.values)
        for b, d in zip(base.entries, delta.entries)
    )


def check_finite(flat: np.ndarray, context: str = "vector") -> np.ndarray:
    """Reject NaN/Inf; filters and aggregation must hand over finite values."""
    flat = np.asarray(flat, dtype=np.float64)
    if not np.all(np.isfinite(flat)):
        raise LayoutError(f"{context} contains non-finite values")
    return flat
