"""Serialization: self-describing binary container, canonical JSON, atomic writes."""

from __future__ import annotations

import json
import operator
import os
import struct
import tempfile
from typing import Union

import numpy as np

from .grid import NORMALIZATION_TAG, GridSpec, Path, to_spectrum
from .nonlinearity import DEALIAS_FACTOR

MAGIC = b"GKDVBIN1"
SCHEMA_VERSION = 1


class ContainerError(ValueError):
    """Malformed or incompatible binary container."""


def _header(grid: GridSpec, kind: str, count: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "domain_length": grid.domain_length,
        "num_points": grid.num_points,
        "dt": grid.dt,
        "num_steps": grid.num_steps,
        "dealias_factor": DEALIAS_FACTOR,
        "normalization": NORMALIZATION_TAG,
        "endianness": "little",
        "count": count,
    }


def _pack(grid: GridSpec, kind: str, payload_rows: np.ndarray) -> bytes:
    head = json.dumps(_header(grid, kind, payload_rows.shape[0]),
                      sort_keys=True, separators=(",", ":")).encode()
    body = np.ascontiguousarray(payload_rows, dtype="<f8").tobytes()
    return MAGIC + struct.pack("<I", len(head)) + head + body


def _unpack(blob: bytes):
    if blob[:8] != MAGIC:
        raise ContainerError("bad magic; not a path container")
    try:
        (hlen,) = struct.unpack("<I", blob[8:12])
        head = json.loads(blob[12:12 + hlen].decode())
        grid = GridSpec(head["domain_length"], head["num_points"], head["dt"], head["num_steps"])
        count = operator.index(head["count"])
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise ContainerError(f"malformed container header: {exc!r}") from None
    if head.get("normalization") != NORMALIZATION_TAG:
        raise ContainerError("container uses a different transform normalization")
    if head.get("schema_version") != SCHEMA_VERSION or head.get("endianness") != "little":
        raise ContainerError("container has another schema version or byte order")
    body = np.frombuffer(blob[12 + hlen:], dtype="<f8")
    if body.size != count * grid.num_points:
        raise ContainerError("payload size disagrees with header")
    rows = body.reshape(count, grid.num_points)
    return head, grid, rows


def atomic_write_bytes(path: Union[str, os.PathLike], data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def save_path(p: Path, path) -> None:
    atomic_write_bytes(path, _pack(p.grid, "path", p.values_matrix))


def load(path):
    """Load a path container."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, grid, rows = _unpack(blob)
    if head["kind"] == "path":
        if rows.shape[0] != grid.num_steps + 1:
            raise ContainerError("path snapshot count disagrees with grid")
        return Path._adopt(grid, to_spectrum(rows, grid.num_points))
    raise ContainerError(f"unknown kind {head['kind']!r}")


def canonical_json(obj) -> str:
    """Deterministic JSON used for every report: sorted keys, repr floats."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
