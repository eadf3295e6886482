"""Feature matrix loading, validation, normalization, and early fusion.

Feature collections arrive as precomputed dense matrices, one row per
fragment. Two on-disk layouts are supported: plain CSV (``id,v1,...,vd``,
UTF-8, no header row) and the compact ``fbin`` binary layout (magic
``HLF1``, little-endian u32 row and column counts, float32 values in row
major order, then length-prefixed UTF-8 ids). Values are float64 in
memory regardless of the storage format. Ids are written unquoted to
every CSV table, so no id may contain ``,``, ``\\r`` or ``\\n``; nor NUL,
which the ``.npz`` graph cache drops.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hubsel import table

FBIN_MAGIC = b"HLF1"


class FeatureFormatError(ValueError):
    """A feature file violates its declared format."""


def first_fault(ids: list[str], values: np.ndarray | None = None) -> tuple[int, str] | None:
    """(index, fault) of the first row whose id breaks the table dialect or
    repeats an earlier one, or whose values, when given, are not all
    finite; else None."""
    finite = None if values is None else np.isfinite(values).all(axis=1)
    seen: set[str] = set()
    for row, ident in enumerate(ids):
        try:
            table.check_id(ident, "id")
        except ValueError as exc:
            return row, str(exc)
        if ident in seen:
            return row, f"duplicate id '{ident}'"
        if finite is not None and not finite[row]:
            return row, "non-finite value"
        seen.add(ident)
    return None


@dataclass
class FeatureMatrix:
    """Dense per-fragment feature matrix with stable string identifiers.

    Attributes
    ----------
    ids : list of str
        Fragment identifiers, one per row, unique, order preserved.
    values : ndarray of shape (n, d)
        Row-major float64 feature values, all finite.
    """

    ids: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        n, d = self.values.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one row and one column, got {n}x{d}")
        if len(self.ids) != n:
            raise ValueError(f"{len(self.ids)} ids for {n} rows")
        if fault := first_fault(self.ids, self.values):
            raise ValueError(f"row {fault[0] + 1}: {fault[1]}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def feature_format(path) -> str:
    """``'csv'`` or ``'fbin'``, the format the suffix of ``path`` names."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".csv", ".fbin"):
        raise ValueError(f"cannot infer feature format from '{path}', expected .csv or .fbin")
    return suffix[1:]


def load_features(path) -> FeatureMatrix:
    """Load a feature matrix from ``path``.

    Parameters
    ----------
    path : str or Path
        File to read; the suffix ``.csv`` or ``.fbin`` names the format.

    Returns
    -------
    FeatureMatrix

    Raises
    ------
    FeatureFormatError
        On an empty file, a malformed row, text that is not UTF-8, a bad or
        duplicate id, or a non-finite value, naming the path and the line
        (blank lines count; the row in fbin). Any parse fault is named
        before id or value faults.
    OSError
        If the file cannot be read.
    """
    load = _load_csv if feature_format(path) == "csv" else _load_fbin
    try:
        ids, values, lines = load(path)
    except ValueError as exc:  # table.read_rows raises a plain ValueError
        raise FeatureFormatError(str(exc)) from None
    try:
        return FeatureMatrix(ids=ids, values=values)
    except ValueError:
        # the loaders leave only row faults to find; name the row's line
        row, fault = first_fault(ids, values)
        raise FeatureFormatError(f"{path}: row {lines[row]}: {fault}") from None


def _load_csv(path) -> tuple[list[str], np.ndarray, tuple[int, ...]]:
    d = None  # the first row's value count, which every row must have

    def parse(parts):
        nonlocal d
        ident, *tokens = parts
        if not tokens:
            raise ValueError("expected 'id,v1,...,vd', got 1 field(s)")
        if d is None:
            d = len(tokens)
        elif len(tokens) != d:
            raise ValueError(f"expected {d} values, got {len(tokens)}")
        return ident, list(map(float, tokens))

    rows = list(table.read_rows(path, parse=parse))
    if not rows:
        raise FeatureFormatError(f"{path}: empty feature file")
    lines, rows = zip(*rows)
    ids, values = zip(*rows)
    return list(ids), np.array(values, dtype=np.float64), lines


def _load_fbin(path) -> tuple[list[str], np.ndarray, range]:
    data = Path(path).read_bytes()
    if len(data) == 0:
        raise FeatureFormatError(f"{path}: empty feature file")
    if data[:4] != FBIN_MAGIC:
        raise FeatureFormatError(f"{path}: bad magic {data[:4]!r}, expected {FBIN_MAGIC!r}")
    if len(data) < 12:
        raise FeatureFormatError(f"{path}: truncated header")
    n, d = struct.unpack_from("<II", data, 4)
    if n < 1 or d < 1:
        raise FeatureFormatError(f"{path}: invalid shape {n}x{d}")
    body = 12 + n * d * 4
    if len(data) < body:
        raise FeatureFormatError(f"{path}: truncated value block ({len(data)} of {body} bytes)")
    values = np.frombuffer(data, dtype="<f4", count=n * d, offset=12).reshape(n, d)
    ids: list[str] = []
    off = body
    for row in range(n):
        if off + 2 > len(data):
            raise FeatureFormatError(f"{path}: row {row + 1}: truncated id block")
        (ln,) = struct.unpack_from("<H", data, off)
        off += 2
        if off + ln > len(data):
            raise FeatureFormatError(f"{path}: row {row + 1}: truncated id block")
        try:
            ids.append(data[off : off + ln].decode("utf-8"))
        except UnicodeDecodeError:
            raise FeatureFormatError(f"{path}: row {row + 1}: id is not valid UTF-8") from None
        off += ln
    if off != len(data):
        raise FeatureFormatError(f"{path}: {len(data) - off} trailing byte(s)")
    return ids, values, range(1, n + 1)


def save_features(m: FeatureMatrix, path) -> None:
    """Write ``m`` to ``path`` in CSV or fbin format (inferred from suffix)."""
    if feature_format(path) == "csv":
        rows = ([ident, *map(repr, row)] for ident, row in zip(m.ids, m.values.tolist()))
        table.write_rows(path, rows)
    else:
        for ident in m.ids:
            if len(ident.encode("utf-8")) > 0xFFFF:
                raise ValueError(f"id too long for fbin: '{ident[:32]}...'")
        with open(path, "wb") as fh:
            fh.write(FBIN_MAGIC)
            fh.write(struct.pack("<II", m.n, m.d))
            fh.write(np.ascontiguousarray(m.values, dtype="<f4").tobytes())
            for ident in m.ids:
                raw = ident.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)


def l2_normalize(m: FeatureMatrix) -> FeatureMatrix:
    """Scale every row to unit Euclidean norm.

    All-zero rows cannot be normalized; they are passed through unchanged
    and reported in a single warning listing their row indices.
    """
    norms = np.linalg.norm(m.values, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        warnings.warn(
            f"{zero.size} all-zero row(s) left unnormalized "
            f"(row indices {zero.tolist()})"
        )
    scale = np.where(norms == 0.0, 1.0, norms)
    return FeatureMatrix(ids=list(m.ids), values=m.values / scale[:, None])


def fuse(matrices: list[FeatureMatrix]) -> FeatureMatrix:
    """Early-fuse feature matrices by normalized concatenation.

    Each modality is L2-normalized per row, then the rows are concatenated
    in the given order. All inputs must list identical fragment ids in the
    same order.

    Parameters
    ----------
    matrices : list of FeatureMatrix
        One matrix per modality, at least one.

    Returns
    -------
    FeatureMatrix
        Shape (n, sum of modality dimensions).
    """
    if not matrices:
        raise ValueError("fuse needs at least one feature matrix")
    first = matrices[0].ids
    for m in matrices[1:]:
        if m.n != matrices[0].n:
            raise ValueError(f"id mismatch: {matrices[0].n} rows vs {m.n} rows")
        for pos, (a, b) in enumerate(zip(first, m.ids), start=1):
            if a != b:
                raise ValueError(f"id mismatch at row {pos}: '{a}' vs '{b}'")
    parts = [l2_normalize(m).values for m in matrices]
    return FeatureMatrix(ids=list(first), values=np.hstack(parts))
