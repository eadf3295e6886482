"""Seeded synthetic collections for the benchmark.

Rows are drawn from N(1, 1) in d = 128 dimensions. The mean offset makes
hubs form under cosine distance (seed 0 gives N_k skewness 7.0 at k = 10).
The writers below follow the documented CSV and fbin layouts directly, so
the program under test only ever receives finished files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N = 5000
D = 128
SCORE_MAX = 15


@dataclass
class Collection:
    ids: list[str]
    values: np.ndarray  # (n, d) float64, exactly what the CSV holds
    scores: np.ndarray  # (n,) int, subjective scores 0..15


def make_collection(seed: int, n: int = N, d: int = D) -> Collection:
    """The same seed gives the same collection, bit for bit."""
    rng = np.random.default_rng(seed)
    values = rng.normal(1.0, 1.0, size=(n, d))
    scores = rng.integers(0, SCORE_MAX + 1, size=n)
    return Collection(ids=[f"f{i:06d}" for i in range(n)], values=values, scores=scores)


def write_csv(c: Collection, path: Path) -> None:
    """``id,v1,...,vd`` rows, no header; repr() round-trips every float64."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ident, row in zip(c.ids, c.values.tolist()):
            fh.write(ident + "," + ",".join(map(repr, row)) + "\n")


def write_fbin(c: Collection, path: Path) -> None:
    """Magic ``HLF1``, u32 n and d, float32 values, u16-length-prefixed ids."""
    n, d = c.values.shape
    with open(path, "wb") as fh:
        fh.write(b"HLF1")
        fh.write(struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(c.values, dtype="<f4").tobytes())
        for ident in c.ids:
            raw = ident.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)) + raw)


def write_scores(c: Collection, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("fragment_id,score\n")
        for ident, s in zip(c.ids, c.scores.tolist()):
            fh.write(f"{ident},{s}\n")
