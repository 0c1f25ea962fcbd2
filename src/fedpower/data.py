"""Dataset ingestion (LIBSVM text format), feature scaling, row partitioning
into worker shards, and synthetic matrices with prescribed spectra.

Matrices are stored dense; the intended scale is desk-size experiments
(n * d up to 1e8 entries).
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateData,
    DimensionMismatch,
    IndexOutOfRange,
    ParseError,
    TooManyShards,
)
from .linalg import as_matrix, gram, orth, top_eigenpairs

__all__ = [
    "DENSE_ENTRY_LIMIT",
    "ShardedDataset",
    "SyntheticSpec",
    "parse_libsvm",
    "partition",
    "scale_features",
    "synth",
    "write_libsvm",
]

DENSE_ENTRY_LIMIT = 10**8


@dataclass(frozen=True)
class ShardedDataset:
    """A global n x d matrix split into m row shards with weights s_i / n.

    The shard Grams, ``eta``, the local eigenpairs and the reference bases
    are built on first use and cached, so every run and baseline on one
    dataset shares them. The
    Gram stack keeps m * d * d floats alive for the dataset's lifetime.
    """

    shards: tuple[np.ndarray, ...]
    _eigenpairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _references: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.shards:
            raise DimensionMismatch("a dataset needs at least one shard")
        d = self.shards[0].shape[1]
        for i, s in enumerate(self.shards):
            if s.ndim != 2 or s.shape[1] != d:
                raise DimensionMismatch(f"shard {i} has shape {s.shape}, expected (*, {d})")
            if s.shape[0] < 1:
                raise DimensionMismatch(f"shard {i} is empty")

    @property
    def m(self) -> int:
        return len(self.shards)

    @property
    def d(self) -> int:
        return self.shards[0].shape[1]

    @property
    def n(self) -> int:
        return sum(s.shape[0] for s in self.shards)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.shape[0] for s in self.shards)

    @property
    def weights(self) -> np.ndarray:
        sizes = np.array(self.sizes, dtype=np.float64)
        return sizes / sizes.sum()

    @property
    def min_shard_size(self) -> int:
        return min(self.sizes)

    def stacked(self) -> np.ndarray:
        """All shards stacked back into one n x d matrix (shard order)."""
        return np.vstack(self.shards)

    def global_gram(self) -> np.ndarray:
        """Second-moment matrix of the full dataset, ``A.T @ A / n = sum_i p_i M_i``."""
        return np.tensordot(self.weights, self.shard_grams, axes=1)

    @cached_property
    def shard_grams(self) -> np.ndarray:
        """(m, d, d) stack of the shard second-moment matrices ``M_i``."""
        grams = np.empty((self.m, self.d, self.d))
        for i, shard in enumerate(self.shards):
            grams[i] = gram(shard)
        return grams

    @cached_property
    def eta(self) -> float:
        """Smallest eta with ``||M_i - M||_2 <= eta ||M||_2`` over all shards."""
        m_global = self.global_gram()
        denom = float(np.linalg.norm(m_global, 2))
        if denom == 0.0:
            raise DegenerateData("global second-moment matrix is zero")
        worst = max(float(np.linalg.norm(g - m_global, 2)) for g in self.shard_grams)
        return worst / denom

    def reference_basis(self, k: int) -> np.ndarray:
        """Top-k eigenbasis of :meth:`global_gram`, cached per k."""
        if k not in self._references:
            self._references[k] = top_eigenpairs(self.global_gram(), k).u
        return self._references[k]

    def local_eigenpairs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k eigenvectors (m, d, k) and eigenvalues (m, k) of every shard
        Gram, cached per k. One SVD per shard: a stacked SVD would hold two
        (m, d, d) factors at once."""
        if k not in self._eigenpairs:
            vecs = np.empty((self.m, self.d, k))
            vals = np.empty((self.m, k))
            for i, g in enumerate(self.shard_grams):
                vecs[i], vals[i], _ = top_eigenpairs(g, k)
            self._eigenpairs[k] = (vecs, vals)
        return self._eigenpairs[k]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a random matrix with exactly the given singular values."""

    n: int
    d: int
    singular_values: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "singular_values", tuple(float(s) for s in self.singular_values))
        sv = self.singular_values
        if not 1 <= len(sv) <= min(self.n, self.d):
            raise DimensionMismatch(
                f"need between 1 and min(n, d)={min(self.n, self.d)} singular values, got {len(sv)}"
            )
        if any(s <= 0.0 for s in sv):
            raise ValueError("singular values must be positive")
        if any(sv[i] < sv[i + 1] for i in range(len(sv) - 1)):
            raise ValueError("singular values must be non-increasing")


def synth(spec: SyntheticSpec) -> np.ndarray:
    """Matrix ``u @ diag(sv) @ v.T`` with random orthonormal u, v.

    Both factors come from QR of seeded Gaussians, so the same spec always
    produces the same matrix, and its singular values match the spec to
    roughly machine precision.
    """
    rng = np.random.default_rng(spec.seed)
    rank = len(spec.singular_values)
    u = orth(rng.standard_normal((spec.n, rank)))
    v = orth(rng.standard_normal((spec.d, rank)))
    return (u * np.asarray(spec.singular_values)) @ v.T


def scale_features(a) -> np.ndarray:
    """Divide each column by its maximum absolute value (zero columns are
    left alone), mapping every entry into [-1, 1]. Idempotent."""
    a = as_matrix(a).copy()
    max_abs = np.abs(a).max(axis=0) if a.shape[0] else np.zeros(a.shape[1])
    nonzero = max_abs > 0.0
    a[:, nonzero] /= max_abs[nonzero]
    return a


def partition(a, m: int, mode: str = "contiguous", seed: int | None = None) -> ShardedDataset:
    """Split the rows of ``a`` into m shards.

    The first ``n mod m`` shards get ``ceil(n / m)`` rows, the rest get
    ``floor(n / m)``. Mode "contiguous" keeps row order; "shuffled" first
    permutes rows with a seeded Fisher-Yates shuffle and is reproducible for
    a fixed seed.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > n:
        raise TooManyShards(f"cannot split {n} rows into {m} shards")
    if mode == "shuffled":
        if seed is None:
            raise ValueError("shuffled partitioning requires a seed")
        order = np.random.default_rng(seed).permutation(n)
        a = a[order]
    elif mode != "contiguous":
        raise ValueError(f"unknown partition mode {mode!r}")
    big = n % m
    base = n // m
    sizes = [base + 1] * big + [base] * (m - big)
    shards = []
    offset = 0
    for s in sizes:
        shards.append(a[offset:offset + s].copy())
        offset += s
    return ShardedDataset(tuple(shards))


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def parse_libsvm(path, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parse a LIBSVM text file into a dense matrix plus label vector.

    Lines look like ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices; absent indices are zero. When ``d`` is omitted it is
    inferred as the largest index seen. Files ending in ``.gz`` are
    decompressed transparently. Labels are returned but nothing downstream
    uses them.
    """
    rows: list[list[tuple[int, float]]] = []
    labels: list[float] = []
    max_index = 0
    offset = 0
    with _open_maybe_gzip(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line_offset = offset
            offset += len(raw)
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"undecodable bytes: {exc}", line_no, line_offset) from None
            text = text.strip()
            if not text:
                continue
            parts = text.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"bad label {parts[0]!r}", line_no, line_offset) from None
            entries: list[tuple[int, float]] = []
            prev = 0
            for token in parts[1:]:
                idx_text, sep, val_text = token.partition(":")
                if not sep:
                    raise ParseError(f"expected idx:val, got {token!r}", line_no, line_offset)
                try:
                    idx = int(idx_text)
                    val = float(val_text)
                except ValueError:
                    raise ParseError(f"bad feature token {token!r}", line_no, line_offset) from None
                if idx < 1 or idx <= prev:
                    raise ParseError(
                        f"indices must be 1-based and strictly increasing, got {idx} after {prev}",
                        line_no,
                        line_offset,
                    )
                if not np.isfinite(val):
                    raise ParseError(f"non-finite value in token {token!r}", line_no, line_offset)
                if d is not None and idx > d:
                    raise IndexOutOfRange(
                        f"feature index {idx} exceeds declared d={d} (line {line_no})"
                    )
                entries.append((idx, val))
                prev = idx
            max_index = max(max_index, prev)
            labels.append(label)
            rows.append(entries)
    width = d if d is not None else max_index
    if len(rows) * width > DENSE_ENTRY_LIMIT:
        raise ParseError(
            f"dense matrix of {len(rows)} x {width} exceeds the {DENSE_ENTRY_LIMIT:.0e}-entry limit"
        )
    matrix = np.zeros((len(rows), width))
    for r, entries in enumerate(rows):
        for idx, val in entries:
            matrix[r, idx - 1] = val
    return matrix, np.asarray(labels)


def write_libsvm(path, matrix, labels=None) -> None:
    """Write a dense matrix in LIBSVM format (zeros omitted).

    Values are rendered with ``repr`` so a parse round trip reproduces every
    float64 exactly.
    """
    matrix = as_matrix(matrix)
    if labels is None:
        labels = np.zeros(matrix.shape[0])
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(matrix, labels):
            fields = [repr(float(label))]
            for j, val in enumerate(row, 1):
                if val != 0.0:
                    fields.append(f"{j}:{float(val)!r}")
            fh.write(" ".join(fields) + "\n")
