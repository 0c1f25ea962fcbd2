"""Dataset ingestion (LIBSVM text format), feature scaling, row partitioning
into worker shards, and synthetic matrices with prescribed spectra.

Matrices are stored dense; the intended scale is desk-size experiments
(n * d up to 1e8 entries).
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateData,
    DimensionMismatch,
    IndexOutOfRange,
    NonFinite,
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

# The least weight a chunk of local steps gives a shard's r-th eigendirection against its first (see
# ShardedDataset.local_steps): Householder QR without pivoting loses accuracy on rows graded further.
_CHUNK_FLOOR = 1e-8

# ShardedDataset.eta skips a shard once its norm bound, widened by this factor, falls below the largest exact
# norm so far: far above the bound's rounding error (about d * eps), far below its slack over the norm.
_BOUND_MARGIN = 1e-6


def _symmetric_norm(x: np.ndarray) -> float:
    """Spectral norm of the symmetric matrix ``x``: its largest absolute eigenvalue."""
    return float(np.abs(np.linalg.eigvalsh(x)[[0, -1]]).max())


def _schatten8_bound(g: np.ndarray, m_global: np.ndarray) -> float:
    """``s ||(x / s)**4||_F**(1/4)`` for ``x = g - m_global`` and ``s = max|x|``:
    an upper bound on the spectral norm of the symmetric matrix x, since
    ``||x**4||_F >= ||x||_2**4``. ``x / s`` has entries in [-1, 1] and norm at
    least 1, so its fourth power neither underflows nor overflows. x is
    scaled in place: with a second d x d buffer for ``x / s``, the bound took
    1.6 times as long at d = 300 (one OpenBLAS thread)."""
    x = g - m_global
    s = float(np.abs(x).max())
    if s == 0.0:
        return 0.0
    x /= s
    x2 = x @ x.T
    return s * float(np.linalg.norm(x2 @ x2.T)) ** 0.25


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a shared array that a caller's write must not reach."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ShardedDataset:
    """A global n x d matrix split into m row shards with weights s_i / n.

    The shard sizes and Grams, the global Gram, ``eta``, the local eigenpairs
    and the reference bases are built on first use (``eta`` on first read)
    and cached, so every run and baseline on one dataset shares them. Every
    cached array is read-only: an in-place write raises ``ValueError``
    instead of reaching later runs. The Gram stack keeps m * d * d floats
    alive for the dataset's lifetime. When the tallest shard has h rows with
    ``2 * h < d``, the local products, steps and eigenpairs also cache one
    row factor, the shards' eigendecompositions ``M_i = V_i diag(lam_i)
    V_i.T``: m * d * h + m * h floats, less than half of the Gram stack.
    The local eigenpairs are slices of it there, and one batched ``eigh``
    of the Gram stack otherwise (see :meth:`local_eigenpairs`).
    """

    shards: tuple[np.ndarray, ...]
    _eigenpairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _references: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.shards:
            raise DimensionMismatch("a dataset needs at least one shard")
        if self.shards[0].ndim != 2:
            raise DimensionMismatch(f"shard 0 has shape {self.shards[0].shape}, expected a matrix")
        d = self.shards[0].shape[1]
        if d < 1:
            raise DimensionMismatch("a dataset needs at least one column")
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

    @cached_property
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
        """Second-moment matrix of the full dataset, ``A.T @ A / n = sum_i p_i M_i``.

        Built once per dataset and shared by every caller. Every command reads
        it first, so data whose squares overflow raises :class:`NonFinite` here,
        and all-zero data :class:`DegenerateData`.
        """
        return self._global_gram

    @cached_property
    def _global_gram(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported as NonFinite below
            m_global = np.tensordot(self.weights, self.shard_grams, axes=1)
        if not np.isfinite(m_global).all():
            raise NonFinite("the global second-moment matrix has NaN or infinite entries")
        if not m_global.any():
            raise DegenerateData("global second-moment matrix is zero")
        return _frozen(m_global)

    @cached_property
    def shard_grams(self) -> np.ndarray:
        """(m, d, d) stack of the shard second-moment matrices ``M_i``."""
        grams = np.empty((self.m, self.d, self.d))
        for i, shard in enumerate(self.shards):
            grams[i] = gram(shard)
        return _frozen(grams)

    def local_products(self, zs: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        """(..., K, d, r) stack of the local products ``M_i @ z`` of the shards
        in ``ids`` (K distinct ids in ascending order; every shard when None)
        with their workers' bases ``zs``, a (..., K, d, r) stack, or one
        (..., 1, d, r) basis that every member holds.

        This is the one place that decides how the protocol applies a shard's
        second-moment matrix to its worker's basis, and it applies only the
        shards named: a member's product has the bits of its slice of every
        shard's. A shard Gram costs d * d * r flops per product, the shard's
        rows about 2 * h * d * r, with h the height of the tallest shard. So
        when ``2 * h < d`` the product is ``V_i @ (lam_i * (V_i.T @ z_i))``
        with the cached row factor ``M_i = V_i diag(lam_i) V_i.T`` (see
        :meth:`local_steps`), and otherwise ``shard_grams[ids] @ zs``. Both
        equal ``M_i @ z_i`` up to rounding.
        """
        ids = slice(None) if ids is None or len(ids) == self.m else ids  # all m: a view, no copy
        if not self._row_path:
            return self.shard_grams[ids] @ zs
        v, lam = (a[ids] for a in self._row_factor)
        return v @ (lam[:, :, None] * (np.swapaxes(v, 1, 2) @ zs))

    def local_steps(self, zs: np.ndarray, steps: int) -> np.ndarray:
        """``zs``, a (..., m, d, r) stack of worker bases, after ``steps`` local
        power steps ``z_i <- orth(M_i @ z_i)``.

        With ``2 * h < d`` and every shard at least r rows tall, they run in
        the eigenbases of the row factor ``M_i = V_i diag(lam_i) V_i.T``: a QR
        with a nonnegative R diagonal is unique, so ``orth(V_i W) = V_i
        orth(W)`` and ``orth(W R) = orth(W)`` for upper triangular R, and q
        steps are one ``orth(g_i**q * (V_i.T @ z_i))``, ``g_i = lam_i /
        lam_i1``, in chunks of the largest q with ``min_i g_ir**q >=
        _CHUNK_FLOOR`` (the whole stretch when every ``g_ir`` is 1, one step
        when one is 0). A shard shorter than r gives a rank-deficient product,
        which ``orth`` would complete outside ``range(V_i)``; then, and on the
        Gram path, each step is ``orth(local_products(zs))``.
        """
        if steps and self._row_path and self.min_shard_size >= zs.shape[-1]:
            v, lam = self._row_factor
            ratio = np.maximum(lam / np.where(lam[:, :1] > 0.0, lam[:, :1], 1.0), 0.0)[:, :, None]
            worst = ratio[:, zs.shape[-1] - 1].min()  # the chunk is the largest q with worst**q >= _CHUNK_FLOOR, or 1
            chunk = steps if worst == 1.0 else int(np.log(_CHUNK_FLOOR) / np.log(max(worst, _CHUNK_FLOOR)))
            coords = np.swapaxes(v, 1, 2) @ zs
            for q in np.diff([*range(0, steps, chunk), steps]):  # the chunks' lengths
                coords = orth(ratio**q * coords, require_full_rank=False)
            return v @ coords
        for _ in range(steps):
            zs = orth(self.local_products(zs), require_full_rank=False)
        return zs

    @property
    def _row_path(self) -> bool:
        # Whether every M_i is applied through its shard's rows (the tallest shard is shorter than d/2).
        return 2 * max(self.sizes) < self.d

    @cached_property
    def _row_factor(self) -> tuple[np.ndarray, np.ndarray]:
        # (V, lam): one batched QR of the transposed shards, zero-padded to the tallest shard's height h,
        # gives A_i.T = P_i T_i; one batched eigh of K_i = T_i T_i.T / n_i = W_i diag(lam_i) W_i.T gives
        # V = P W (m, d, h) and lam (m, h), descending. A zero column of A_i.T changes no K_i.
        padded = np.zeros((self.m, self.d, max(self.sizes)))
        for i, shard in enumerate(self.shards):
            padded[i, :, : shard.shape[0]] = shard.T
        p, t = np.linalg.qr(padded)
        lam, w = np.linalg.eigh((t @ np.swapaxes(t, 1, 2)) / np.array(self.sizes, dtype=np.float64)[:, None, None])
        return _frozen(p @ w[:, :, ::-1]), _frozen(np.ascontiguousarray(lam[:, ::-1]))

    @cached_property
    def shard_eta(self) -> tuple[float, ...]:
        """``||M_i - M||_2 / ||M||_2`` for every shard i, in shard order.

        Every matrix here is symmetric, so its spectral norm is its largest
        absolute eigenvalue: ``eigvalsh`` of ``M_i - M``, one shard at a time,
        in place of an SVD. M is PSD, so ``||M||_2`` is its top eigenvalue.
        """
        m_global = self.global_gram()
        denom = _symmetric_norm(m_global)
        return tuple(_symmetric_norm(g - m_global) / denom for g in self.shard_grams)

    @cached_property
    def eta(self) -> float:
        """Smallest eta with ``||M_i - M||_2 <= eta ||M||_2`` over all shards:
        the largest :attr:`shard_eta`, to the bit, with ``eigvalsh`` run only
        on the shards that can hold it.

        The shards are visited in descending :func:`_schatten8_bound` of
        ``M_i - M``, each taking the exact norm of :attr:`shard_eta`, until a
        bound times ``1 + _BOUND_MARGIN`` falls below the largest norm so far.
        That maximum is divided once by ``||M||_2``: division by a positive
        constant is monotone, so this gives the bits of the largest quotient.
        When every shard lies within the bound's slack of the maximum, none is
        skipped, and eta costs about 1.35 times the exact norms alone.
        """
        m_global = self.global_gram()
        bounds = [_schatten8_bound(g, m_global) for g in self.shard_grams]
        best = 0.0
        for i in sorted(range(self.m), key=bounds.__getitem__, reverse=True):
            if bounds[i] * (1.0 + _BOUND_MARGIN) < best:
                break
            best = max(best, _symmetric_norm(self.shard_grams[i] - m_global))
        return best / _symmetric_norm(m_global)

    def reference_basis(self, k: int) -> np.ndarray:
        """Top-k eigenbasis of :meth:`global_gram`, cached per k."""
        if k not in self._references:
            self._references[k] = _frozen(top_eigenpairs(self.global_gram(), k).u)
        return self._references[k]

    def local_eigenpairs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k eigenvectors (m, d, k) and eigenvalues (m, k) of every shard
        Gram ``M_i = A_i.T @ A_i / n_i``, eigenvalues descending, cached per k.

        On the row path (``2 * h < d``) with ``k <= h`` they are the first k
        of the cached row factor ``M_i = V_i diag(lam_i) V_i.T``; otherwise
        one batched ``eigh`` of the Gram stack gives them. A shard with fewer
        than k rows still gives k orthonormal vectors, and its extra
        eigenvalues are 0 up to rounding.
        """
        if k not in self._eigenpairs:
            if self._row_path and k <= max(self.sizes):
                vecs, vals = self._row_factor
            else:  # eigh's eigenvalues ascend
                vals, vecs = (a[..., ::-1] for a in np.linalg.eigh(self.shard_grams))
            # Copies of the top k, so the cache keeps no (m, d, d) eigenvector stack alive.
            self._eigenpairs[k] = tuple(_frozen(np.ascontiguousarray(a[..., :k])) for a in (vecs, vals))
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
        if self.n * self.d > DENSE_ENTRY_LIMIT:  # checked before synth allocates anything
            raise DimensionMismatch(f"dense matrix of {self.n} x {self.d} exceeds the {DENSE_ENTRY_LIMIT:.0e}-entry limit")
        if not 1 <= len(sv) <= min(self.n, self.d):
            raise DimensionMismatch(
                f"need between 1 and min(n, d)={min(self.n, self.d)} singular values, got {len(sv)}"
            )
        if any(s <= 0.0 for s in sv):
            raise ValueError("singular values must be positive")
        if any(sv[i] < sv[i + 1] for i in range(len(sv) - 1)):
            raise ValueError("singular values must be non-increasing")


# From n >= _CHOLESKY_MIN_ASPECT * rank rows, one CholeskyQR pass builds synth's
# left factor as accurately as Householder QR; nearer square it loses digits.
_CHOLESKY_MIN_ASPECT = 4


def synth(spec: SyntheticSpec) -> np.ndarray:
    """Matrix ``u @ diag(sv) @ v.T`` with random orthonormal u, v.

    u is the orthonormal factor of a seeded n x rank Gaussian g, v that of a
    seeded d x rank Gaussian drawn after it; v comes from QR. When
    ``n >= 4 * rank``, u is never formed: with ``L = cholesky(g.T @ g)`` the
    matrix is ``g @ solve(L.T, diag(sv) @ v.T)``, since ``g L^-T`` is g's QR
    factor (CholeskyQR; QR with a positive R diagonal is unique). Nearer
    square, or if the Cholesky fails, u comes from QR. Either way the matrix
    is the QR one up to rounding, the same spec always produces the same
    matrix, and its singular values match the spec to roughly machine
    precision.
    """
    rng = np.random.default_rng(spec.seed)
    sv = np.asarray(spec.singular_values)
    g = rng.standard_normal((spec.n, sv.size))
    v = orth(rng.standard_normal((spec.d, sv.size)), require_full_rank=False)  # Householder Q is orthonormal at any rank
    if spec.n >= _CHOLESKY_MIN_ASPECT * sv.size:
        try:
            chol = np.linalg.cholesky(g.T @ g)
        except np.linalg.LinAlgError:
            pass
        else:
            return g @ np.linalg.solve(chol.T, sv[:, None] * v.T)
    return (orth(g) * sv) @ v.T


def scale_features(a) -> np.ndarray:
    """Divide each column by its maximum absolute value (zero columns are
    left alone), mapping every entry into [-1, 1]. Idempotent."""
    a = as_matrix(a)
    max_abs = np.maximum(a.max(axis=0, initial=0.0), -a.min(axis=0, initial=0.0))
    return a / np.where(max_abs > 0.0, max_abs, 1.0)  # x / 1.0 is x, bit for bit


def partition(a, m: int, mode: str = "contiguous", seed: int | None = None) -> ShardedDataset:
    """Split the rows of ``a`` into m shards.

    The first ``n mod m`` shards get ``ceil(n / m)`` rows, the rest get
    ``floor(n / m)``. Mode "contiguous" keeps row order; "shuffled" first
    permutes rows with a seeded Fisher-Yates shuffle and is reproducible for
    a fixed seed. The shards are read-only row-block views of one private
    copy of ``a``, so a later write to ``a`` changes no shard.
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
        rows = a[np.random.default_rng(seed).permutation(n)]
    elif mode == "contiguous":
        rows = a.copy()
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    return ShardedDataset(tuple(np.array_split(_frozen(rows), m)))


def parse_libsvm(path, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parse a LIBSVM text file into a dense matrix plus label vector.

    Lines look like ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices; absent indices are zero. When ``d`` is omitted it is
    inferred as the largest index seen. Files ending in ``.gz`` are
    decompressed transparently. Labels are returned but nothing downstream
    uses them.

    The file is read once, in chunks of whole lines, each parsed with a few
    array operations into its sparse entries; the dense matrix is allocated
    after the last chunk and filled one chunk's entries at a time. A chunk
    that is not in the strict form ``write_libsvm`` writes (single spaces,
    ``\\n`` line ends, which one space or one ``\\r`` may precede, all-digit
    indices of at most 9 digits) is parsed line by line instead; that parser
    accepts the same syntax and raises the error, with its line number and
    byte offset.
    """
    labels, parts = [np.empty(0)], []  # a file may hold no line
    line, offset = 1, 0
    with gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK_BYTES):
            chunk += fh.readline()
            part = _parse_chunk(chunk, d)
            if part is None:
                part = _parse_lines(chunk, d, line, offset)
            labels.append(part[0])
            parts.append(part[1:])
            line += chunk.count(b"\n")
            offset += len(chunk)
    labels = np.concatenate(labels)
    n = labels.size
    width = d if d is not None else max((int(indices.max(initial=0)) for _, indices, _ in parts), default=0)
    if n * width > DENSE_ENTRY_LIMIT:
        raise ParseError(f"dense matrix of {n} x {width} exceeds the {DENSE_ENTRY_LIMIT:.0e}-entry limit")
    flat = np.zeros(n * width)
    row = 0
    while parts:  # each part is released once it is in the matrix
        counts, indices, values = parts.pop(0)
        flat[np.repeat(np.arange(row, row + counts.size) * width - 1, counts) + indices] = values
        row += counts.size
    return flat.reshape(n, width), labels


_CHUNK_BYTES = 1 << 20  # bytes per bulk-parsed chunk, before it is extended to the next newline
_STRICT_BYTES = b"0123456789.+-eE :\r\n"
# A longer index is above DENSE_ENTRY_LIMIT (or zero-padded), so the line parser takes it.
_INDEX_DIGITS = len(str(DENSE_ENTRY_LIMIT))


def _parse_chunk(chunk: bytes, d: int | None):
    """(labels, entries per line, indices, values) of ``chunk``, whole lines of
    LIBSVM text, or None unless every line is ``label( idx:val)*[ \\r]?\\n`` with
    indices of 1 to 9 digits in [1, d] that increase and finite values.

    Indices are decoded from their digit bytes here and blanked out of the
    text with their colons, so numpy's float parser reads only labels and
    values.
    """
    if not chunk.endswith(b"\n") or chunk[0] in b" \r\n" or chunk.translate(None, _STRICT_BYTES):
        return None  # a leading blank is not strict, and np.fromstring reads a text of blanks only as [-1.0]
    raw = np.frombuffer(chunk, np.uint8)
    seps = np.flatnonzero((raw == ord(":")) | (raw <= ord(" ")))  # token j ends at separator j
    sep_bytes = raw[seps]
    line_ends = np.flatnonzero(sep_bytes == ord("\n"))
    before = raw[seps[line_ends] - 1]  # a space or "\r" right before "\n" ends no token
    loose = line_ends[(before == ord(" ")) | (before == ord("\r"))] - 1
    if loose.size:
        seps, sep_bytes = np.delete(seps, loose), np.delete(sep_bytes, loose)
    colon = sep_bytes == ord(":")
    if colon[0] or not np.array_equal(colon[1:], sep_bytes[:-1] == ord(" ")) or (sep_bytes == ord("\r")).any():
        return None  # a line that is not a label then " idx:val" pairs, or a "\r" that ends no line
    at_colon = np.flatnonzero(colon)
    colons = seps[at_colon]
    lengths = colons - seps[at_colon - 1] - 1  # an index runs from the space before it to its colon
    shortest, longest = int(lengths.min(initial=1)), int(lengths.max(initial=0))
    if shortest < 1 or longest > _INDEX_DIGITS:
        return None
    indices = np.zeros(colons.size, np.int32)
    text = np.frombuffer(bytearray(chunk), np.uint8)  # the chunk with every "idx:" blanked out
    text[colons] = ord(" ")
    for k in range(1, longest + 1):  # the k-th digit from the right of every index that has one
        has = slice(None) if k <= shortest else lengths >= k
        at = colons[has] - k
        digits = raw[at] - np.uint8(ord("0"))  # any other byte wraps above 9
        if digits.max(initial=0) > 9:
            return None  # a sign, point or exponent in an index (int() takes "+1" but not "1.0")
        indices[has] += digits.astype(np.int32) * 10 ** (k - 1)  # widened first: uint8 * 100 stays uint8 and wraps
        text[at] = ord(" ")
    try:
        numbers = np.fromstring(text.tobytes(), sep=" ")
    except ValueError:  # a token that is no number
        return None
    if numbers.size != seps.size - colons.size:
        return None  # an empty label or value: a blank line, or a leading, trailing or doubled space
    ends = np.cumsum(colon)[sep_bytes == ord("\n")]  # entries up to each line end
    counts = np.diff(ends, prepend=0)
    is_label = np.zeros(numbers.size, bool)
    is_label[np.arange(counts.size) + ends - counts] = True
    labels, values = numbers[is_label], numbers[~is_label]
    row_start = np.zeros(indices.size, bool)
    row_start[(ends - counts)[counts > 0]] = True
    if (indices.min(initial=1) < 1 or (d is not None and indices.max(initial=0) > d)
            or not (row_start[1:] | (np.diff(indices) > 0)).all() or not np.isfinite(values).all()):
        return None
    return labels, counts, indices, values


def _parse_lines(chunk: bytes, d: int | None, line: int, offset: int):
    """:func:`_parse_chunk`'s arrays for ``chunk`` in any spelling LIBSVM
    text allows, one line at a time: the reference parser, and the one that
    reports a bad line. ``chunk`` starts at ``line`` and byte ``offset`` of
    the file."""
    labels, counts, indices, values = [], [], [], []
    for line_no, raw in enumerate(io.BytesIO(chunk), line):  # split on "\n" only, as the file is
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
                raise IndexOutOfRange(f"feature index {idx} exceeds declared d={d}", line_no, line_offset)
            indices.append(idx)
            values.append(val)
            prev = idx
        labels.append(label)
        counts.append(len(parts) - 1)
    try:
        index_array = np.array(indices, np.int64)
    except OverflowError:  # an index above 2**63 - 1, which makes parse_libsvm's matrix too large
        index_array = np.array(indices, object)
    return np.array(labels), np.array(counts, np.int64), index_array, np.array(values)


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
