"""Memoized SVD / low-rank decompositions shared across sweeps.

Execution plans re-decompose the same per-layer weight matrices for many
(array size, noise level, rank, group) combinations, and the truncated
SVD underlying :func:`repro.lowrank.decompose.decompose` is by far the most
expensive step.  Two observations make memoization safe and very effective:

* the full thin SVD of a (sub-)matrix does not depend on the requested rank —
  every rank shares one factorization, truncated after the fact, and the
  truncation of a cached SVD is bit-identical to a direct
  :func:`~repro.lowrank.decompose.decompose` call;
* column-block SVDs only depend on (matrix content, group count), so group
  sweeps share the block factorizations too.

The cache is keyed by a content hash of the matrix bytes, so logically
identical matrices hit regardless of object identity.  A module-level default
cache is shared by the execution contexts that program low-rank factors.

The cache is a **process-local LRU** (``maxsize`` entries; the thin SVD of
a large layer is three dense matrices, so unbounded growth across a long
scenario sweep would eventually dominate resident memory).  An evicted SVD is
simply recomputed, bit-identically.  Nothing is persisted: a default report
computes at most 10 SVDs, and each ``--workers`` or ``--shard`` process
computes the ones its own cells need.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple, Union

import numpy as np

from ..backend import Backend, resolve_backend
from ..lowrank.decompose import LowRankFactors
from ..lowrank.group import GroupLowRankFactors, split_columns

__all__ = [
    "DEFAULT_SVD_CACHE_ENTRIES",
    "matrix_fingerprint",
    "DecompositionCache",
    "default_decomposition_cache",
]

#: LRU bound of the process-wide default cache.  The default sweeps decompose
#: 10 distinct matrices; the bound only bites on much larger scenario grids,
#: where an evicted SVD is recomputed on its next use.
DEFAULT_SVD_CACHE_ENTRIES = 512


def matrix_fingerprint(matrix: np.ndarray) -> Tuple[Tuple[int, ...], str, str]:
    """Content-addressed key of a matrix: (shape, dtype, blake2b of the bytes)."""
    data = np.ascontiguousarray(matrix)
    digest = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
    return (tuple(data.shape), str(data.dtype), digest)


class DecompositionCache:
    """Memoizes thin SVDs and the (group) low-rank factorizations built on them.

    ``maxsize`` bounds the entry count with LRU eviction (``None`` =
    unbounded).
    """

    def __init__(self, maxsize: Optional[int] = DEFAULT_SVD_CACHE_ENTRIES) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self._svds: "OrderedDict[object, Tuple[np.ndarray, np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        # The module-level default cache is shared by concurrent server jobs
        # (one thread each); the LRU bookkeeping (move_to_end / popitem) must
        # not race.  SVD computation happens outside the lock.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def counters(self) -> "dict[str, int]":
        """Hit/miss/eviction counters."""
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    def svd(
        self, matrix: np.ndarray, backend: Union[str, Backend, None] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full thin SVD ``(U, S, Vt)`` of a matrix, cached by content.

        The factorization runs through the execution backend
        (:mod:`repro.backend`; ``None`` resolves to the active default): the
        matrix is first cast to the backend's compute dtype, so the content
        key carries the precision, and float32 factors can never be served
        where float64 ones are expected.  Bit-identical backends
        (``numpy64``, ``threaded``) share one entry.
        """
        backend = resolve_backend(backend)
        matrix = backend.asarray(matrix)
        key = matrix_fingerprint(matrix)
        with self._lock:
            cached = self._svds.get(key)
            if cached is not None:
                self.hits += 1
                self._svds.move_to_end(key)
                return cached
        u, s, vt = backend.svd(matrix)
        with self._lock:
            self.misses += 1
            self._svds[key] = (u, s, vt)
            self._svds.move_to_end(key)
            if self.maxsize is not None:
                while len(self._svds) > self.maxsize:
                    self._svds.popitem(last=False)
                    self.evictions += 1
        return u, s, vt

    def decompose(
        self, matrix: np.ndarray, rank: int, backend: Union[str, Backend, None] = None
    ) -> LowRankFactors:
        """Memoized equivalent of :func:`repro.lowrank.decompose.decompose`.

        Truncating the cached thin SVD reproduces the direct computation
        exactly (``numpy.linalg.svd`` is deterministic for a given matrix), so
        sweeping ranks over the same matrix costs one SVD total.
        """
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
        rank = min(rank, min(matrix.shape))
        u, s, vt = self.svd(matrix, backend=backend)
        left = u[:, :rank] * s[:rank]
        right = vt[:rank, :]
        return LowRankFactors(left=left, right=right)

    def group_decompose(
        self,
        matrix: np.ndarray,
        rank: int,
        groups: int,
        backend: Union[str, Backend, None] = None,
    ) -> GroupLowRankFactors:
        """Memoized equivalent of :func:`repro.lowrank.group.group_decompose`."""
        blocks = split_columns(matrix, groups)
        return GroupLowRankFactors(
            tuple(self.decompose(block, rank, backend=backend) for block in blocks)
        )

    def clear(self) -> None:
        with self._lock:
            self._svds.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._svds)


#: Process-wide cache shared by every execution context without a private one.
default_decomposition_cache = DecompositionCache()
