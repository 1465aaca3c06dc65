"""Monte Carlo oracle: entanglement of Haar-random sector states.

A Haar-random state of a fixed-N sector is a normalized complex Gaussian
vector.  The cut splits the sector into blocks labeled by the subsystem
particle number N_A, and the reduced spectrum is the union of the squared
singular values of the per-block (d_A x d_B) amplitude matrices G, divided
by the common norm sum |G|^2.

Each block's G G^dagger is complex Wishart (Laguerre, beta = 2), so its
spectrum has the law of B B^T for the real bidiagonal B of Dumitriu and
Edelman (J. Math. Phys. 43, 5830 (2002)): with m = min(d_A, d_B) and
n = max(d_A, d_B), the squared diagonal is Gamma(n), Gamma(n-1), ...,
Gamma(n-m+1) and the squared sub-diagonal Gamma(m-1), ..., Gamma(1), all
independent (Gamma(s) is chi^2_2s / 2, the scale of a unit complex
Gaussian).  The trace of B B^T is the sum of the draws, i.e. the block's
share of the norm.  So one sample draws sum(m) pairs of Gamma variates and
takes the eigenvalues of one block-diagonal tridiagonal matrix: O(sum m^2)
work, with no sector-sized vector and no dense SVD.

A run draws from one stream, `np.random.default_rng(seed)`: sample i is
row i of the (samples x draws) Gamma array that stream yields, taken in
chunks of about 2^14 draws.  A chunk's rows do not depend on where the
chunk boundaries fall, so the summary depends only on the seed and the
sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import budget
from .dimensions import dim_table
from .entropy import BipartitionSpec
from .errors import DomainError, InfeasibleSizeError, NumericalError, checked
from .local_model import LocalModel

# Gamma draws per chunk of samples; a chunk holds at least one sample.
_CHUNK_DRAWS = 2 ** 14

# Gamma shapes are block sides; above 2^53 they are no longer exact floats.
_MAX_BLOCK_SIDE = 2 ** 53

_EIGENVALUE_FLOOR = 1e-18


class SectorBlock(NamedTuple):
    """One N_A block of the cut sector: d_A x d_B amplitudes."""
    n_a: int
    d_a: int
    d_b: int


@dataclass(frozen=True)
class SectorBasis:
    """Block decomposition of a bipartite fixed-N sector, in N_A order."""
    blocks: tuple[SectorBlock, ...]

    @cached_property
    def gamma_shapes(self) -> np.ndarray:
        """Shapes of one sample's Gamma draws, read-only.

        The squared bidiagonal entries of all blocks, diagonals first, then
        sub-diagonals; each block's sub-diagonal ends in a Gamma(0) = 0
        that decouples it from the next block.
        """
        diag, sub = [], []
        for blk in self.blocks:
            m, n = sorted((blk.d_a, blk.d_b))
            diag.append(np.arange(n, n - m, -1, dtype=float))
            sub.append(np.arange(m - 1, -1, -1, dtype=float))
        shapes = np.concatenate(diag + sub)
        shapes.flags.writeable = False
        return shapes


@dataclass(frozen=True)
class McSummary:
    """Monte Carlo summary of one run, streamed chunk by chunk.

    Sample i of the run is row i of the stream `default_rng(seed)`;
    sem = sqrt(variance / samples).
    """
    samples: int
    seed: int
    mean: float
    variance: float
    sem: float


def build_sector_basis(model: LocalModel, V: int, N: int,
                       V_A: int) -> SectorBasis:
    """Block decomposition for sampling: the cut's `BipartitionSpec.blocks`
    in N_A order.

    Refuses (InfeasibleSizeError) the cut's two tables estimated above the
    budget before building them (`budget.check_table_work`), then one
    sample so estimated (`budget.check_run_work`), then a block side above
    2^53; an empty sector (DomainError) builds no table.
    """
    spec = BipartitionSpec(V=V, N=N, V_A=V_A)
    budget.check_table_work(model, spec.tables(model.n_max))
    cut = spec.blocks(model, dim_table)
    budget.check_run_work(cut, 1)
    for n_a, d_a, d_b in cut:
        if max(d_a, d_b) > _MAX_BLOCK_SIDE:
            raise InfeasibleSizeError(
                f"block side above 2^53 at N_A={n_a}; cannot sample")
    return SectorBasis(tuple(map(SectorBlock._make, cut)))


@checked
def sample_entropies(basis: SectorBasis, rng, count: int) -> np.ndarray:
    """Entanglement entropies of `count` Haar-random sector states.

    Sample k is row k of `rng.standard_gamma(shapes, size=(count, n))`, so
    calls of sizes a and b on one generator give the same values as one
    call of size a + b.  `rng` is a numpy Generator or an int seed >= 0.
    Schmidt coefficients below 1e-18 are dropped from the -sum(lam ln lam).
    """
    if count < 0:
        raise DomainError(f"count must be nonnegative, got {count}")
    if type(rng) is int and rng >= 0:
        rng = np.random.default_rng(rng)
    elif not hasattr(rng, "standard_gamma"):
        raise DomainError(f"rng must be a Generator or int >= 0, got {rng!r}")
    # scipy costs ~0.3 s to import and only sampling needs it, so no other
    # subcommand loads it
    from scipy.linalg.lapack import dsterf

    shapes = basis.gamma_shapes
    rank = shapes.size // 2
    if rank == 1:
        return np.zeros(count)  # a single 1 x n block is a product state
    draws = rng.standard_gamma(shapes, size=(count, shapes.size))
    a2, b2 = draws[:, :rank], draws[:, rank:]
    # T = B B^T: diagonal a_k^2 + b_{k-1}^2, off-diagonal a_k b_k; dsterf
    # overwrites each row of `lam` with its eigenvalues
    lam = a2.copy()
    lam[:, 1:] += b2[:, :-1]
    off = np.sqrt(a2[:, :-1] * b2[:, :-1])
    for d, e in zip(lam, off):
        info = dsterf(d, e, overwrite_d=1, overwrite_e=1)[1]
        if info:
            raise NumericalError(
                f"tridiagonal eigenvalues failed (info={info})")
    lam /= draws.sum(axis=1, keepdims=True)
    kept = lam > _EIGENVALUE_FLOOR
    x = np.where(kept, lam, 1.0)  # a dropped coefficient adds 1 ln 1 = 0
    return -np.sum(x * np.log(x), axis=1)


def sample_entropy(basis: SectorBasis, rng) -> float:
    """Entanglement entropy of one Haar-random sector state: the next row
    of `rng`'s stream, `sample_entropies(basis, rng, 1)[0]`."""
    return float(sample_entropies(basis, rng, 1)[0])


def entropy_of_block_vector(blocks, psi):
    """-sum(lam ln lam) over the Schmidt spectrum of block-layout vectors.

    `psi` is one vector of shape (dim,), which gives a float, or K vectors
    as the columns of a (dim, K) array, which give K entropies: the blocks
    end to end, each d_A x d_B row-major, dim = sum(d_A d_B) (any other dim
    is refused, DomainError).  Each block takes one batched SVD of its
    (K, d_A, d_B) stack; Schmidt coefficients below 1e-18 are dropped.  A
    column's entropy is bit for bit that of the column passed alone:
    LAPACK sees the same matrix either way, and the kept coefficients (a
    prefix of the descending spectrum) are summed with `np.sum` over rows
    of exactly the kept length, the length that numpy's pairwise summation
    depends on.
    """
    psi = np.asarray(psi)
    dim = sum(blk.d_a * blk.d_b for blk in blocks)
    if psi.shape[:1] != (dim,):
        raise DomainError(f"psi of shape {psi.shape} does not hold the "
                          f"{dim} amplitudes of the blocks")
    columns = psi.reshape(dim, -1)
    K = columns.shape[1]
    total = np.zeros(K)
    stop = 0
    for blk in blocks:
        start, stop = stop, stop + blk.d_a * blk.d_b
        stack = columns[start:stop].T.reshape(K, blk.d_a, blk.d_b)
        sv = np.linalg.svd(stack, compute_uv=False)
        lam = sv * sv
        kept = np.count_nonzero(lam > _EIGENVALUE_FLOOR, axis=1)
        for count in np.unique(kept[kept > 0]):
            rows = np.flatnonzero(kept == count)
            x = lam[rows, :count]
            total[rows] -= np.sum(x * np.log(x), axis=1)
    return float(total[0]) if psi.ndim == 1 else total


@checked
def mc_average(basis: SectorBasis, n_samples: int, seed: int) -> McSummary:
    """Mean/variance of the sampled entropy over n_samples Haar states.

    Sample i is row i of the stream `default_rng(seed)`.  Chunks of about
    2^14 draws are reduced to (count, mean, M2) and merged with the
    pairwise update of Chan, Golub and LeVeque (1979), so memory stays
    O(chunk).  Before drawing, refuses (InfeasibleSizeError) a run of
    n_samples x `budget.sample_seconds` above the one-minute budget
    (`budget.check_run_work`).
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    budget.check_run_work(basis.blocks, n_samples)
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_DRAWS // basis.gamma_shapes.size)
    mean, m2 = 0.0, 0.0
    for done in range(0, n_samples, chunk):
        values = sample_entropies(basis, rng, min(chunk, n_samples - done))
        k = values.size
        k_mean = float(np.mean(values))
        delta = k_mean - mean
        mean += delta * k / (done + k)
        m2 += (float(np.sum((values - k_mean) ** 2))
               + delta * delta * done * k / (done + k))
    variance = m2 / (n_samples - 1) if n_samples > 1 else 0.0
    sem = math.sqrt(variance / n_samples)
    return McSummary(samples=n_samples, seed=seed, mean=mean,
                     variance=variance, sem=sem)
