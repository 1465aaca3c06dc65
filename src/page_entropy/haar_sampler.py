"""Monte Carlo oracle: entanglement of Haar-random sector states.

A Haar-random state of a fixed-N sector is a complex Gaussian vector,
normalized.  The cut splits the sector into blocks labeled by the
subsystem particle number N_A; the reduced spectrum is the union of the
squared singular values of the per-block (d_A x d_B) amplitude matrices.

Sampling is reproducible by construction: sample i of a run draws from its
own substream seeded by (seed, i), so the summary depends only on the seed
and the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimensions import dim_table
from .errors import DomainError, InfeasibleSizeError
from .local_model import LocalModel

# Largest sector a dense Gaussian vector is allowed to span.
MAX_SECTOR_DIM = 2 * 10 ** 6

# Blocks at most this slim on one side go through full SVD; squarer ones
# through the (smaller) Gram matrix eigenproblem.
_SVD_SIDE_LIMIT = 64

_EIGENVALUE_FLOOR = 1e-18


@dataclass(frozen=True)
class SectorBlock:
    """One N_A block of the cut sector inside the flat amplitude vector."""
    n_a: int
    d_a: int
    d_b: int
    offset: int


@dataclass(frozen=True)
class SectorBasis:
    """Block decomposition of a bipartite fixed-N sector."""
    label: str
    V: int
    N: int
    V_A: int
    blocks: tuple[SectorBlock, ...]
    dim: int


@dataclass(frozen=True)
class McSummary:
    """Streamed Monte Carlo summary; sem = sqrt(variance / samples)."""
    samples: int
    seed: int
    mean: float
    variance: float
    sem: float


def build_sector_basis(model: LocalModel, V: int, N: int,
                       V_A: int) -> SectorBasis:
    """Block decomposition for sampling; sector dimension capped at 2e6."""
    if V < 1 or not 0 <= V_A <= V or N < 0:
        raise DomainError("need V >= 1, 0 <= V_A <= V, N >= 0")
    table_a = dim_table(model, V_A, N)
    table_b = dim_table(model, V - V_A, N)
    blocks = []
    offset = 0
    for n_a in range(N + 1):
        d_a = table_a[n_a]
        d_b = table_b[N - n_a]
        if d_a and d_b:
            if offset + d_a * d_b > MAX_SECTOR_DIM:
                raise InfeasibleSizeError(
                    f"sector too large for sampling (> {MAX_SECTOR_DIM})")
            blocks.append(SectorBlock(n_a=n_a, d_a=int(d_a), d_b=int(d_b),
                                      offset=offset))
            offset += int(d_a) * int(d_b)
    if offset == 0:
        raise DomainError(f"empty sector: V={V}, N={N} for {model.label}")
    return SectorBasis(label=model.label, V=V, N=N, V_A=V_A,
                       blocks=tuple(blocks), dim=offset)


def sample_entropy(basis: SectorBasis, rng) -> float:
    """Entanglement entropy of one Haar-random sector state.

    `rng` is a numpy Generator or an integer seed.  Schmidt coefficients
    below 1e-18 are dropped from the -sum(lam ln lam).
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    amps = rng.standard_normal(2 * basis.dim)
    psi = amps[:basis.dim] + 1j * amps[basis.dim:]
    psi /= np.linalg.norm(psi)
    return entropy_of_block_vector(basis.blocks, psi)


def entropy_of_block_vector(blocks, psi) -> float:
    """-sum(lam ln lam) over the Schmidt spectrum of a block-layout vector."""
    total = 0.0
    for blk in blocks:
        mat = psi[blk.offset:blk.offset + blk.d_a * blk.d_b]
        mat = np.asarray(mat).reshape(blk.d_a, blk.d_b)
        lam = _schmidt_weights(mat)
        lam = lam[lam > _EIGENVALUE_FLOOR]
        if lam.size:
            total -= float(np.sum(lam * np.log(lam)))
    return total


def _schmidt_weights(mat: np.ndarray) -> np.ndarray:
    """Squared singular values; Gram route once both sides exceed 64."""
    if min(mat.shape) <= _SVD_SIDE_LIMIT:
        sv = np.linalg.svd(mat, compute_uv=False)
        return sv * sv
    if mat.shape[0] <= mat.shape[1]:
        gram = mat @ mat.conj().T
    else:
        gram = mat.conj().T @ mat
    lam = np.linalg.eigvalsh(gram)
    return np.clip(lam, 0.0, None)


def mc_average(basis: SectorBasis, n_samples: int, seed: int) -> McSummary:
    """Mean/variance of the sampled entropy over n_samples Haar states.

    Sample i always draws from the substream seeded (seed, i).
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    values = np.empty(n_samples)
    for i in range(n_samples):
        values[i] = sample_entropy(basis, np.random.default_rng([seed, i]))
    mean = float(np.mean(values))
    variance = float(np.var(values, ddof=1)) if n_samples > 1 else 0.0
    sem = math.sqrt(variance / n_samples)
    return McSummary(samples=n_samples, seed=seed, mean=mean,
                     variance=variance, sem=sem)
