"""Small exact diagonalization in fixed-charge sectors.

Two periodic chains are built densely inside one symmetry sector, both in
an occupation basis (site occupations n_i >= 0, sum fixed):

* a spin-1 XXZ chain with a tunable integrability-breaking extension,
  specified in magnetization M and stored at N = M + V (occupations
  n_i = s_i + 1), and
* a Bose-Hubbard chain with optional per-site occupation cap.

`mid_spectrum_entropies` takes the bundle of eigenstates around the middle
of the spectrum (window centered on the median index, never splitting a
degenerate multiplet) and returns mean/std of their entanglement entropies
per cut position.

Everything around the dense `np.linalg.eigh` works on arrays.  The basis
is a (dim, V) int array in lexicographic order, so base-(cap+1) state keys
ascend and `np.searchsorted` finds the row a move leads to.  The
Hamiltonian is assembled by one Python loop over bonds, with one
vectorized `matrix[rows, cols] += amp` per bond and move (spin-1: each
nonzero entry of the 9x9 bond operator; Bose-Hubbard: each hop
direction).  Every entry receives its terms one bond at a time in site
order, so the matrix is fixed bit for bit by the couplings, and so are the
eigenvectors LAPACK returns for a given thread count.  Each cut takes the
whole window at once (`_cut_blocks`, `entropy_of_block_vector`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, InfeasibleSizeError, checked
from .haar_sampler import SectorBlock, entropy_of_block_vector

# Dense diagonalization bound on the sector dimension: it bounds the
# dense matrix and its eigenvectors, 128 MB each at 4000 states.
MAX_DENSE_DIM = 4000

_DEGENERACY_TOL = 1e-10

_MAX_PARTICLES = 2 ** 31


@dataclass(frozen=True)
class SectorHamiltonian:
    """Dense sector Hamiltonian plus its occupation basis: a read-only
    (dim, V) int64 array, one whole sector in lexicographic order."""
    V: int
    N: int
    couplings: dict
    basis: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class CutEntropies:
    """Entropy statistics of the window states at one cut position."""
    V_A: int
    f: float
    mean: float
    std: float


@dataclass(frozen=True)
class MidSpectrumReport:
    """Mid-spectrum entanglement panel for one sector Hamiltonian."""
    dim: int
    window_lo: int
    window_hi: int
    cuts: tuple[CutEntropies, ...]


def _occupation_basis(V: int, N: int, cap: int) -> np.ndarray:
    """All occupation rows of length V summing to N with n_i <= cap.

    Returns a read-only (dim, V) int64 array in lexicographic order.  It is
    built one site at a time from the feasible prefixes, each of which
    extends to at least one state, so a level with more than MAX_DENSE_DIM
    prefixes refuses the sector before any of them is stored.  More than
    MAX_DENSE_DIM sites are refused first: a sector with more than one
    state has at least V, the distinct translates of its packed occupation
    (full sites, then the remainder, then empty sites).
    """
    if V > MAX_DENSE_DIM:
        raise InfeasibleSizeError(f"V={V} sites exceed the dense limit "
                                  f"{MAX_DENSE_DIM}")
    if N >= _MAX_PARTICLES:
        # int64 occupations: products and sums of two occupations stay exact
        raise InfeasibleSizeError(f"N={N} particles exceed the occupation "
                                  f"limit 2^31")
    if N > cap * V:
        raise DomainError(f"empty sector: V={V}, N={N}, cap={cap}")
    # one level per site: every feasible prefix and its last digit, in
    # lexicographic order (np.repeat keeps each prefix's digits together)
    parents, digits = [], []
    left = np.array([N], dtype=np.int64)
    for sites_left in range(V, 0, -1):
        # leave enough capacity for the remaining sites
        lo = np.maximum(0, left - cap * (sites_left - 1))
        count = np.minimum(cap, left) - lo + 1
        if count.sum() > MAX_DENSE_DIM:  # the dimension is at least that
            raise InfeasibleSizeError(f"sector dimension exceeds dense "
                                      f"limit {MAX_DENSE_DIM}")
        parent = np.repeat(np.arange(left.size), count)
        start = np.cumsum(count) - count
        digit = lo[parent] + np.arange(parent.size) - start[parent]
        parents.append(parent)
        digits.append(digit)
        left = left[parent] - digit
    dim = left.size
    occ = np.empty((dim, V), dtype=np.int64)
    row = np.arange(dim)
    for site in range(V - 1, -1, -1):
        occ[:, site] = digits[site][row]
        row = parents[site][row]
    occ.flags.writeable = False
    return occ


def _state_keys(occ: np.ndarray, cap: int):
    """Base-(cap + 1) keys of the occupation rows, and each site's weight.

    The rows are in lexicographic order, so the keys ascend and
    `np.searchsorted(keys, key)` finds the row of a state.  The keys are
    Python ints (an object array) once (cap + 1)^V overflows int64.
    """
    V = occ.shape[1]
    base = cap + 1
    weight = [base ** (V - 1 - site) for site in range(V)]
    dtype = np.int64 if base ** V < 2 ** 63 else object
    keys = occ.astype(dtype) @ np.array(weight, dtype=dtype)
    return keys, weight


def _spin1_bond_matrix(lam: float, delta: float) -> np.ndarray:
    """9x9 two-site operator of the extended spin-1 XXZ chain.

    Occupation order n = s + 1; the single-site 2(S^z)^2 piece of the
    extension is folded onto the left site of each bond (periodic chain:
    every site is a left end exactly once).
    """
    sz = np.diag([-1.0, 0.0, 1.0])
    sp = np.zeros((3, 3))
    sp[1, 0] = sp[2, 1] = math.sqrt(2.0)
    sm = sp.T
    eye = np.eye(3)

    hxy = 0.5 * (np.kron(sp, sm) + np.kron(sm, sp))
    hzz = np.kron(sz, sz)
    h0 = -(hxy + delta * hzz)
    if lam == 0.0:
        return h0

    mu = delta - 1.0
    nu = 2.0 - math.sqrt(2.0 * (1.0 + delta))
    ss = hxy + hzz
    sz2 = sz @ sz
    cross = hxy @ hzz
    h1 = (ss @ ss
          - mu * (2.0 * np.kron(sz2, eye) - np.kron(sz2, sz2))
          - nu * (cross + cross.T))
    return h0 + lam * h1


@checked
def build_spin1_xxz(V: int, M: int, lam: float, delta: float) -> SectorHamiltonian:
    """Extended spin-1 XXZ chain in the magnetization-M sector, periodic.

    lam = 0 is the bare XXZ chain (nonintegrable); lam = 1 turns on the
    biquadratic extension with couplings mu = Delta - 1 and
    nu = 2 - sqrt(2 (1 + Delta)) that make the chain integrable.
    """
    if V < 2:
        raise DomainError("need at least 2 sites for a periodic chain")
    if abs(M) > V:
        raise DomainError(f"magnetization M={M} impossible for spin-1 on "
                          f"{V} sites")
    N = M + V  # occupations n_i = s_i + 1
    occ = _occupation_basis(V, N, cap=2)
    keys, weight = _state_keys(occ, cap=2)
    bond = _spin1_bond_matrix(lam, delta)
    # (pair, new_pair) with a nonzero amplitude; pair = 3 n_i + n_j
    moves = [(int(pair), int(new)) for pair, new in zip(*np.nonzero(bond.T))]

    dim = len(occ)
    matrix = np.zeros((dim, dim))
    # an entry takes at most one term per bond, so it sums its terms in
    # bond order; within one move the (row, col) pairs are distinct
    for i in range(V):
        j = (i + 1) % V
        pairs = 3 * occ[:, i] + occ[:, j]
        for pair, new in moves:
            cols = np.flatnonzero(pairs == pair)
            shift = ((new // 3 - pair // 3) * weight[i]
                     + (new % 3 - pair % 3) * weight[j])
            rows = np.searchsorted(keys, keys[cols] + shift)
            matrix[rows, cols] += bond[new, pair]
    return SectorHamiltonian(V=V, N=N,
                             couplings={"lambda": lam, "Delta": delta,
                                        "M": M},
                             basis=occ, matrix=matrix)


@checked
def build_bose_hubbard(V: int, N: int, U: float,
                       n_max: Optional[int] = None) -> SectorHamiltonian:
    """Bose-Hubbard chain at fixed N, periodic, optional occupation cap."""
    if V < 2:
        raise DomainError("need at least 2 sites for a periodic chain")
    if N < 0:
        raise DomainError(f"N must be nonnegative, got {N}")
    cap = N if n_max is None else max(0, min(n_max, N))
    if N > 0 and cap < 1:
        raise DomainError("occupation cap leaves no room for any particle")
    occ = _occupation_basis(V, N, cap)
    keys, weight = _state_keys(occ, cap)

    dim = len(occ)
    matrix = np.zeros((dim, dim))
    matrix[np.diag_indices(dim)] = 0.5 * U * np.sum(occ * (occ - 1), axis=1)
    for i in range(V):
        j = (i + 1) % V
        for src, dst in ((j, i), (i, j)):  # b+_dst b_src + h.c. halves
            cols = np.flatnonzero((occ[:, src] > 0) & (occ[:, dst] < cap))
            rows = np.searchsorted(keys,
                                   keys[cols] + (weight[dst] - weight[src]))
            matrix[rows, cols] += -np.sqrt((occ[cols, dst] + 1)
                                           * occ[cols, src])
    return SectorHamiltonian(V=V, N=N, couplings={"U": U, "n_max": n_max},
                             basis=occ, matrix=matrix)


@checked
def mid_spectrum_entropies(ham: SectorHamiltonian, window: int,
                           v_a_list) -> MidSpectrumReport:
    """Entanglement statistics of the mid-spectrum eigenstate window.

    The window of `window` states is centered on the median eigenvalue
    index and grown (only) as needed so its edges never split a multiplet
    degenerate within 1e-10.  Entropies use contiguous cuts [0, V_A); the
    trivial cuts V_A = 0 and V report mean and std 0.0 with no SVD.
    """
    if window < 1:
        raise DomainError("window must be >= 1")
    cuts = tuple(v_a_list)
    for v_a in cuts:
        if type(v_a) is not int or not 0 <= v_a <= ham.V:
            raise DomainError(f"cut position {v_a!r} is not an integer in "
                              f"[0, {ham.V}]")
    energies, states = np.linalg.eigh(ham.matrix)
    dim = len(energies)
    lo = max(0, dim // 2 - window // 2)
    hi = min(dim, lo + window)
    while lo > 0 and energies[lo] - energies[lo - 1] < _DEGENERACY_TOL:
        lo -= 1
    while hi < dim and energies[hi] - energies[hi - 1] < _DEGENERACY_TOL:
        hi += 1

    stats = []
    for v_a in cuts:
        mean = std = 0.0  # at V_A = 0 or V, as in `entropy.report`
        if 0 < v_a < ham.V:
            blocks, perm = _cut_blocks(ham.basis, v_a)
            entropies = entropy_of_block_vector(blocks, states[perm, lo:hi])
            mean = float(np.mean(entropies))
            if len(entropies) > 1:
                std = float(np.std(entropies, ddof=1))
        stats.append(CutEntropies(V_A=v_a, f=v_a / ham.V, mean=mean, std=std))
    return MidSpectrumReport(dim=dim, window_lo=lo, window_hi=hi,
                             cuts=tuple(stats))


def _cut_blocks(basis: np.ndarray, v_a: int):
    """Block layout of a basis cut at site v_a, plus the index permutation.

    Returns (blocks, perm) such that reordering an eigenvector by `perm`
    lays its N_A blocks end to end: entry row * d_b + col of a block is the
    amplitude of (A-state row, B-state col).  `perm` lexsorts the (dim, V)
    occupation rows by (N_A, occupations).  `basis` must be one whole
    sector, in any row order: then each N_A block holds every (A state,
    B state) pair, its sorted rows in row-major order.
    """
    n_a = basis[:, :v_a].sum(axis=1)
    perm = np.lexsort((*basis.T[::-1], n_a))
    values, starts, sizes = np.unique(n_a[perm], return_index=True,
                                      return_counts=True)
    prefix = basis[perm, :v_a]
    new_a = np.r_[1, np.any(prefix[1:] != prefix[:-1], axis=1)]
    d_as = np.add.reduceat(new_a, starts)
    layout = np.column_stack((values, d_as, sizes // d_as))
    return tuple(SectorBlock(*map(int, row)) for row in layout), perm

