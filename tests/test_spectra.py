"""Sector Hamiltonians checked against full-Hilbert-space constructions."""

import math

import numpy as np
import pytest

from page_entropy.dimensions import dim_fixed_n
from page_entropy.errors import DomainError, InfeasibleSizeError
from page_entropy.local_model import catalog
from page_entropy.saddle import beta_family
from page_entropy.spectra import (SectorHamiltonian, _cut_blocks,
                                  _occupation_basis,
                                  _spin1_bond_matrix, beta_spin1,
                                  build_bose_hubbard, build_spin1_xxz,
                                  mid_spectrum_entropies)
from page_entropy.haar_sampler import SectorBlock, entropy_of_block_vector


def _embed(op, site, V, d):
    out = np.array([[1.0]])
    for k in range(V):
        out = np.kron(out, op if k == site else np.eye(d))
    return out


def full_spin1_matrix(V, lam, delta):
    """Periodic extended XXZ chain over the full 3^V space, from site ops."""
    sz = np.diag([-1.0, 0.0, 1.0])
    sp = np.zeros((3, 3))
    sp[1, 0] = sp[2, 1] = math.sqrt(2.0)
    Sz = [_embed(sz, i, V, 3) for i in range(V)]
    Sp = [_embed(sp, i, V, 3) for i in range(V)]
    Sm = [m.T for m in Sp]
    mu = delta - 1.0
    nu = 2.0 - math.sqrt(2.0 * (1.0 + delta))
    H = np.zeros((3 ** V, 3 ** V))
    for i in range(V):
        j = (i + 1) % V
        hxy = 0.5 * (Sp[i] @ Sm[j] + Sm[i] @ Sp[j])
        hzz = Sz[i] @ Sz[j]
        H -= hxy + delta * hzz
        if lam != 0.0:
            ss = hxy + hzz
            sz2i = Sz[i] @ Sz[i]
            sz2j = Sz[j] @ Sz[j]
            H += lam * (ss @ ss
                        - mu * (2.0 * sz2i - sz2i @ sz2j)
                        - nu * (hxy @ hzz + hzz @ hxy))
    return H


def full_bose_hubbard_matrix(V, N, U):
    """Periodic Bose-Hubbard over the (N+1)^V product space."""
    d = N + 1
    b = np.zeros((d, d))
    for k in range(1, d):
        b[k - 1, k] = math.sqrt(k)
    B = [_embed(b, i, V, d) for i in range(V)]
    n_op = [m.T @ m for m in B]
    H = np.zeros((d ** V, d ** V))
    for i in range(V):
        j = (i + 1) % V
        H -= B[i].T @ B[j] + B[j].T @ B[i]
        H += 0.5 * U * (n_op[i] @ n_op[i] - n_op[i])
    return H


def _sector_indices(basis, d):
    # lexicographic occupation tuples <-> ascending base-d kron indices
    return [sum(k * d ** (len(occ) - 1 - i) for i, k in enumerate(occ))
            for occ in basis]


@pytest.mark.parametrize("lam, delta", [(0.0, 0.7), (1.0, 0.55), (0.3, 1.2)])
def test_spin1_sector_matches_full_space(lam, delta):
    V, M = 3, 0
    ham = build_spin1_xxz(V, M, lam, delta)
    full = full_spin1_matrix(V, lam, delta)
    sel = _sector_indices(ham.basis, 3)
    assert np.allclose(full[np.ix_(sel, sel)], ham.matrix, atol=1e-12)
    # magnetization conservation: no coupling out of the sector
    rest = sorted(set(range(3 ** V)) - set(sel))
    assert np.all(full[np.ix_(sel, rest)] == 0.0)


def test_spin1_nonzero_magnetization_sector():
    ham = build_spin1_xxz(4, 2, 1.0, 0.55)
    assert ham.N == 6  # occupations store s + 1 per site
    full = full_spin1_matrix(4, 1.0, 0.55)
    sel = _sector_indices(ham.basis, 3)
    assert np.allclose(full[np.ix_(sel, sel)], ham.matrix, atol=1e-12)


@pytest.mark.parametrize("U", [2.25, 0.0])
def test_bose_hubbard_sector_matches_full_space(U):
    V, N = 3, 2
    ham = build_bose_hubbard(V, N, U)
    full = full_bose_hubbard_matrix(V, N, U)
    sel = _sector_indices(ham.basis, N + 1)
    assert np.allclose(full[np.ix_(sel, sel)], ham.matrix, atol=1e-12)
    rest = sorted(set(range((N + 1) ** V)) - set(sel))
    assert np.all(full[np.ix_(sel, rest)] == 0.0)


def test_bose_hubbard_occupation_cap():
    ham = build_bose_hubbard(3, 3, 1.0, n_max=1)
    assert ham.basis.tolist() == [[1, 1, 1]]
    assert ham.matrix.shape == (1, 1) and ham.matrix[0, 0] == 0.0
    capped = build_bose_hubbard(4, 3, 2.0, n_max=2)
    assert all(max(occ) <= 2 for occ in capped.basis)
    m = catalog("capped_bosons", 2)
    assert len(capped.basis) == dim_fixed_n(m, 4, 3)


def test_basis_and_symmetry():
    ham = build_spin1_xxz(5, 1, 1.0, 0.55)
    assert all(sum(occ) == ham.N and max(occ) <= 2 for occ in ham.basis)
    assert len(ham.basis) == dim_fixed_n(catalog("spin_j", 1), 5, ham.N)
    assert np.allclose(ham.matrix, ham.matrix.T, atol=1e-12)
    bh = build_bose_hubbard(4, 3, 2.25)
    assert len(bh.basis) == math.comb(3 + 4 - 1, 3)
    assert np.allclose(bh.matrix, bh.matrix.T, atol=1e-12)


def test_build_errors():
    with pytest.raises(DomainError):
        build_spin1_xxz(1, 0, 0.0, 1.0)
    with pytest.raises(DomainError):
        build_spin1_xxz(4, 5, 0.0, 1.0)
    with pytest.raises(InfeasibleSizeError):
        build_spin1_xxz(10, 0, 0.0, 1.0)  # central trinomial 8953 > 4000
    with pytest.raises(DomainError):
        build_bose_hubbard(4, -1, 1.0)
    with pytest.raises(DomainError, match="need at least 2 sites"):
        build_bose_hubbard(1, 1, 1.0)
    with pytest.raises(DomainError):
        build_bose_hubbard(4, 3, 1.0, n_max=0)
    with pytest.raises(InfeasibleSizeError):
        build_bose_hubbard(10, 10, 1.0)


def test_cut_blocks_against_reduced_density_matrix():
    ham = build_spin1_xxz(4, 0, 1.0, 0.55)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(len(ham.basis)) \
        + 1j * rng.standard_normal(len(ham.basis))
    psi /= np.linalg.norm(psi)
    for v_a in (1, 2, 3):
        blocks, perm = _cut_blocks(ham.basis, v_a)
        got = entropy_of_block_vector(blocks, psi[perm])
        # reduced density matrix assembled directly from the basis labels
        basis = list(map(tuple, ham.basis.tolist()))
        rows = {}
        for occ in basis:
            rows.setdefault(occ[:v_a], len(rows))
        rho = np.zeros((len(rows), len(rows)), dtype=complex)
        cols = {}
        for amp, occ in zip(psi, basis):
            cols.setdefault(occ[v_a:], {})[occ[:v_a]] = amp
        for col_amps in cols.values():
            for a1, amp1 in col_amps.items():
                for a2, amp2 in col_amps.items():
                    rho[rows[a1], rows[a2]] += amp1 * np.conj(amp2)
        lam = np.linalg.eigvalsh(rho)
        lam = lam[lam > 1e-18]
        ref = float(-np.sum(lam * np.log(lam)))
        assert abs(got - ref) < 1e-12


def test_window_never_splits_a_multiplet():
    basis = np.array([(0, 2), (1, 1), (2, 0)])
    ham = SectorHamiltonian(V=2, N=2, couplings={},
                            basis=basis, matrix=np.diag([1.0, 1.0, 2.0]))
    report = mid_spectrum_entropies(ham, 1, [1])
    # the median state is degenerate with its left neighbor: both kept
    assert (report.window_lo, report.window_hi) == (0, 2)
    assert report.dim == 3
    with pytest.raises(DomainError):
        mid_spectrum_entropies(ham, 0, [1])
    with pytest.raises(DomainError):
        mid_spectrum_entropies(ham, 1, [5])


def test_mid_spectrum_against_direct_loop():
    ham = build_bose_hubbard(4, 4, 2.25)
    report = mid_spectrum_entropies(ham, 10 ** 6, [2])  # entire spectrum
    assert (report.window_lo, report.window_hi) == (0, report.dim)
    energies, states = np.linalg.eigh(ham.matrix)
    blocks, perm = _cut_blocks(ham.basis, 2)
    vals = [entropy_of_block_vector(blocks, states[perm, k])
            for k in range(report.dim)]
    cut = report.cuts[0]
    assert cut.V_A == 2 and abs(cut.f - 0.5) < 1e-15
    assert abs(cut.mean - np.mean(vals)) < 1e-12
    assert abs(cut.std - np.std(vals, ddof=1)) < 1e-12


def test_midspectrum_entropies_near_sector_typical_value():
    # chaotic point: window average should sit near (below) the Haar mean
    from page_entropy.entropy import BipartitionSpec, exact_average
    ham = build_spin1_xxz(8, -4, 0.0, 0.55)
    report = mid_spectrum_entropies(ham, 100, [2, 4])
    m = catalog("spin_j", 1)
    for cut, tol in zip(report.cuts, (0.05, 0.08)):
        ref = exact_average(m, BipartitionSpec(8, 4, cut.V_A))
        assert cut.mean < ref  # eigenstates sit just below the Haar mean
        assert abs(cut.mean - ref) / ref < tol
        assert cut.std < 0.2


def test_beta_spin1_closed_form():
    m = catalog("spin_j", 1)
    for n in np.linspace(0.1, 1.9, 37):
        assert abs(beta_spin1(n) - beta_family(m, float(n)).beta) < 1e-10
    assert abs(beta_spin1(1.0) - math.log(3)) < 1e-12
    for bad in (0.0, 2.0, -0.3, 2.4):
        with pytest.raises(DomainError):
            beta_spin1(bad)


# -- loop oracles: the per-state builders and the per-vector Schmidt kernel --

def loop_occupation_basis(V, N, cap):
    """Occupation tuples summing to N with n_i <= cap, lexicographic."""
    states = []

    def grow(prefix, remaining, sites_left):
        if sites_left == 0:
            if remaining == 0:
                states.append(tuple(prefix))
            return
        lo = max(0, remaining - cap * (sites_left - 1))
        for k in range(lo, min(cap, remaining) + 1):
            prefix.append(k)
            grow(prefix, remaining - k, sites_left - 1)
            prefix.pop()

    grow([], N, V)
    return states


def loop_spin1_xxz(V, M, lam, delta):
    """(basis, matrix) of the spin-1 chain, one state and bond at a time."""
    basis = loop_occupation_basis(V, M + V, 2)
    index = {occ: i for i, occ in enumerate(basis)}
    bond = _spin1_bond_matrix(lam, delta)
    matrix = np.zeros((len(basis), len(basis)))
    for col, occ in enumerate(basis):
        for i in range(V):
            j = (i + 1) % V
            pair = occ[i] * 3 + occ[j]
            for new_pair in np.nonzero(bond[:, pair])[0]:
                new_occ = list(occ)
                new_occ[i], new_occ[j] = new_pair // 3, new_pair % 3
                matrix[index[tuple(new_occ)], col] += bond[new_pair, pair]
    return tuple(basis), matrix


def loop_bose_hubbard(V, N, U, n_max=None):
    """(basis, matrix) of the Bose-Hubbard chain, one state and bond at a
    time."""
    cap = N if n_max is None else min(n_max, N)
    basis = loop_occupation_basis(V, N, max(cap, 0))
    index = {occ: i for i, occ in enumerate(basis)}
    matrix = np.zeros((len(basis), len(basis)))
    for col, occ in enumerate(basis):
        matrix[col, col] = 0.5 * U * sum(k * (k - 1) for k in occ)
        for i in range(V):
            j = (i + 1) % V
            for src, dst in ((j, i), (i, j)):
                if occ[src] > 0 and occ[dst] < cap:
                    new_occ = list(occ)
                    new_occ[src] -= 1
                    new_occ[dst] += 1
                    matrix[index[tuple(new_occ)], col] += \
                        -math.sqrt((occ[dst] + 1) * occ[src])
    return tuple(basis), matrix


def loop_cut_blocks(basis, v_a):
    """(blocks, perm) of a cut, grouping occupation tuples in dicts."""
    groups = {}
    for idx, occ in enumerate(basis):
        a, b = occ[:v_a], occ[v_a:]
        n_a = sum(a)
        rows, cols, members = groups.setdefault(n_a, ({}, {}, []))
        rows.setdefault(a, len(rows))
        cols.setdefault(b, len(cols))
        members.append((idx, a, b))

    blocks = []
    perm = np.empty(len(basis), dtype=np.intp)
    offset = 0
    for n_a in sorted(groups):
        rows, cols, members = groups[n_a]
        d_a, d_b = len(rows), len(cols)
        for idx, a, b in members:
            perm[offset + rows[a] * d_b + cols[b]] = idx
        blocks.append(SectorBlock(n_a=n_a, d_a=d_a, d_b=d_b, offset=offset))
        offset += d_a * d_b
    return tuple(blocks), perm


def loop_entropy(blocks, psi):
    """Entropy of one block-layout vector, block by block."""
    total = 0.0
    for blk in blocks:
        mat = psi[blk.offset:blk.offset + blk.d_a * blk.d_b]
        sv = np.linalg.svd(mat.reshape(blk.d_a, blk.d_b), compute_uv=False)
        lam = sv * sv
        lam = lam[lam > 1e-18]
        if lam.size:
            total -= float(np.sum(lam * np.log(lam)))
    return total


def _assert_same_hamiltonian(ham, basis, matrix):
    assert ham.basis.dtype == np.int64 and not ham.basis.flags.writeable
    assert ham.basis.tolist() == list(map(list, basis))
    assert ham.matrix.dtype == matrix.dtype
    assert ham.matrix.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("V", range(2, 8))
def test_spin1_matrix_bitwise_equals_loop_builder(V):
    for M in sorted({-V, -1, 0, 1, V - 1}):
        for lam in (0.0, 0.3, 1.0):
            for delta in (0.55, 1.0, 1.2):
                _assert_same_hamiltonian(build_spin1_xxz(V, M, lam, delta),
                                         *loop_spin1_xxz(V, M, lam, delta))


@pytest.mark.parametrize("V", range(2, 7))
def test_bose_hubbard_matrix_bitwise_equals_loop_builder(V):
    for N in (0, 1, 2, 3, 5):
        for n_max in (None, 1, 2):
            if N > V * (n_max or N):
                continue
            for U in (2.25, 10.0, -0.7):
                _assert_same_hamiltonian(build_bose_hubbard(V, N, U, n_max),
                                         *loop_bose_hubbard(V, N, U, n_max))


def test_long_chain_keys_beyond_int64_bitwise_equal_loop_builder():
    # 3^45 and 2^70 overflow int64: the state keys are Python ints
    _assert_same_hamiltonian(build_spin1_xxz(45, 43, 1.0, 0.55),
                             *loop_spin1_xxz(45, 43, 1.0, 0.55))
    _assert_same_hamiltonian(build_bose_hubbard(70, 2, 2.25, n_max=1),
                             *loop_bose_hubbard(70, 2, 2.25, n_max=1))


def _ed_sectors():
    """Every spin-1 sector of V = 2..8 and Bose-Hubbard sectors of V = 2..7,
    N = 0..5, uncapped or capped at 1 or 2: (V, N, cap) triples."""
    for V in range(2, 9):
        for N in range(2 * V + 1):
            yield V, N, 2
    for V in range(2, 8):
        for N in range(6):
            for n_max in (None, 1, 2):
                if N <= V * (n_max or N):
                    yield V, N, max(min(n_max or N, N), 0)


def test_cut_blocks_equal_the_dict_grouping_loop():
    cuts = 0
    for V, N, cap in _ed_sectors():
        occ = _occupation_basis(V, N, cap)
        basis = tuple(map(tuple, occ.tolist()))
        for v_a in range(V + 1):
            blocks, perm = _cut_blocks(occ, v_a)
            want_blocks, want_perm = loop_cut_blocks(basis, v_a)
            assert blocks == want_blocks, (V, N, cap, v_a)
            assert np.array_equal(perm, want_perm), (V, N, cap, v_a)
            cuts += 1
    assert cuts == 1087


def test_cut_blocks_do_not_depend_on_row_order():
    ham = build_spin1_xxz(6, 0, 1.0, 0.55)
    rng = np.random.default_rng(3)
    shuffle = rng.permutation(len(ham.basis))
    psi = rng.standard_normal((len(ham.basis), 4))
    for v_a in range(ham.V + 1):
        blocks, perm = _cut_blocks(ham.basis, v_a)
        want = entropy_of_block_vector(blocks, psi[perm])
        blocks, perm = _cut_blocks(ham.basis[shuffle], v_a)
        got = entropy_of_block_vector(blocks, psi[shuffle][perm])
        assert list(got) == list(want)


def test_occupations_beyond_int64_products_refused():
    # a one-state sector, but (n + 1) n would overflow int64
    with pytest.raises(InfeasibleSizeError):
        build_bose_hubbard(2, 2 ** 31, 1.0, n_max=2 ** 30)


def _product_columns(dim, picks):
    """Columns that are sums of a few basis states (low Schmidt rank)."""
    out = np.zeros((dim, len(picks)))
    for k, states in enumerate(picks):
        out[list(states), k] = 1.0 / math.sqrt(len(states))
    return out


@pytest.mark.parametrize("dtype", [float, complex])
def test_batched_entropies_equal_per_column_calls(dtype):
    ham = build_spin1_xxz(5, 0, 1.0, 0.55)
    dim = len(ham.basis)
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((dim, 5))
    if dtype is complex:
        dense = dense + 1j * rng.standard_normal((dim, 5))
    dense /= np.linalg.norm(dense, axis=0)
    sparse = _product_columns(dim, [(0,), (7,), (3, 20), (1, 2, 40), (50,)])
    X = np.hstack([dense, sparse.astype(dense.dtype)])
    for v_a in range(ham.V + 1):  # includes V_A = 0 and V_A = V
        blocks, perm = _cut_blocks(ham.basis, v_a)
        cols = X[perm]
        got = entropy_of_block_vector(blocks, cols)
        assert got.shape == (X.shape[1],)
        one = [entropy_of_block_vector(blocks, cols[:, k])
               for k in range(X.shape[1])]
        assert all(type(value) is float for value in one)
        assert list(got) == one
        assert one == [loop_entropy(blocks, cols[:, k])
                       for k in range(X.shape[1])]
    # long kept prefixes of different lengths (pairwise sums from 8 terms)
    ham = build_spin1_xxz(8, 0, 1.0, 0.55)
    blocks, _ = _cut_blocks(ham.basis, 4)
    big = max(blocks, key=lambda blk: min(blk.d_a, blk.d_b))
    side = min(big.d_a, big.d_b)
    assert side > 16
    Y = rng.standard_normal((len(ham.basis), 3)).astype(dtype)
    for rank in (9, 12, 15, 16, side - 1):
        col = np.zeros((len(ham.basis), 1), dtype=dtype)
        diag = big.offset + np.arange(rank) * (big.d_b + 1)
        col[diag, 0] = rng.uniform(0.5, 1.5, rank)
        Y = np.hstack([Y, col / np.linalg.norm(col)])
    got = entropy_of_block_vector(blocks, Y)
    assert list(got) == [loop_entropy(blocks, Y[:, k])
                         for k in range(Y.shape[1])]


def test_mid_spectrum_equals_per_state_loop_across_a_multiplet():
    ham = build_spin1_xxz(6, 0, 1.0, 1.0)  # integrable, many multiplets
    report = mid_spectrum_entropies(ham, 6, range(7))
    energies, states = np.linalg.eigh(ham.matrix)
    lo, hi = report.window_lo, report.window_hi
    assert np.any(np.diff(energies[lo:hi]) < 1e-10)
    for cut in report.cuts:
        if cut.V_A in (0, ham.V):  # a trivial cut is 0, with no SVD
            assert (cut.mean, cut.std) == (0.0, 0.0)
            continue
        blocks, perm = _cut_blocks(ham.basis, cut.V_A)
        values = [loop_entropy(blocks, states[perm, k]) for k in range(lo, hi)]
        assert cut.mean == float(np.mean(values))
        assert cut.std == float(np.std(values, ddof=1))


def test_bad_cut_refused_before_eigh(monkeypatch):
    def no_eigh(matrix):
        raise AssertionError("eigh ran before the cut check")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    ham = build_spin1_xxz(4, 0, 0.0, 1.0)
    with pytest.raises(DomainError):
        mid_spectrum_entropies(ham, 4, [1, 5])
