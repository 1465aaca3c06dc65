"""Haar Monte Carlo sampler: layout, hand-checked entropies, determinism."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import page_entropy.haar_sampler as haar_sampler
from page_entropy.budget import check_run_work, sample_seconds
from page_entropy.dimensions import dim_fixed_n, dim_table
from page_entropy.entropy import BipartitionSpec, exact_average
from page_entropy.errors import DomainError, InfeasibleSizeError
from page_entropy.haar_sampler import (SectorBlock, build_sector_basis,
                                       entropy_of_block_vector, mc_average,
                                       sample_entropies, sample_entropy)
from page_entropy.local_model import CATALOG, catalog


def dense_sample_entropy(basis, rng) -> float:
    """Oracle sampler: a normalized complex Gaussian vector over the whole
    sector, then the Schmidt spectrum (SVD) of every block."""
    amps = rng.standard_normal(2 * basis.dim)
    psi = amps[:basis.dim] + 1j * amps[basis.dim:]
    psi /= np.linalg.norm(psi)
    return entropy_of_block_vector(basis.blocks, psi)


def _mean_and_variance_errors(values):
    """(mean, sem, variance, standard error of the variance) of a sample."""
    x = np.asarray(values)
    n = x.size
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    m4 = float(np.mean((x - mean) ** 4))
    return mean, math.sqrt(var / n), var, math.sqrt(max(m4 - var * var,
                                                        0.0) / n)


def iter_sector_states(model, V: int, N: int):
    """All product states of the sector as tuples of (charge, which-state).

    The second entry indexes the a_k-fold local degeneracy explicitly, so
    the count matches the sector dimension even when a_k > 1.
    """
    if V == 0:
        if N == 0:
            yield ()
        return
    k_hi = N if model.n_max is None else min(N, model.n_max)
    for k in range(k_hi + 1):
        for c in range(model.coefficient(k)):
            for rest in iter_sector_states(model, V - 1, N - k):
                yield ((k, c),) + rest


def test_basis_layout_matches_sector_dimension():
    m = catalog("fermions")
    basis = build_sector_basis(m, 8, 4, 3)
    assert basis.dim == dim_fixed_n(m, 8, 4)  # C(8,4) = 70
    # blocks tile the flat vector contiguously
    expect_offset = 0
    for blk in basis.blocks:
        assert blk.offset == expect_offset
        assert blk.d_a == dim_fixed_n(m, 3, blk.n_a)
        assert blk.d_b == dim_fixed_n(m, 5, 4 - blk.n_a)
        expect_offset += blk.d_a * blk.d_b
    assert expect_offset == basis.dim
    # empty blocks (n_a > V_A for fermions) are dropped
    assert [blk.n_a for blk in basis.blocks] == [0, 1, 2, 3]


def test_basis_layout_with_local_multiplicity():
    m = catalog("hardcore_bosons_2species")
    basis = build_sector_basis(m, 5, 3, 2)
    total = sum(blk.d_a * blk.d_b for blk in basis.blocks)
    assert total == basis.dim == dim_fixed_n(m, 5, 3)


def test_basis_errors():
    m = catalog("fermions")
    with pytest.raises(DomainError):
        build_sector_basis(m, 8, 4, 9)
    with pytest.raises(DomainError):
        build_sector_basis(m, 4, 9, 2)  # no states above full filling
    # sum(min(d_A, d_B)^2) = C(36,18) ~ 9.1e9: one sample is estimated
    # above the budget, refused before any block is laid out
    with pytest.raises(InfeasibleSizeError,
                       match="1 samples estimated at 209 s"):
        build_sector_basis(m, 36, 18, 18)
    # d_B = C(99, 50) ~ 5e28 at N_A = 0: no longer an exact Gamma shape
    with pytest.raises(InfeasibleSizeError,
                       match=r"block side above 2\^53 at N_A=0"):
        build_sector_basis(m, 100, 50, 1)


def test_iter_sector_states_counts():
    for name, args in (("fermions", ()), ("bosons", ()),
                       ("hardcore_bosons_2species", ()), ("spin_j", (1,))):
        m = catalog(name, *args)
        for V, N in ((4, 3), (5, 2)):
            states = list(iter_sector_states(m, V, N))
            assert len(states) == dim_fixed_n(m, V, N)
            assert len(set(states)) == len(states)
            for s in states:
                assert sum(k for k, _ in s) == N


def test_bell_state_entropy():
    blocks = (SectorBlock(n_a=0, d_a=2, d_b=2, offset=0),)
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    assert abs(entropy_of_block_vector(blocks, psi) - math.log(2)) < 1e-14


def test_product_state_entropy_is_zero():
    blocks = (SectorBlock(n_a=0, d_a=3, d_b=4, offset=0),)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = np.outer(a, b).ravel()
    psi /= np.linalg.norm(psi)
    assert abs(entropy_of_block_vector(blocks, psi)) < 1e-12


def test_two_block_binary_entropy():
    # two 1x1 blocks carry classical weights (p, 1-p)
    blocks = (SectorBlock(n_a=0, d_a=1, d_b=1, offset=0),
              SectorBlock(n_a=1, d_a=1, d_b=1, offset=1))
    p = 0.3
    psi = np.array([math.sqrt(p), math.sqrt(1 - p)])
    ref = -p * math.log(p) - (1 - p) * math.log(1 - p)
    assert abs(entropy_of_block_vector(blocks, psi) - ref) < 1e-14


def test_entropy_bounds_and_schmidt_rank():
    m = catalog("bosons")
    basis = build_sector_basis(m, 6, 4, 2)
    rank = sum(min(blk.d_a, blk.d_b) for blk in basis.blocks)
    for seed in range(20):
        s = sample_entropy(basis, seed)
        assert 0.0 <= s <= math.log(rank) + 1e-12


def test_sample_entropy_seed_forms_agree():
    basis = build_sector_basis(catalog("fermions"), 8, 4, 4)
    assert sample_entropy(basis, 123) == sample_entropy(
        basis, np.random.default_rng(123))


def test_mc_reproducible_and_thread_invariant():
    basis = build_sector_basis(catalog("spin_j", 1), 6, 6, 3)
    a = mc_average(basis, 40, seed=9)
    b = mc_average(basis, 40, seed=9)
    assert a == b
    d = mc_average(basis, 40, seed=10)
    assert d.mean != a.mean


def test_mc_summary_fields():
    basis = build_sector_basis(catalog("fermions"), 6, 3, 3)
    out = mc_average(basis, 50, seed=3)
    assert out.samples == 50 and out.seed == 3
    assert out.variance > 0.0
    assert abs(out.sem - math.sqrt(out.variance / 50)) < 1e-18
    single = mc_average(basis, 1, seed=3)
    assert single.variance == 0.0 and single.sem == 0.0
    with pytest.raises(DomainError):
        mc_average(basis, 0, seed=3)


def test_mc_mean_matches_exact_average():
    m = catalog("bosons")
    basis = build_sector_basis(m, 6, 4, 3)
    out = mc_average(basis, 1500, seed=42)
    ref = exact_average(m, BipartitionSpec(6, 4, 3))
    assert abs(out.mean - ref) < 4 * out.sem
    assert out.sem < 0.01


def test_big_block_gram_route_consistency():
    # push one block past the SVD side limit and compare a manual
    # spectrum: S from the function vs an eigh of the reduced matrix
    rng = np.random.default_rng(11)
    d_a, d_b = 80, 90
    mat = rng.standard_normal((d_a, d_b)) + 1j * rng.standard_normal((d_a, d_b))
    psi = mat.ravel()
    psi /= np.linalg.norm(psi)
    blocks = (SectorBlock(n_a=0, d_a=d_a, d_b=d_b, offset=0),)
    got = entropy_of_block_vector(blocks, psi)
    rho = (mat @ mat.conj().T) / np.vdot(mat, mat).real
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-18]
    ref = float(-np.sum(lam * np.log(lam)))
    assert abs(got - ref) < 1e-10


@pytest.mark.parametrize("name,V,N,V_A", [
    ("bosons", 6, 4, 2),                     # non-square blocks
    ("hardcore_bosons_2species", 5, 3, 2),   # a_k > 1
])
def test_bidiagonal_sampler_matches_dense_oracle(name, V, N, V_A):
    basis = build_sector_basis(catalog(name), V, N, V_A)
    assert any(blk.d_a != blk.d_b for blk in basis.blocks)
    n = 3000
    fast = [sample_entropy(basis, np.random.default_rng([5, i]))
            for i in range(n)]
    dense = [dense_sample_entropy(basis, np.random.default_rng([6, i]))
             for i in range(n)]
    m1, sem1, v1, sev1 = _mean_and_variance_errors(fast)
    m2, sem2, v2, sev2 = _mean_and_variance_errors(dense)
    assert abs(m1 - m2) <= 3 * math.hypot(sem1, sem2)
    assert abs(v1 - v2) <= 3 * math.hypot(sev1, sev2)


def test_sampler_reaches_sectors_above_old_dimension_cap():
    # C(24,12) ~ 2.7e6 states, beyond what a dense vector was allowed;
    # the per-sample work sum(min^2) is the same 2.7e6
    m = catalog("fermions")
    basis = build_sector_basis(m, 24, 12, 12)
    assert basis.dim == dim_fixed_n(m, 24, 12) > 2 * 10 ** 6
    out = mc_average(basis, 8, seed=4)
    ref = exact_average(m, BipartitionSpec(24, 12, 12))
    assert abs(out.mean - ref) <= 5 * out.sem


def test_sampler_refuses_runs_above_the_budget():
    # sum over N_A of min(d_A, d_B)^2 ~ 7.2e7: one sample is estimated at
    # 1.7 s, so the sector is laid out, and 100 samples are refused
    # before any draw
    basis = build_sector_basis(catalog("bosons"), 16, 16, 8)
    with pytest.raises(InfeasibleSizeError,
                       match="100 samples estimated at 167 s, above the 60 s "
                             "budget"):
        mc_average(basis, 100, seed=1)


def test_single_rank_one_block_is_product_state():
    basis = build_sector_basis(catalog("fermions"), 6, 3, 0)
    assert sample_entropy(basis, 1) == 0.0
    basis = build_sector_basis(catalog("fermions"), 6, 6, 3)
    assert sample_entropy(basis, 1) == 0.0


_ORACLE_SECTORS = [
    ("bosons", 6, 4, 2),                     # non-square blocks
    ("hardcore_bosons_2species", 5, 3, 2),   # a_k > 1
]


@pytest.mark.parametrize("name,V,N,V_A", _ORACLE_SECTORS)
def test_sample_entropies_split_calls_are_bitwise_equal(name, V, N, V_A):
    basis = build_sector_basis(catalog(name), V, N, V_A)
    K = 25
    whole = sample_entropies(basis, np.random.default_rng(8), K)
    rng = np.random.default_rng(8)
    parts = np.concatenate([sample_entropies(basis, rng, 1),
                            sample_entropies(basis, rng, 3),
                            sample_entropies(basis, rng, K - 4)])
    assert whole.shape == (K,)
    assert np.array_equal(whole, parts)
    assert sample_entropy(basis, np.random.default_rng(8)) == whole[0]


@pytest.mark.parametrize("V,N,V_A", [(6, 3, 0), (6, 6, 3)])
def test_product_state_sectors_sample_zeros(V, N, V_A):
    basis = build_sector_basis(catalog("fermions"), V, N, V_A)
    for count in (1, 7, 5000):
        out = sample_entropies(basis, np.random.default_rng(2), count)
        assert out.shape == (count,) and not out.any()


@pytest.mark.parametrize("name,V,N,V_A", _ORACLE_SECTORS)
def test_batched_mc_mean_matches_dense_oracle(name, V, N, V_A):
    basis = build_sector_basis(catalog(name), V, N, V_A)
    n = 3000
    out = mc_average(basis, n, seed=15)
    dense = [dense_sample_entropy(basis, np.random.default_rng([16, i]))
             for i in range(n)]
    m2, sem2, _, _ = _mean_and_variance_errors(dense)
    assert abs(out.mean - m2) <= 3 * math.hypot(out.sem, sem2)


def test_mc_summary_merges_chunks_exactly():
    basis = build_sector_basis(catalog("fermions"), 4, 2, 2)
    n = 5000  # three chunks of 2^14 draws, 8 draws a sample
    values = sample_entropies(basis, np.random.default_rng(31), n)
    out = mc_average(basis, n, seed=31)
    assert out.mean == pytest.approx(np.mean(values), rel=1e-12)
    assert out.variance == pytest.approx(np.var(values, ddof=1), rel=1e-12)
    assert out.sem == pytest.approx(math.sqrt(np.var(values, ddof=1) / n),
                                    rel=1e-12)
    single = mc_average(basis, 1, seed=31)
    assert single.mean == values[0]
    assert single.variance == 0.0 and single.sem == 0.0


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_memory_does_not_grow_with_samples():
    basis = build_sector_basis(catalog("fermions"), 4, 2, 2)
    one_chunk = _traced_peak(lambda: mc_average(basis, 2048, seed=1))
    n = 16 * 2048  # an array of all values would add 256 KiB
    many = _traced_peak(lambda: mc_average(basis, n, seed=1))
    assert many - one_chunk < 8 * n / 4


def test_run_budget_accepts_seconds_and_refuses_years():
    basis = build_sector_basis(catalog("fermions"), 4, 2, 2)
    check_run_work(basis, 10 ** 6)  # about 2 s of sampling
    with pytest.raises(InfeasibleSizeError, match="1000000000000000 samples"):
        check_run_work(basis, 10 ** 15)


def test_run_estimate_tracks_measured_sample_times():
    # seconds a sample, measured with mc_average on fermions at
    # N = V_A = V / 2 (2-vCPU x86 host, Python 3.11)
    measured = {4: 2.0e-6, 8: 7.0e-6, 14: 110e-6, 16: 364e-6,
                20: 3988e-6, 24: 51137e-6, 30: 2.65, 32: 10.2}
    for V, seconds in measured.items():
        basis = build_sector_basis(catalog("fermions"), V, V // 2, V // 2)
        assert 0.5 < sample_seconds(basis) / seconds < 2.0, V
    # bosons V = N = 16, V_A = 8: one sample took 1.28-1.32 s
    basis = build_sector_basis(catalog("bosons"), 16, 16, 8)
    assert 0.5 < sample_seconds(basis) / 1.30 < 2.0
    with pytest.raises(InfeasibleSizeError, match="estimated at inf s"):
        check_run_work(basis, 10 ** 400)  # beyond the float range


_BLOCK_MODELS = [catalog(name) for name in CATALOG] + [
    catalog("spin_j", 1), catalog("capped_bosons", 3)]


@pytest.mark.parametrize("model", _BLOCK_MODELS, ids=lambda m: m.label)
def test_sector_basis_blocks_follow_the_cut_decomposition(model,
                                                           monkeypatch):
    built = []
    monkeypatch.setattr(haar_sampler, "dim_table",
                        lambda *args: built.append(args[1:]) or
                        dim_table(*args))
    # the blocks of the old definition: every n_a in range(N + 1) whose
    # two table entries are nonzero, tables built up to N
    for V in (1, 2, 3, 4):
        for N in range(3 * V + 2):  # above V n_max for the bounded models
            for V_A in range(V + 1):
                table_a = dim_table(model, V_A, N)
                table_b = dim_table(model, V - V_A, N)
                old = [(n_a, table_a[n_a], table_b[N - n_a])
                       for n_a in range(N + 1)
                       if table_a[n_a] and table_b[N - n_a]]
                if not old:
                    with pytest.raises(DomainError, match="empty sector"):
                        build_sector_basis(model, V, N, V_A)
                    continue
                basis = build_sector_basis(model, V, N, V_A)
                assert [(blk.n_a, blk.d_a, blk.d_b)
                        for blk in basis.blocks] == old
                offsets = list(itertools.accumulate(
                    [0] + [d_a * d_b for _, d_a, d_b in old]))
                assert [blk.offset for blk in basis.blocks] == offsets[:-1]
                assert basis.dim == offsets[-1] == dim_fixed_n(model, V, N)
    # no table runs past the entries its sites can fill
    if model.n_max is not None:
        assert all(cap <= sites * model.n_max for sites, cap in built)


class _FixedGamma:
    """Stub generator: every draw of nonzero shape is 1, except the listed
    positions of the draw row, which are 0."""

    def __init__(self, zeros):
        self.zeros = zeros

    def standard_gamma(self, shapes, size):
        row = (np.asarray(shapes) > 0).astype(float)
        row[self.zeros] = 0.0
        return np.tile(row, (size[0], 1))


def test_zero_schmidt_value_is_dropped_below_the_floor():
    basis = build_sector_basis(catalog("fermions"), 4, 2, 2)
    # diagonals of the 1x1, 2x2 and 1x1 blocks, then their sub-diagonals
    assert basis.gamma_shapes.tolist() == [1, 2, 1, 1, 0, 1, 0, 0]
    # the 2x2 block's second diagonal and its sub-diagonal draw are 0, so
    # its tridiagonal is diag(1, 0): spectrum (1, 1, 0, 1) / 3
    out = sample_entropies(basis, _FixedGamma([2, 5]), 2)
    assert out.tolist() == pytest.approx([math.log(3.0)] * 2, rel=1e-15)
