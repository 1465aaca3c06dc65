"""The exact sums' window: a swept cut evaluates only the blocks whose
weight d_A d_B exceeds 2^-64 of its largest, and its sums stand only under
the certificate of `entropy` that they are the sums over all its blocks,
bit for bit."""

import math
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import page_entropy.entropy as entropy
from page_entropy.dimensions import dim_fixed_n, dim_table
from page_entropy.entropy import BipartitionSpec, report
from page_entropy.errors import DomainError
from page_entropy.local_model import LocalModel, catalog
from test_local_model_properties import SETTINGS, models

METHODS = ("exact", "exact_variance")
GAPPED = LocalModel("gapped", [1, 0, 1, 1])  # P = 1 + z^2 + z^3


def sweep(model, V, N, cuts=None):
    """(exact mean, exact variance) of each cut of one request over
    `cuts` (every V_A by default)."""
    cuts = range(V + 1) if cuts is None else cuts
    reps = report(model, [BipartitionSpec(V, N, v_a) for v_a in cuts],
                  METHODS)
    return [(rep.exact_mean, rep.exact_variance) for rep in reps]


def all_blocks(monkeypatch, model, V, N, cuts=None):
    """`sweep` with a window that keeps every block from the start: the
    plain sums over all blocks."""
    with monkeypatch.context() as patch:
        patch.setattr(entropy, "_WINDOW_BITS", 10 ** 9)
        return sweep(model, V, N, cuts)


def one_pass(model, V, N, V_A):
    """(mean, variance) of one cut from all its blocks in one kernel pass,
    apart from any sweep: d_N from `dim_fixed_n`, no mirror halving."""
    blocks = [(d_a * d_b, d_a, d_b) for _, d_a, d_b in
              BipartitionSpec(V, N, V_A).blocks(model, dim_table)]
    d_n = dim_fixed_n(model, V, N)
    mean, numerator = entropy._block_sums(blocks, d_n, 0, True)
    return mean, entropy._variance_estimate(numerator, d_n)


def counting(monkeypatch, name):
    """Count the calls of entropy.<name> from now on."""
    calls = Counter()
    real = getattr(entropy, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)
    monkeypatch.setattr(entropy, name, counted)
    return calls


# (model, V, N): palindromic at 2N = V n_max, halved at V_A = V/2 only,
# halved nowhere (odd V, off half filling), and a gapped support whose
# sectors near N = 0 are empty
CATALOG_SWEEPS = (
    (catalog("fermions"), 400, 200),
    (catalog("spin_j", 1), 300, 300),
    (catalog("capped_bosons", 3), 160, 240),
    (catalog("bosons"), 300, 150),
    (catalog("fermions"), 301, 97),
    (GAPPED, 300, 400),
)


@pytest.mark.parametrize("model,V,N", CATALOG_SWEEPS)
def test_swept_window_sums_equal_the_sums_over_all_blocks(monkeypatch, model,
                                                          V, N):
    calls = counting(monkeypatch, "_phi")
    windowed = sweep(model, V, N)
    kept = calls["_phi"]
    for V_A in (1, 2, V // 3, V // 2, V - 1):
        assert windowed[V_A] == one_pass(model, V, N, V_A), V_A
    assert windowed == all_blocks(monkeypatch, model, V, N)
    assert kept < calls["_phi"] - kept  # the window did leave blocks out


@example(LocalModel("random", [1, 2, 1], [1, -1]), 400, 0.5, [1, 150, 399])
@example(LocalModel("random", [2, 0, 3], [1]), 333, 0.9, [166, 5])
@example(LocalModel("random", [1, 3, 0, 1], [1, -2]), 200, 0.2, [100])
@SETTINGS
@given(models, st.integers(60, 400), st.floats(0.05, 0.95),
       st.lists(st.integers(1, 399), min_size=1, max_size=3))
def test_window_sums_of_random_models_equal_the_sums_over_all_blocks(
        model, V, fill, cuts):
    N = round(fill * V * (model.n_max or 2))
    N -= N % model.period
    cuts = sorted({min(V_A, V - 1) for V_A in cuts} | {V // 2})
    try:
        windowed = sweep(model, V, N, cuts)
    except DomainError:
        return  # an empty sector of a gapped support
    for V_A, sums in zip(cuts, windowed):
        assert sums == one_pass(model, V, N, V_A), V_A


def test_a_fixed_three_sigma_window_moves_the_mean():
    # fermions V = 400, N = 200, V_A = 100: the 27 of its 101 blocks within
    # 3 standard deviations of N_A's mean carry all but 1.7e-3 of the
    # weight, yet their sum is off by about 9e12 ulps; a copy of the kernel
    # that keeps this window and drops the certificate fails the tests
    # above
    model, V, N, V_A = catalog("fermions"), 400, 200, 100
    blocks = BipartitionSpec(V, N, V_A).blocks(model, dim_table)
    d_n = dim_fixed_n(model, V, N)
    rho = [(n_a, d_a * d_b / d_n) for n_a, d_a, d_b in blocks]
    mean_n_a = math.fsum(r * n_a for n_a, r in rho)
    sigma = math.sqrt(math.fsum(r * (n_a - mean_n_a) ** 2 for n_a, r in rho))
    window = [(d_a * d_b, d_a, d_b) for n_a, d_a, d_b in blocks
              if abs(n_a - mean_n_a) <= 3 * sigma]
    assert len(window) == 27
    in_window = entropy._block_sums(window, d_n, 0, False)[0]
    full = sweep(model, V, N, [V_A])[0][0]
    assert full == one_pass(model, V, N, V_A)[0] == 69.29603355969337
    assert abs(in_window - full) > 1e9 * math.ulp(full)


@pytest.mark.parametrize("model,V,N", CATALOG_SWEEPS[:4])
def test_narrow_thresholds_widen_to_the_same_sums(monkeypatch, model, V, N):
    # a threshold of 2^-2 (then 2^-3, 2^-4, ...) of the largest weight fails
    # the certificate at first, so the window widens; the sums stay the same
    plain = all_blocks(monkeypatch, model, V, N)
    calls = counting(monkeypatch, "_block_terms")
    monkeypatch.setattr(entropy, "_WINDOW_BITS", 2)
    monkeypatch.setattr(entropy, "_WIDEN_BITS", 1)
    assert sweep(model, V, N) == plain
    assert calls["_block_terms"] > 2 * (V // 2)


def test_window_evaluates_under_seventy_percent_of_the_sweep_blocks(
        monkeypatch):
    # the fermion V = 400 half-filled sweep has 10200 blocks once mirrored
    # pairs are halved; its windows keep 6796 of them
    model = catalog("fermions")
    calls = counting(monkeypatch, "_phi")
    sweep(model, 400, 200)
    kept = calls["_phi"]
    all_blocks(monkeypatch, model, 400, 200)
    assert calls["_phi"] - kept == 10200
    assert kept <= 0.7 * 10200
