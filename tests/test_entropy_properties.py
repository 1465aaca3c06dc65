"""Property tests of the exact sector sums and the sampler over random
small rational models P/Q and sectors (V <= 8)."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from page_entropy.dimensions import dim_fixed_n, dim_table
from page_entropy.entropy import (BipartitionSpec, exact_average,
                                  exact_variance, report)
from page_entropy.haar_sampler import build_sector_basis, mc_average
from test_local_model_properties import models

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

# (model, V, N, V_A) with a nonempty sector (P may have gaps, e.g. 1 + z^2)
sectors = st.builds(
    lambda model, V, N, V_A: (model, V, N, min(V_A, V)), models,
    st.integers(1, 8), st.integers(0, 6), st.integers(0, 8)).filter(
        lambda s: dim_fixed_n(s[0], s[1], s[2]) > 0)


def schmidt_rank(model, V, N, V_A):
    """sum over N_A of min(d_A, d_B): the largest possible Schmidt rank."""
    table_a, table_b = dim_table(model, V_A, N), dim_table(model, V - V_A, N)
    return sum(min(table_a[k], table_b[N - k]) for k in range(N + 1))


@SETTINGS
@given(sectors)
def test_mean_is_symmetric_under_swapping_the_halves(sector):
    model, V, N, V_A = sector
    assert exact_average(model, BipartitionSpec(V, N, V_A)) == \
        exact_average(model, BipartitionSpec(V, N, V - V_A))


@SETTINGS
@given(sectors)
def test_variance_is_symmetric_under_swapping_the_halves(sector):
    # bit for bit: a page request computes only one cut of each pair
    model, V, N, V_A = sector
    est = exact_variance(model, BipartitionSpec(V, N, V_A))
    mirror = exact_variance(model, BipartitionSpec(V, N, V - V_A))
    assert est.numerator == mirror.numerator
    assert est.value == mirror.value


@SETTINGS
@given(sectors)
def test_mean_lies_between_zero_and_log_schmidt_rank(sector):
    model, V, N, V_A = sector
    mean = exact_average(model, BipartitionSpec(V, N, V_A))
    rank = schmidt_rank(model, V, N, V_A)
    assert -1e-12 <= mean <= math.log(rank) + 1e-12


@SETTINGS
@given(sectors)
def test_variance_is_nonnegative(sector):
    model, V, N, V_A = sector
    est = exact_variance(model, BipartitionSpec(V, N, V_A))
    assert est.value >= 0.0
    assert est.numerator >= -1e-12


@SETTINGS
@given(sectors, st.integers(0, 2 ** 32 - 1))
def test_sampled_mean_within_four_sigma_of_exact(sector, seed):
    model, V, N, V_A = sector
    basis = build_sector_basis(model, V, N, V_A)
    # keep each sample cheap: a few us of tridiagonal work
    assume(sum(min(blk.d_a, blk.d_b) ** 2 for blk in basis.blocks) <= 1000)
    out = mc_average(basis, 200, seed)
    ref = exact_average(model, BipartitionSpec(V, N, V_A))
    assert abs(out.mean - ref) <= 4 * out.sem + 1e-12


# (model, V, N) with a nonempty sector at an interior filling, V >= 4 so
# that every `report` column is defined
interior_sectors = st.builds(
    lambda model, V, N: (model, V, N), models, st.integers(4, 9),
    st.integers(1, 12)).filter(
        lambda s: (s[0].n_max is None or s[2] < s[1] * s[0].n_max)
        and dim_fixed_n(*s) > 0)


@SETTINGS
@given(interior_sectors)
def test_every_report_column_is_mirror_symmetric(sector):
    # bit for bit, the asymptotic columns too: each is evaluated once per
    # mirrored cut, at the fraction min(V_A, V - V_A) / V
    model, V, N = sector
    specs = [BipartitionSpec(V, N, v_a) for v_a in range(V + 1)]
    reports = report(model, specs)
    for rep, mirror in zip(reports, reversed(reports)):
        # the two cuts differ in V_A and f alone
        assert repr(rep._replace(V_A=mirror.V_A, f=mirror.f)) == repr(mirror)
        assert repr(rep) == repr(report(model, [specs[rep.V_A]])[0])
