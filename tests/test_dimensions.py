"""Exact sector dimensions: closed forms, convolution identity, symmetry."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import page_entropy.dimensions as dimensions
from page_entropy.dimensions import (dim_fixed_n, dim_table,
                                     extended_binomial_closed, grow_table,
                                     shrink_table)
from page_entropy.errors import DomainError
from page_entropy.local_model import (CATALOG, LocalModel, catalog,
                                      from_json, power, product)

FIVE = ("fermions", "hardcore_bosons_2species", "bosons",
        "bosons_2species_unordered", "bosons_2species_ordered")


def poly_power_oracle(coeffs, V, cap):
    """(sum a_k z^k)^V truncated at degree cap, by naive repeated products."""
    acc = [1]
    for _ in range(V):
        out = [0] * (cap + 1)
        for i, x in enumerate(acc):
            if x == 0 or i > cap:
                continue
            for j, y in enumerate(coeffs):
                if i + j > cap:
                    break
                out[i + j] += x * y
        acc = out
    return acc


def test_fermion_dims_are_binomials():
    m = catalog("fermions")
    for V in range(1, 31):
        for N in range(0, V + 1):
            assert dim_fixed_n(m, V, N) == math.comb(V, N)
    assert dim_fixed_n(m, 4, 2) == 6
    assert dim_fixed_n(m, 5, 9) == 0  # beyond V*n_max: empty, not an error
    assert dim_fixed_n(m, 5, -1) == 0


def test_dim_fixed_n_beyond_the_cap_builds_no_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built for an empty sector")

    monkeypatch.setattr(dimensions, "dim_table", no_table)
    m = catalog("fermions")
    assert dim_fixed_n(m, 6, 30000000) == 0
    assert dim_fixed_n(m, 6, 10 ** 400) == 0


def test_boson_dims_are_stars_and_bars():
    m = catalog("bosons")
    for V in range(1, 12):
        for N in range(0, 15):
            assert dim_fixed_n(m, V, N) == math.comb(N + V - 1, N)
    assert dim_fixed_n(m, 3, 2) == 6


def test_ordered_two_species_dims():
    m = catalog("bosons_2species_ordered")
    for V in range(1, 8):
        for N in range(0, 10):
            assert dim_fixed_n(m, V, N) == (2**N) * math.comb(N + V - 1, N)


def test_spin1_spot_value():
    assert dim_fixed_n(catalog("spin_j", 1), 4, 4) == 19


def test_dim_table_matches_naive_polynomial_power():
    rng = random.Random(4)
    for name in FIVE:
        m = catalog(name)
        for _ in range(4):
            V = rng.randrange(1, 10)
            cap = rng.randrange(0, 12)
            got = dim_table(m, V, cap)
            ref = poly_power_oracle(m.coefficients(cap + 1), V, cap)
            assert list(got) == ref[:cap + 1]


# P with a_0 in 1..3 and nonnegative coefficients over Q in {1, 1 - z,
# (1 - z)^2, 1 - 2z}: a_k >= 0, and P shares no root with Q.
random_models = st.builds(
    lambda low, rest, Q: LocalModel("random", [low, *rest], Q),
    st.integers(1, 3), st.lists(st.integers(0, 3), max_size=3).map(
        lambda rest: rest + [1]),
    st.sampled_from(([1], [1, -1], [1, -2, 1], [1, -2])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_models, st.integers(0, 12), st.integers(0, 30))
def test_dim_table_recurrence_matches_naive_power(model, V, cap):
    ref = poly_power_oracle(model.coefficients(cap + 1), V, cap)
    assert list(dim_table(model, V, cap)) == (ref + [0] * cap)[:cap + 1]


def test_dim_table_edges():
    m = catalog("fermions")
    assert list(dim_table(m, 3, 3)) == [1, 3, 3, 1]
    assert list(dim_table(catalog("hardcore_bosons_2species"), 2, 2)) == \
        [1, 4, 4]
    # V=1 returns the coefficient row itself
    two = catalog("spin_j", 1)
    assert list(dim_table(two, 1, 5)) == [1, 1, 1, 0, 0, 0]
    # V=0: the empty lattice has one state at N=0
    assert list(dim_table(m, 0, 2)) == [1, 0, 0]
    # truncation beyond V*n_max zero-pads
    assert list(dim_table(m, 2, 5)) == [1, 2, 1, 0, 0, 0]


# every catalog model, P/Q models with a_0 = 2, so that the exact
# division by P(0) is exercised, and deg Q = 2, and a divisor 1 - 3z,
# whose coefficient no catalog model's degree-1 P or Q has
STEP_MODELS = ([catalog(name) for name in CATALOG]
               + [catalog("spin_j", j) for j in (0.5, 1, 1.5)]
               + [catalog("capped_bosons", 3)]
               + [from_json('{"P": [2, 1], "Q": [1, -1, -1]}'),
                  from_json('{"P": [2, 3, 2], "Q": [1, 0, -1]}'),
                  from_json('{"P": [2, 0, 1]}'),
                  from_json('{"P": [2], "Q": [1, -1]}'),
                  from_json('{"P": [3, 1, 2], "Q": [1, -1]}'),
                  from_json('{"P": [1, 1], "Q": [1, -3]}')])


@pytest.mark.parametrize("model", STEP_MODELS,
                         ids=[m.label + str(m.P + m.Q) for m in STEP_MODELS])
def test_stepped_tables_equal_dim_table(model):
    # up from 0 sites to V and back down, capped as a sweep caps them
    V = 9
    for N in (0, 1, 4, 13, 30):
        def cap(sites):
            return N if model.n_max is None else min(N, sites * model.n_max)
        table = dim_table(model, 0, cap(0))
        for sites in range(1, V + 1):
            table = grow_table(model, table, cap(sites))
            assert table == list(dim_table(model, sites, cap(sites)))
        for sites in range(V - 1, -1, -1):
            table = shrink_table(model, table, cap(sites))
            assert table == list(dim_table(model, sites, cap(sites)))
    if model.n_max is not None:  # entries past the table's end count as 0
        table = dim_table(model, 3, 3 * model.n_max)
        assert grow_table(model, table, 5 * model.n_max) == \
            list(dim_table(model, 4, 5 * model.n_max))


def test_extended_binomial_matches_powering():
    for n_max in (1, 2, 3, 4):
        m = catalog("capped_bosons", n_max)
        # with N = -1 and N = V n_max + 1 outside the support, and V = 0
        for V in range(0, 31):
            for N in range(-1, V * n_max + 2):
                assert extended_binomial_closed(V, N, n_max) == \
                    dim_fixed_n(m, V, N)
    assert extended_binomial_closed(3, 3, 2) == 7
    assert extended_binomial_closed(4, 4, 2) == 19
    assert extended_binomial_closed(4, 2, 1) == 6


def test_convolution_identity_all_models():
    for name in FIVE:
        m = catalog(name)
        n_max = m.n_max if m.n_max is not None else 3  # probe window
        for V in range(2, 13):
            cap = V * n_max
            full = dim_table(m, V, cap)
            for V_A in range(0, V + 1):
                ta = dim_table(m, V_A, cap)
                tb = dim_table(m, V - V_A, cap)
                for N in range(0, cap + 1):
                    total = sum(ta[k] * tb[N - k]
                                for k in range(max(0, N - len(tb) + 1),
                                               min(N, len(ta) - 1) + 1))
                    assert total == full[N]


def test_palindromic_symmetry_spin_models():
    for j in (0.5, 1, 1.5, 2):
        m = catalog("spin_j", j)
        top = m.n_max
        for V in range(1, 12):
            row = dim_table(m, V, V * top)
            assert list(row) == list(row)[::-1]


def test_composite_model_dims():
    mixed = product([catalog("fermions"), catalog("bosons")])
    # d_N for ((1+z)/(1-z))^V: convolution of C(V,j) with C(N-j+V-1, V-1)
    for V in range(1, 6):
        for N in range(0, 8):
            ref = sum(math.comb(V, j) * math.comb(N - j + V - 1, V - 1)
                      for j in range(0, min(V, N) + 1))
            assert dim_fixed_n(mixed, V, N) == ref
    doubled = power(catalog("fermions"), 2)
    for V in range(1, 7):
        for N in range(0, 2 * V + 1):
            assert dim_fixed_n(doubled, V, N) == math.comb(2 * V, N)


# (call, message); each raises DomainError
_REFUSALS = [
    (lambda: dim_table(catalog("fermions"), -1, 2),
     "V must be nonnegative, got -1"),
    (lambda: dim_table(catalog("fermions"), 2, -1),
     "N_cap must be nonnegative, got -1"),
    (lambda: extended_binomial_closed(-1, 2, 1),
     "extended binomial needs V >= 0 and n_max >= 1"),
    (lambda: extended_binomial_closed(3, 2, 0),
     "extended binomial needs V >= 0 and n_max >= 1"),
    # a float or bool size: its table would hold floats or be wrong
    (lambda: dim_table(catalog("fermions"), 4.0, 2),
     "dim_table needs integers, got V=4.0"),
    (lambda: dim_table(catalog("fermions"), True, 2),
     "dim_table needs integers, got V=True"),
    (lambda: dim_table(catalog("fermions"), 4, 2.0),
     "dim_table needs integers, got N_cap=2.0"),
    (lambda: dim_fixed_n(catalog("fermions"), 4.5, 2),
     "dim_fixed_n needs integers, got V=4.5"),
    # checked before an empty range of N answers 0
    (lambda: dim_fixed_n(catalog("fermions"), 4.5, 10),
     "dim_fixed_n needs integers, got V=4.5"),
    (lambda: dim_fixed_n(catalog("fermions"), 4.0, -1),
     "dim_fixed_n needs integers, got V=4.0"),
    (lambda: dim_fixed_n(catalog("fermions"), True, 3),
     "dim_fixed_n needs integers, got V=True"),
    (lambda: dim_fixed_n(catalog("fermions"), 4, 2.5),
     "dim_fixed_n needs integers, got N=2.5"),
    (lambda: dim_fixed_n(catalog("fermions"), -1, 2),
     "V must be nonnegative, got -1"),
]


@pytest.mark.parametrize("call,message", _REFUSALS,
                         ids=[message for _, message in _REFUSALS])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
