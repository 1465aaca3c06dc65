"""The `exact` mean against an independent oracle (`oracle.py`), over
catalog cuts whose blocks pass the 2^64 short-series cut and over random
small rational models P/Q."""

import math

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from page_entropy.entropy import BipartitionSpec, exact_average
from page_entropy.local_model import LocalModel
from test_local_model_properties import SETTINGS, models


def _error(model, V, N, V_A):
    """(|exact mean - oracle mean|, oracle mean, Psi(d_N + 1)) as floats."""
    ref, psi_n = oracle.mean_entropy(model.P, model.Q, V, N, V_A)
    got = exact_average(model, BipartitionSpec(V, N, V_A))
    return float(abs(mp.mpf(got) - ref)), float(ref), float(psi_n)


@pytest.mark.parametrize("P,Q,V,N,V_A", [
    ([1, 1], [1], 100, 50, 30),    # fermions: sides up to 2^67, d_N 2^97
    ([1], [1, -1], 40, 40, 20),    # bosons: d_N ~ 2^76, sides up to 2^51
    ([1, 1, 1], [1], 30, 30, 10),  # spin-1, palindromic at 2N = V n_max
    ([1, 3, 3, 1], [1], 20, 30, 7),  # (1 + z)^3, palindromic there too
])
def test_exact_mean_within_four_ulp_of_the_oracle(P, Q, V, N, V_A):
    error, ref, _ = _error(LocalModel("fixed", P, Q), V, N, V_A)
    assert error <= 4 * math.ulp(ref)


@SETTINGS
@given(models, st.integers(1, 40), st.integers(0, 40), st.integers(0, 40))
def test_exact_mean_matches_the_oracle_on_random_models(model, V, N, V_A):
    V_A = min(V_A, V)
    try:
        error, _, psi_n = _error(model, V, N, V_A)
    except ValueError:
        return  # an empty sector, which other tests cover
    # Each block's phi is a difference of doubles of about Psi(d_N + 1),
    # so where phi is small against it (a side of one site, say) the mean
    # carries a few ulps of Psi(d_N + 1), not of itself.
    assert error <= 4 * math.ulp(psi_n)
