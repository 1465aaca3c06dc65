"""Property tests over random small rational models P/Q."""

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from page_entropy.dimensions import dim_table
from page_entropy.local_model import LocalModel, eval_zeta, from_json

# Q of the catalog: finite, bosons, two unordered / two ordered species.
CATALOG_Q = ([1], [1, -1], [1, -2, 1], [1, -2])

# P >= 0 coefficientwise with P(0) >= 1 and a nonzero top coefficient, so
# P/Q has a_k >= 0 and P shares no root with any catalog Q.
polys = st.builds(lambda low, mid, top: [low, *mid, top],
                  st.integers(1, 3), st.lists(st.integers(0, 3), max_size=2),
                  st.integers(1, 3))
models = st.builds(lambda P, Q: LocalModel("random", P, Q), polys,
                   st.sampled_from(CATALOG_Q))

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def poly_at(coeffs, z):
    return sum(c * z ** k for k, c in enumerate(coeffs))


@SETTINGS
@given(polys, st.integers(1, 6))
def test_sector_dimensions_sum_to_zeta_one_power(P, V):
    model = LocalModel("finite", P)
    assert sum(dim_table(model, V, V * model.n_max)) == poly_at(P, 1) ** V


@SETTINGS
@given(models)
def test_json_round_trip(model):
    assert from_json(model.to_json()).coefficients(40) == \
        model.coefficients(40)


def series_oracle(model, z):
    """(zeta, zeta', zeta'') summed term by term in mpmath until the tail
    is below 1e-20 relative (z at most 0.9 of the radius)."""
    with mp.workdps(25):
        zm, zk = mp.mpf(z), mp.mpf(1)
        s0 = s1 = s2 = mp.mpf(0)
        for k in range(2000):
            term = model.coefficient(k) * zk
            s0, s1, s2 = s0 + term, s1 + k * term, s2 + k * (k - 1) * term
            if k > 8 and (k * k + 1) * term < 1e-20 * s0:
                break
            zk *= zm
        return float(s0), float(s1 / zm), float(s2 / zm ** 2)


@SETTINGS
@given(models, st.floats(0.01, 1.0))
def test_eval_zeta_matches_mpmath_series(model, frac):
    z = frac * 0.9 * min(model.radius, 2.0)
    for got, want in zip(eval_zeta(model, z), series_oracle(model, z)):
        assert abs(got - want) <= 1e-12 * abs(want)
