"""Saddle family beta(n): closed forms, high-precision oracle, boundaries."""

import math
import random
import re

import mpmath as mp
import pytest

from page_entropy import saddle
from page_entropy.dimensions import dim_fixed_n
from page_entropy.errors import DomainError, NumericalError
from page_entropy.local_model import (catalog, eval_zeta, parse_model,
                                      product)
from page_entropy.numerics import ln_big
from page_entropy.saddle import (beta_family, ln_dim_asymptotic, n_star,
                                 solve_z0)

mp.mp.dps = 40


# published closed forms for the five spinless examples
def beta_fermions(n):
    return (n - 1) * math.log(1 - n) - n * math.log(n)


def beta_hardcore2(n):
    return beta_fermions(n) + n * math.log(2)


def beta_bosons(n):
    return (n + 1) * math.log(1 + n) - n * math.log(n)


def beta_unordered2(n):
    return (n + 2) * math.log(2 + n) - n * math.log(n) - math.log(4)


def beta_ordered2(n):
    return beta_bosons(n) + n * math.log(2)


CLOSED = {
    "fermions": (beta_fermions, lambda n: n / (1 - n), 0.5),
    "hardcore_bosons_2species": (beta_hardcore2,
                                 lambda n: n / (2 * (1 - n)), 2 / 3),
    "bosons": (beta_bosons, lambda n: n / (1 + n), None),
    "bosons_2species_unordered": (beta_unordered2,
                                  lambda n: n / (2 + n), None),
    "bosons_2species_ordered": (beta_ordered2,
                                lambda n: n / (2 * (1 + n)), None),
}


def mp_zeta(model, z, terms=600):
    """High-precision (zeta, zeta') straight from the coefficients."""
    top = model.n_max + 1 if model.n_max is not None else terms
    s0 = s1 = mp.mpf(0)
    power, lower = mp.mpf(1), mp.mpf(0)  # z**k and z**(k - 1)
    for k, a in enumerate(model.coefficients(top)):
        if a:
            s0 += a * power
            s1 += a * k * lower
        power, lower = power * z, power
    return s0, s1


def mp_saddle(model, n):
    """Independent oracle: root-find z0 and differentiate beta numerically."""
    n = mp.mpf(n)

    def beta_of(nn):
        def bal(z):
            s0, s1 = mp_zeta(model, z)
            return z * s1 / s0 - nn

        lo = mp.mpf("1e-12")
        hi = (mp.mpf(2) if model.n_max is not None
              else mp.mpf(model.radius) / 2)
        while bal(hi) < 0:
            hi = (hi * 4 if model.n_max is not None
                  else hi + (mp.mpf(model.radius) - hi) / 2)
        zz = mp.findroot(bal, (lo, hi), solver="anderson", tol=1e-35)
        s0, _ = mp_zeta(model, zz)
        return zz, mp.log(s0) - nn * mp.log(zz)

    h = mp.mpf("1e-6")
    z0, b = beta_of(n)
    _, b_hi = beta_of(n + h)
    _, b_lo = beta_of(n - h)
    b1 = (b_hi - b_lo) / (2 * h)
    b2 = (b_hi - 2 * b + b_lo) / (h * h)
    return float(z0), float(b), float(b1), float(b2)


def test_closed_form_table_fifty_point_grids():
    for name, (beta_fn, z0_fn, star) in CLOSED.items():
        model = catalog(name)
        top = 1.0 if model.n_max is not None else 3.0
        for i in range(1, 51):
            n = i / 51 * top
            sol = beta_family(model, n)
            assert abs(sol.beta - beta_fn(n)) < 1e-10
            assert abs(sol.z0 - z0_fn(n)) < 1e-10 * max(1.0, z0_fn(n))
        got = n_star(model)
        if star is None:
            assert got is None
        else:
            assert abs(got - star) < 1e-14


def test_derivatives_against_numerical_oracle():
    rng = random.Random(6)
    models = [catalog(name) for name in CLOSED]
    models.append(catalog("spin_j", 2))
    models.append(catalog("capped_bosons", 3))
    for model in models:
        top = float(model.n_max) if model.n_max is not None else 2.5
        for _ in range(6):
            n = rng.uniform(0.08, 0.92) * top
            z0, b, b1, b2 = mp_saddle(model, n)
            sol = beta_family(model, n)
            assert abs(sol.z0 - z0) < 1e-9 * max(1.0, abs(z0))
            assert abs(sol.beta - b) < 1e-10
            assert abs(sol.beta1 - b1) < 1e-7 * max(1.0, abs(b1))
            assert abs(sol.beta2 - b2) < 1e-4 * max(1.0, abs(b2))


def test_beta1_is_minus_log_z0():
    model = catalog("spin_j", 1.5)
    for n in (0.3, 1.0, 2.2, 2.9):
        sol = beta_family(model, n)
        assert abs(sol.beta1 + math.log(sol.z0)) < 1e-12


def test_alpha_beta2_relation():
    for name in CLOSED:
        model = catalog(name)
        top = 1.0 if model.n_max is not None else 2.0
        for n in (0.2 * top, 0.5 * top, 0.8 * top):
            sol = beta_family(model, n)
            assert sol.beta2 < 0  # concavity
            assert abs(sol.alpha - math.sqrt(-sol.beta2 / (2 * math.pi))) \
                < 1e-13


def test_boundary_snap():
    m = catalog("hardcore_bosons_2species")
    low = beta_family(m, 0.0)
    assert low.at_boundary and low.beta == 0.0 and low.z0 == 0.0
    assert low.beta1 == math.inf
    high = beta_family(m, 1.0)
    assert high.at_boundary
    assert abs(high.beta - math.log(2)) < 1e-15  # ln a_{n_max}
    assert high.beta1 == -math.inf
    near = beta_family(m, 1e-10)  # inside the snap tolerance
    assert near.at_boundary
    with pytest.raises(DomainError):
        solve_z0(m, 0.0)
    with pytest.raises(DomainError):
        beta_family(m, 1.5)
    with pytest.raises(DomainError):
        beta_family(m, -0.2)


@pytest.mark.parametrize("solve, name, n, message", [
    # the texts below and above the support stay
    (beta_family, "fermions", -0.2, "filling must be positive, got n=-0.2"),
    (beta_family, "fermions", 1.5, "filling n=1.5 is not below n_max=1"),
    (solve_z0, "fermions", 0.0, "filling must be positive, got n=0.0"),
    # no bracket toward the radius holds an infinite filling, and float()
    # overflows on an int past the float range
    (beta_family, "bosons", math.inf, "beta_family needs numbers, got n=inf"),
    (solve_z0, "bosons", math.inf, "solve_z0 needs numbers, got n=inf"),
    (beta_family, "fermions", 10 ** 400, "beta_family needs numbers, "
     "got n=1000"),
    (solve_z0, "bosons", 10 ** 400, "solve_z0 needs numbers, got n=1000"),
    (beta_family, "bosons", math.nan, "beta_family needs numbers, got n=nan"),
])
def test_fillings_off_the_support_are_refused(solve, name, n, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        solve(catalog(name), n)


@pytest.mark.parametrize("name, n, probes, message", [
    # a failing walk probes k = 0 .. limit (here 3), after the lower
    # walk's successful probes: z(1) = n* for spin-1, z(r / 2) = 1 for bosons
    ("spin_j:1", 1e-8, [1.0, 4.0 ** -1, 4.0 ** -2, 4.0 ** -3], "toward z = 0"),
    ("spin_j:1", 2.0 - 1e-6, [1.0, 1.0, 4.0, 16.0, 64.0], "toward z = inf"),
    ("bosons", 1e-8, [0.5, 0.125, 0.03125, 0.0078125], "toward z = 0"),
    ("bosons", 1e6, [0.5, 0.75, 0.9375, 0.984375, 0.99609375],
     "toward the radius"),
])
def test_bracket_walk_stops_at_its_limit(monkeypatch, name, n, probes,
                                         message):
    calls = []

    def counted(model, z):
        calls.append(z)
        return eval_zeta(model, z)
    monkeypatch.setattr(saddle, "_MAX_EXPANSIONS", 3)
    monkeypatch.setattr(saddle, "eval_zeta", counted)
    with pytest.raises(NumericalError, match=f"bracketing failed {message}"):
        solve_z0(parse_model(name), n)
    assert calls == probes


@pytest.mark.parametrize("name, n", [("bosons", 1e16),
                                     ("bosons_2species_ordered", 1e17)])
def test_bracket_walk_refuses_a_filling_beyond_the_radius_grid(name, n):
    # z0 lies closer to the radius than the spacing of doubles there, so
    # the probe r - (r/4) 4^-k rounds to r before it brackets n
    with pytest.raises(NumericalError,
                       match=re.escape(f"toward the radius at n={n}")):
        solve_z0(catalog(name), n)
    # a filling 100 times smaller still solves
    assert beta_family(catalog(name), n / 100).z0 < catalog(name).radius


def test_nstar_values_and_maximum():
    assert abs(n_star(catalog("spin_j", 2)) - 2.0) < 1e-12
    model = catalog("spin_j", 2)
    peak = beta_family(model, 2.0)
    assert abs(peak.beta - math.log(5)) < 1e-12
    assert abs(peak.beta1) < 1e-12
    # interior maximum: beta below peak on either side
    assert beta_family(model, 1.7).beta < peak.beta
    assert beta_family(model, 2.3).beta < peak.beta
    assert n_star(catalog("bosons")) is None


def test_spot_betas():
    assert abs(beta_family(catalog("bosons"), 1.0).beta
               - math.log(4)) < 1e-12
    assert abs(beta_family(catalog("capped_bosons", 3), 1.0).beta
               - 1.284) < 1e-3
    spin1 = catalog("spin_j", 1)
    assert abs(beta_family(spin1, 1.0).beta - math.log(3)) < 1e-12


def test_mixed_fermion_boson_closed_form():
    # one fermion species plus one boson species per site
    mixed = product([catalog("fermions"), catalog("bosons")])
    for n in (0.2, 0.7, 1.3, 2.6):
        ref = math.asinh(n) - n * math.log((math.sqrt(1 + n * n) - 1) / n)
        assert abs(beta_family(mixed, n).beta - ref) < 1e-10


def test_power_rule_beta_scaling():
    # m species per site: beta_m(n) = m * beta(n/m)
    from page_entropy.local_model import power
    base = catalog("fermions")
    doubled = power(base, 2)
    for n in (0.3, 0.9, 1.4):
        lhs = beta_family(doubled, n).beta
        rhs = 2.0 * beta_family(base, n / 2.0).beta
        assert abs(lhs - rhs) < 1e-10


def test_saddle_balance_monotone_in_n():
    # z0(n) strictly increasing (Appendix A monotonicity, checked numerically)
    for name in CLOSED:
        model = catalog(name)
        top = 1.0 if model.n_max is not None else 2.5
        grid = [i / 21 * top for i in range(1, 21)]
        z = [beta_family(model, n).z0 for n in grid]
        assert all(a < b for a, b in zip(z, z[1:]))


def test_ln_dim_asymptotic_converges():
    m = catalog("fermions")
    errs = []
    for V in range(60, 601, 60):
        N = V // 3
        exact = ln_big(dim_fixed_n(m, V, N))
        approx = ln_dim_asymptotic(m, V, N / V)
        errs.append(abs(exact - approx))
    assert errs[-1] < 5e-3
    assert all(a > b for a, b in zip(errs, errs[1:]))
    with pytest.raises(DomainError):
        ln_dim_asymptotic(m, 100, 0.0)
    for V, got in ((0, "0"), (math.nan, "nan"), (math.inf, "inf"),
                   (10 ** 400, "1000")):
        with pytest.raises(DomainError, match="ln_dim_asymptotic needs V >= 1 "
                           f"within the float range, got {got}"):
            ln_dim_asymptotic(m, V, 0.3)
