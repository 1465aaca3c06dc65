"""Large-V mean/variance formulas and the Kronecker-delta resolutions."""

import inspect
import math
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import page_entropy
from page_entropy.entropy import (BipartitionSpec, DistinguishableTerms,
                                  Sector, asymptotic_average, asymptotic_terms,
                                  asymptotic_variance,
                                  distinguishable_asymptotic,
                                  distinguishable_exact_average,
                                  exact_average, report, resolve_x1,
                                  resolve_x2, resolved_average, x1_powerlaw,
                                  x2_powerlaw)
from page_entropy.errors import DomainError, NumericalError, checked
from page_entropy.local_model import LocalModel, catalog
from page_entropy.numerics import erfcx, exp_times_erfc
from page_entropy.saddle import (asymptotic_form, beta_family,
                                 ln_dim_asymptotic, n_star)
from test_local_model_properties import SETTINGS, models

TWO_PI = 2.0 * math.pi


def test_leading_terms_fermions_half_filling():
    m = catalog("fermions")
    t = asymptotic_terms(m, 100, 0.5, 0.5)
    ref = 50 * math.log(2) + 0.5 * (0.5 + math.log(0.5) - 1.0)
    assert abs(t.value - ref) < 1e-12
    assert abs(t.value - 34.0608) < 1e-4
    assert t.b == 0.0  # beta'(1/2) = 0 kills the sqrt(V) term
    assert t.at_half_f and t.at_n_star


def test_leading_terms_fermions_third_filling():
    m = catalog("fermions")
    t = asymptotic_terms(m, 640, 0.25, 1 / 3)
    beta_third = math.log(3) - (2 / 3) * math.log(2)
    assert abs(t.a - beta_third / 4) < 1e-12
    assert t.b == 0.0
    assert abs(t.c - 0.5 * (0.25 + math.log(0.75))) < 1e-12
    assert not t.at_half_f and not t.at_n_star
    # at f=1/2 the sqrt(V) coefficient appears
    t2 = asymptotic_terms(m, 640, 0.5, 1 / 3)
    sol = beta_family(m, 1 / 3)
    b_ref = -abs(sol.beta1) / math.sqrt(TWO_PI * abs(sol.beta2))
    assert abs(t2.b - b_ref) < 1e-12
    assert abs(b_ref + 0.13035547304580566) < 1e-12  # -ln2 / sqrt(9 pi)


def test_both_deltas_fire_at_hardcore2_peak():
    m = catalog("hardcore_bosons_2species")
    t = asymptotic_terms(m, 200, 0.5, 2 / 3)
    assert t.at_half_f and t.at_n_star
    assert t.b == 0.0
    assert abs(t.c - 0.5 * (0.5 + math.log(0.5) - 1.0)) < 1e-12


def test_fraction_normalization_and_errors():
    m = catalog("fermions")
    a = asymptotic_terms(m, 100, 0.3, 0.4)
    b = asymptotic_terms(m, 100, 0.7, 0.4)
    # 1 - 0.7 is not the float 0.3, so agreement is to rounding only
    assert abs(a.value - b.value) < 1e-12
    with pytest.raises(DomainError):
        asymptotic_terms(m, 100, 0.0, 0.4)
    with pytest.raises(DomainError):
        asymptotic_terms(m, 100, 0.5, 1.0)  # boundary filling


def test_b_and_nstar_delta_mutually_exclusive():
    # b is proportional to |beta'| which vanishes exactly where the
    # n = n* delta fires, so they can never both contribute
    m = catalog("hardcore_bosons_2species")
    for f in (0.21, 0.5, 0.37):
        for n in (0.3, 2 / 3, 0.8, 0.95):
            t = asymptotic_terms(m, 100, f, n)
            assert not (t.b != 0.0 and t.at_n_star)


def test_asymptotic_average_spec_entry():
    m = catalog("fermions")
    spec = BipartitionSpec(100, 50, 50)
    assert abs(asymptotic_average(m, spec)
               - asymptotic_terms(m, 100, 0.5, 0.5).value) < 1e-15


def test_resolved_off_critical_equals_asymptotic():
    m = catalog("fermions")
    n = 1 / 3
    r = resolved_average(m, 1e4, 0.3, n)
    a = asymptotic_terms(m, 1e4, 0.3, n).value
    assert abs(r - a) < 1e-8


def test_resolved_on_critical_f_limit():
    # at f = 1/2 with n != n*, the X1 block leaves a slowly decaying
    # residue erfcx(sqrt(|beta''*| V / 2) |n - n*|)/2; V = 1e4 sits at
    # ~1.2e-2, the sub-1e-3 regime starts around V ~ 1e8
    m = catalog("fermions")
    n = 1 / 3
    sol_star = beta_family(m, 0.5)
    for V, bound in ((1e4, None), (1e8, 1e-3)):
        r = resolved_average(m, V, 0.5, n)
        a = asymptotic_terms(m, V, 0.5, n).value
        residue = 0.5 * erfcx(
            math.sqrt(abs(sol_star.beta2) / 2) * abs(n - 0.5) * math.sqrt(V))
        assert abs(abs(r - a) - residue) < 1e-9
        if bound is not None:
            assert abs(r - a) < bound


def test_resolved_symmetric_in_f():
    m = catalog("spin_j", 1)
    for f in (0.2, 0.35, 0.45):
        lhs = resolved_average(m, 400, f, 1.2)
        rhs = resolved_average(m, 400, 1 - f, 1.2)
        assert abs(lhs - rhs) < 1e-12
    with pytest.raises(DomainError):
        resolved_average(m, 2, 0.5, 1.0)  # V >= 4 contract


def test_resolved_tracks_exact_spin1():
    m = catalog("spin_j", 1)
    V, N = 16, 24
    for v_a in range(1, 16):
        r = resolved_average(m, V, v_a / V, N / V)
        e = exact_average(m, BipartitionSpec(V, N, v_a))
        assert abs(r - e) < 0.05


@pytest.mark.parametrize("name,param", [("fermions", None), ("spin_j", 1)])
def test_resolved_curve_meets_the_exact_sums_at_rate_one_over_v(name, param):
    # inside the double-scaling windows V_A = V/2 + j sqrt(V) and
    # N = V n_max / 2 + m sqrt(V), where the three-term form misses by O(1),
    # the resolved curve's largest gap to the exact sums falls like 1/V
    model = catalog(name, param)
    worst = []
    for V in (250, 1000, 4000):
        gaps = []
        for m in (0.0, 0.5, 1.0):
            N = round(V * model.n_max / 2 + m * math.sqrt(V))
            sector = Sector(V, N, [round(V / 2 + j * math.sqrt(V))
                                   for j in (0.0, 0.25, 0.5, 1.0, 2.0)])
            gaps += [abs(rep.exact_mean - rep.resolved) for rep in
                     report(model, [sector], ("exact", "resolved"))]
        worst.append(max(gaps))
    # fermions read 2.0e-3, 5.1e-4, 1.25e-4; spin-1 9.6e-4, 2.4e-4, 5.9e-5
    assert worst[0] < 3e-3
    assert all(coarse >= 3.0 * fine for coarse, fine in zip(worst, worst[1:]))


def test_x1_bounds_and_mirror_symmetry():
    m = catalog("fermions")
    rng = random.Random(31)
    for _ in range(60):
        V = rng.uniform(10, 1e5)
        f = rng.uniform(0.05, 0.95)
        n = rng.uniform(0.05, 0.95)
        x1 = resolve_x1(m, V, f, n)
        assert 0.0 <= x1 <= 1.0 + 1e-9
        mirrored = resolve_x1(m, V, 1.0 - f, n)
        assert abs(x1 - mirrored) < 1e-12
        flipped = resolve_x1(m, V, f, 1.0 - n)  # n* = 1/2 midpoint
        assert abs(x1 - flipped) < 1e-9
    with pytest.raises(DomainError):
        resolve_x1(catalog("bosons"), 100, 0.5, 0.5)


def test_x1_peak_value_and_small_lambda_n_limit():
    m = catalog("fermions")
    # exactly on both deltas the crossover saturates and the resolved
    # correction reproduces the -1/2 of the two-delta asymptotic formula
    assert abs(resolve_x1(m, 1e6, 0.5, 0.5) - 1.0) < 1e-12
    # continuity of the analytic Lambda_n -> 0 limit
    at_zero = resolve_x1(m, 1e4, 0.48, 0.5)
    near_zero = resolve_x1(m, 1e4, 0.48, 0.5 + 1e-11)
    assert abs(at_zero - near_zero) < 1e-6
    assert abs(at_zero - math.exp(-2 * 0.02e4 * math.log(2))) < 1e-12


def test_x2_nonpositive_and_off_critical_zero():
    m = catalog("fermions")
    n = 1 / 3
    rng = random.Random(32)
    for _ in range(40):
        V = rng.uniform(10, 1e5)
        f = rng.uniform(0.05, 0.5)
        x2 = resolve_x2(m, V, f, n)
        assert x2 <= 1e-12
    assert abs(resolve_x2(m, 1e6, 0.05, n)) < 1e-300
    sol = beta_family(m, n)
    deficit = abs(sol.beta1) * math.sqrt(1e6 / (TWO_PI * abs(sol.beta2)))
    assert abs(resolve_x2(m, 1e6, 0.5, n) + deficit) < 1e-9
    with pytest.raises(NumericalError):
        resolve_x2(m, 100, 0.4, 0.5)  # beta'(n*) = 0


def test_x1_powerlaw_case_table():
    m = catalog("fermions")
    sol = beta_family(m, 0.5)
    bstar, ab2 = sol.beta, abs(sol.beta2)
    rng = random.Random(33)
    for _ in range(10):
        lf = rng.uniform(0.05, 3.0)
        ln = rng.uniform(0.05, 3.0)
        # below the critical powers
        assert x1_powerlaw(m, 0.7, 0.5, lf, ln) == 0.0
        assert x1_powerlaw(m, 1.0, 0.3, lf, ln) == 0.0
        # above both
        assert x1_powerlaw(m, 1.4, 0.8, lf, ln) == 1.0
        # edges
        got = x1_powerlaw(m, 2.0, 0.5, lf, ln)
        ref = exp_times_erfc(0.5 * ln * ln * ab2,
                             math.sqrt(0.5 * ab2) * abs(ln))
        assert abs(got - ref) < 1e-12
        got = x1_powerlaw(m, 1.0, 2.0, lf, ln)
        assert abs(got - math.exp(-2 * abs(lf) * bstar)) < 1e-12
        # the full (s=1, t=1/2) surface against a direct evaluation
        got = x1_powerlaw(m, 1.0, 0.5, lf, ln)
        u = ln * ln * ab2
        direct = 0.5 * (
            exp_times_erfc(0.5 * u + 2 * lf * bstar,
                           math.sqrt(0.5 * ab2) * (u + 2 * lf * bstar)
                           / abs(ln * ab2))
            + exp_times_erfc(0.5 * u - 2 * lf * bstar,
                             math.sqrt(0.5 * ab2) * (u - 2 * lf * bstar)
                             / abs(ln * ab2)))
        assert abs(got - direct) < 1e-10 * max(1.0, abs(direct))


def test_x1_powerlaw_matches_resolve_at_scaling():
    m = catalog("fermions")
    lf, ln = 0.8, -0.6
    for V in (1e4, 1e6):
        f = 0.5 + lf / V
        n = 0.5 + ln / math.sqrt(V)
        assert abs(resolve_x1(m, V, f, n)
                   - x1_powerlaw(m, 1.0, 0.5, lf, ln)) < 1e-9


def test_x2_powerlaw_case_table():
    m = catalog("fermions")
    n = 1 / 3
    sol = beta_family(m, n)
    beta, ab1, ab2 = sol.beta, abs(sol.beta1), abs(sol.beta2)
    rng = random.Random(34)
    for _ in range(10):
        lf = rng.uniform(-2.0, 2.0)
        V = rng.uniform(50, 1e5)
        deficit = ab1 * math.sqrt(V / (TWO_PI * ab2))
        assert x2_powerlaw(m, n, 0.3, lf, V) == 0.0
        got = x2_powerlaw(m, n, 0.5, lf, V)
        ref = math.sqrt(V) * (
            abs(lf) * beta
            * math.erfc(math.sqrt(2 * ab2) * abs(lf) * beta / ab1)
            - ab1 / math.sqrt(TWO_PI * ab2)
            * math.exp(-2 * ab2 * lf * lf * beta * beta / (ab1 * ab1)))
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))
        got = x2_powerlaw(m, n, 0.75, lf, V)
        ref = abs(lf) * V**0.25 * beta - deficit
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))
        got = x2_powerlaw(m, n, 1.7, lf, V)
        assert abs(got + deficit) < 1e-10 * max(1.0, deficit)


def test_x2_powerlaw_half_case_at_zero_offset():
    # Lambda_f = 0 at s = 1/2 reduces to the sqrt(V) delta coefficient
    m = catalog("fermions")
    n = 1 / 3
    sol = beta_family(m, n)
    V = 4e4
    got = x2_powerlaw(m, n, 0.5, 0.0, V)
    ref = -abs(sol.beta1) * math.sqrt(V / (TWO_PI * abs(sol.beta2)))
    assert abs(got - ref) < 1e-10 * abs(ref)


_FERMIONS = catalog("fermions")
_BOSONS = catalog("bosons")


# (call, error type, message)
_REFUSALS = [
    (lambda: resolve_x1(_FERMIONS, 0.5, 0.5, 0.4), DomainError,
     "resolve_x1 needs V >= 1"),
    (lambda: x2_powerlaw(_FERMIONS, 0.5, 0.5, 1.0, 100.0), NumericalError,
     "X2 is undefined at beta'(n) = 0 (n = n*)"),
    (lambda: distinguishable_asymptotic(0.5, 1.0, 0.0), DomainError,
     "distinguishable_asymptotic needs V >= 1 within the float range, "
     "got 0.5"),
    (lambda: distinguishable_asymptotic(10.0, 5.0, 11.0), DomainError,
     "V_A must lie in [0, V], got 11.0"),
    # a V that is not a number >= 1 within the float range, refused
    # before any math call
    (lambda: asymptotic_terms(_FERMIONS, -10, 0.5, 0.5), DomainError,
     "asymptotic_terms needs V >= 1 within the float range, got -10"),
    (lambda: asymptotic_terms(_FERMIONS, math.nan, 0.3, 0.4), DomainError,
     "asymptotic_terms needs V >= 1 within the float range, got nan"),
    (lambda: asymptotic_terms(_FERMIONS, math.inf, 0.3, 0.4), DomainError,
     "asymptotic_terms needs V >= 1 within the float range, got inf"),
    (lambda: asymptotic_terms(_FERMIONS, 10 ** 400, 0.3, 0.4), DomainError,
     "asymptotic_terms needs V >= 1 within the float range, got 1000"),
    (lambda: asymptotic_variance(_FERMIONS, -4, 0.3, 0.4), DomainError,
     "asymptotic_variance needs V >= 1 within the float range, got -4"),
    (lambda: asymptotic_variance(_FERMIONS, math.nan, 0.3, 0.4), DomainError,
     "asymptotic_variance needs V >= 1 within the float range, got nan"),
    (lambda: resolve_x2(_FERMIONS, -4, 0.3, 0.4), DomainError,
     "resolve_x2 needs V >= 1 within the float range, got -4"),
    (lambda: resolve_x2(_FERMIONS, math.nan, 0.3, 0.4), DomainError,
     "resolve_x2 needs V >= 1 within the float range, got nan"),
    (lambda: x2_powerlaw(_FERMIONS, 0.4, 0.5, 1.0, -4), DomainError,
     "x2_powerlaw needs V >= 1 within the float range, got -4"),
    (lambda: x2_powerlaw(_FERMIONS, 0.4, 0.5, 1.0, math.nan), DomainError,
     "x2_powerlaw needs V >= 1 within the float range, got nan"),
    (lambda: resolve_x1(_FERMIONS, math.nan, 0.3, 0.4), DomainError,
     "resolve_x1 needs V >= 1 within the float range, got nan"),
    (lambda: resolved_average(_FERMIONS, math.nan, 0.3, 0.4), DomainError,
     "resolved_average needs V >= 1 within the float range, got nan"),
    # a NaN exponent, offset, fraction or filling: every comparison with
    # the critical exponents is False, so it would fall through to a branch
    (lambda: x1_powerlaw(_FERMIONS, math.nan, 0.5, 1.0, 1.0), DomainError,
     "x1_powerlaw needs numbers, got s=nan"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, math.nan, 1.0, 1.0), DomainError,
     "x1_powerlaw needs numbers, got t=nan"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, 0.5, math.nan, 1.0), DomainError,
     "x1_powerlaw needs numbers, got lam_f=nan"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, 0.5, 1.0, math.nan), DomainError,
     "x1_powerlaw needs numbers, got lam_n=nan"),
    (lambda: x2_powerlaw(_FERMIONS, 0.3, math.nan, 1.0, 100.0), DomainError,
     "x2_powerlaw needs numbers, got s=nan"),
    (lambda: x2_powerlaw(_FERMIONS, 0.3, 0.5, math.nan, 100.0), DomainError,
     "x2_powerlaw needs numbers, got lam_f=nan"),
    (lambda: x2_powerlaw(_FERMIONS, math.nan, 0.5, 1.0, 100.0), DomainError,
     "x2_powerlaw needs numbers, got n=nan"),
    (lambda: resolve_x1(_FERMIONS, 100, math.nan, 0.3), DomainError,
     "resolve_x1 needs numbers, got f=nan"),
    (lambda: resolve_x1(_FERMIONS, 100, 0.3, math.nan), DomainError,
     "resolve_x1 needs numbers, got n=nan"),
    # an infinite argument or one beyond the float range, which the kernels
    # would turn into nan or inf
    (lambda: x1_powerlaw(_FERMIONS, 1.0, 0.5, math.inf, 1.0), DomainError,
     "x1_powerlaw needs numbers, got lam_f=inf"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, 0.5, -math.inf, 1.0), DomainError,
     "x1_powerlaw needs numbers, got lam_f=-inf"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, 0.5, 1.0, math.inf), DomainError,
     "x1_powerlaw needs numbers, got lam_n=inf"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, math.inf, 1.0, 1.0), DomainError,
     "x1_powerlaw needs numbers, got t=inf"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, 0.5, 10 ** 400, 1.0), DomainError,
     "x1_powerlaw needs numbers, got lam_f=1000"),
    (lambda: x2_powerlaw(_FERMIONS, 0.3, 0.5, math.inf, 100.0), DomainError,
     "x2_powerlaw needs numbers, got lam_f=inf"),
    (lambda: x2_powerlaw(_FERMIONS, 0.3, 0.7, math.inf, 100.0), DomainError,
     "x2_powerlaw needs numbers, got lam_f=inf"),
    (lambda: x2_powerlaw(_FERMIONS, 0.3, -math.inf, 1.0, 100.0), DomainError,
     "x2_powerlaw needs numbers, got s=-inf"),
    (lambda: resolve_x1(_FERMIONS, 100, 0.3, math.inf), DomainError,
     "resolve_x1 needs numbers, got n=inf"),
    # a fraction outside (0, 1), refused as resolve_x2 refuses it
    (lambda: resolve_x1(_FERMIONS, 100, 1.7, 0.3), DomainError,
     "subsystem fraction must lie in (0, 1), got 1.7"),
    (lambda: resolve_x1(_FERMIONS, 100, 0.0, 0.3), DomainError,
     "subsystem fraction must lie in (0, 1), got 0.0"),
    (lambda: resolve_x1(_FERMIONS, 100, 1, 0.3), DomainError,
     "subsystem fraction must lie in (0, 1), got 1.0"),
    # labeled particles: a negative or non-finite N, a V or N past the
    # float range, a non-integer size
    (lambda: distinguishable_asymptotic(10, -5, 5), DomainError,
     "N must be nonnegative, got -5"),
    (lambda: distinguishable_asymptotic(10, math.nan, 5), DomainError,
     "distinguishable_asymptotic needs numbers, got N=nan"),
    (lambda: distinguishable_asymptotic(10, math.inf, 5), DomainError,
     "distinguishable_asymptotic needs numbers, got N=inf"),
    (lambda: distinguishable_asymptotic(10 ** 400, 5, 3 * 10 ** 399),
     DomainError, "distinguishable_asymptotic needs V >= 1 within the float "
     "range, got 1000"),
    (lambda: distinguishable_exact_average(10, 5.5, 3), DomainError,
     "need integer V, N and V_A, got 10, 5.5, 3"),
    (lambda: distinguishable_exact_average(10, 5, 2.5), DomainError,
     "need integer V, N and V_A, got 10, 5, 2.5"),
    (lambda: distinguishable_exact_average(10.0, 5, 3), DomainError,
     "need integer V, N and V_A, got 10.0, 5, 3"),
    (lambda: distinguishable_exact_average(10, True, 1), DomainError,
     "need integer V, N and V_A, got 10, True, 1"),
    # a value past the float range: a math call overflows, or inf - inf
    # or 0 * inf in a kernel would make it NaN
    (lambda: asymptotic_variance(_FERMIONS, 1e206, 0.1, 0.1), DomainError,
     "the asymptotic forms overflow the float range at V=1e+206"),
    (lambda: resolved_average(_FERMIONS, 1e154, 0.5, 0.1), DomainError,
     "the asymptotic forms overflow the float range at V=1e+154"),
    (lambda: resolve_x1(_FERMIONS, 1e154, 0.5, 0.1), DomainError,
     "the asymptotic forms overflow the float range at V=1e+154"),
    (lambda: resolve_x2(_FERMIONS, 1e308, 0.5, 0.1), DomainError,
     "the asymptotic forms overflow the float range at V=1e+308"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, 0.5, 1e153, 1e153), DomainError,
     "the asymptotic forms overflow the float range at s=1.0, t=0.5, "
     "lam_f=1e+153, lam_n=1e+153"),
    (lambda: x1_powerlaw(_FERMIONS, 1.0, 0.5, 1e154, 1e154), DomainError,
     "the asymptotic forms overflow the float range at s=1.0, t=0.5, "
     "lam_f=1e+154, lam_n=1e+154"),
    (lambda: x2_powerlaw(_FERMIONS, 0.3, 0.5, 1e200, 1e300), DomainError,
     "the asymptotic forms overflow the float range at n=0.3, s=0.5, "
     "lam_f=1e+200, V=1e+300"),
    # a finite input whose product overflows to inf
    (lambda: asymptotic_terms(_BOSONS, 1.7e308, 0.5, 10.0), DomainError,
     "the asymptotic forms overflow the float range at V=1.7e+308, f=0.5, "
     "n=10.0"),
    (lambda: distinguishable_asymptotic(1.7e308, 1.7e308, 0.85e308),
     DomainError, "the asymptotic forms overflow the float range at "
     "V=1.7e+308, N=1.7e+308, V_A=8.5e+307"),
    (lambda: x2_powerlaw(_FERMIONS, 0.3, 0.7, 1e308, 1e308), DomainError,
     "the asymptotic forms overflow the float range at n=0.3, s=0.7, "
     "lam_f=1e+308, V=1e+308"),
    (lambda: ln_dim_asymptotic(_BOSONS, 1.7e308, 10.0), DomainError,
     "the asymptotic forms overflow the float range at V=1.7e+308, "
     "n=10.0"),
    # an infinite filling, which no bracket toward the radius holds, and
    # one past the float range
    (lambda: asymptotic_terms(_BOSONS, 100, 0.3, math.inf), DomainError,
     "asymptotic_terms needs numbers, got n=inf"),
    (lambda: resolved_average(_BOSONS, 100, 0.3, math.inf), DomainError,
     "resolved_average needs numbers, got n=inf"),
    (lambda: resolve_x2(_BOSONS, 100, 0.3, math.inf), DomainError,
     "resolve_x2 needs numbers, got n=inf"),
    (lambda: asymptotic_variance(_BOSONS, 100, 0.3, math.inf), DomainError,
     "asymptotic_variance needs numbers, got n=inf"),
    (lambda: ln_dim_asymptotic(_BOSONS, 100, math.inf), DomainError,
     "ln_dim_asymptotic needs numbers, got n=inf"),
    (lambda: asymptotic_terms(_FERMIONS, 100, 0.3, 10 ** 400), DomainError,
     "asymptotic_terms needs numbers, got n=1000"),
    (lambda: ln_dim_asymptotic(_FERMIONS, 100, 10 ** 400), DomainError,
     "ln_dim_asymptotic needs numbers, got n=1000"),
    (lambda: resolve_x2(_FERMIONS, 100, 0.3, 10 ** 400), DomainError,
     "resolve_x2 needs numbers, got n=1000"),
]


@pytest.mark.parametrize("call,error,message", _REFUSALS,
                         ids=[message for _, _, message in _REFUSALS])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_asymptotic_variance_values():
    m = catalog("fermions")
    n = 1 / 3
    sol = beta_family(m, n)
    got = asymptotic_variance(m, 100, 0.25, n)
    pref = (math.sqrt(TWO_PI) * sol.beta1**2 / abs(sol.beta2)**1.5
            * (0.25 * 0.75) * 100**1.5)
    ref = pref * math.exp(-sol.beta * 100)
    assert abs(got.value - ref) < 1e-12 * ref
    assert abs(got.log_value - math.log(ref)) < 1e-9
    half = asymptotic_variance(m, 100, 0.5, n)
    shape = 0.25 - 1.0 / TWO_PI
    assert abs(shape - 0.09085) < 5e-6
    assert abs(half.prefactor
               - pref / (0.25 * 0.75) * shape) < 1e-9 * half.prefactor
    # beta'(n*) = 0 kills the leading order entirely
    at_star = asymptotic_variance(m, 100, 0.25, 0.5)
    assert at_star.value == 0.0 and at_star.log_value is None


def test_distinguishable_asymptotic_terms():
    t = distinguishable_asymptotic(100, 100, 25)
    assert abs(t.c1 - 0.25) < 1e-15
    assert abs(t.c2 - 0.2157615543388171) < 1e-12  # -0.75 ln 0.75
    assert t.c3 == 0.0
    t2 = distinguishable_asymptotic(100, 100, 50)
    assert abs(t2.c3 - math.sqrt(1.0 / TWO_PI) * math.log(2)) < 1e-15
    # the trivial cuts, where one side is empty, as the exact sum gives them
    for V_A in (0, 10):
        assert distinguishable_asymptotic(10, 5, V_A) == \
            DistinguishableTerms(0.0, 0.0, 0.0, 0.0)
        assert distinguishable_exact_average(10, 5, V_A) == 0.0
    # super-extensive: the mean outgrows any volume law
    small = distinguishable_exact_average(50, 50, 25) / 50
    large = distinguishable_exact_average(400, 400, 200) / 400
    assert large > small + 0.5


_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_FRACTIONS = st.one_of(st.just(0.5), _OPEN_UNIT)
_OFFSETS = st.floats(-1e300, 1e300)
_EXPONENTS = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.0, 2.0))
# ln V, with the top of the float range drawn as often as the rest
_LOG_VOLUMES = st.one_of(st.just(709.78), st.floats(0.0, 709.78))


# the top of the float range: bosons at n = 10, where a V and V beta
# overflow; fermions at s = 0.7, where lam_f V^(1 - s) and c1 V ln V do
@example(_BOSONS, 709.78, 0.5, 0.525, 1.0, 1.0, 1.0, 0.5)
@example(_FERMIONS, 709.78, 0.3, 0.3, 1e300, 1.0, 0.7, 0.5)
@SETTINGS
@given(st.sampled_from([_FERMIONS, catalog("spin_j", 1), _BOSONS]),
       _LOG_VOLUMES, _FRACTIONS, _OPEN_UNIT, _OFFSETS, _OFFSETS,
       _EXPONENTS, _EXPONENTS)
def test_asymptotic_forms_give_numbers_or_refuse(model, log_v, f, u, lam_f,
                                                 lam_n, s, t):
    # V log-uniform in [1, 1.79e308]; an interior filling, log-uniform in
    # [1e-20, 1e20] for bosons, which have no n_max
    V = math.exp(log_v)
    n = u * model.n_max if model.n_max else 10.0 ** (40.0 * u - 20.0)
    calls = (lambda: asymptotic_terms(model, V, f, n),
             lambda: resolved_average(model, V, f, n),
             lambda: resolve_x1(model, V, f, n),
             lambda: resolve_x2(model, V, f, n),
             lambda: x1_powerlaw(model, s, t, lam_f, lam_n),
             lambda: x2_powerlaw(model, n, s, lam_f, V),
             lambda: asymptotic_variance(model, V, f, n),
             lambda: distinguishable_asymptotic(V, n * V, f * V),
             lambda: ln_dim_asymptotic(model, V, n))
    for call in calls:
        try:
            value = call()
        except (DomainError, NumericalError):
            continue
        # a record is a named tuple: its fields; a float stands alone
        fields = tuple(value) if isinstance(value, tuple) else (value,)
        assert not any(x != x for x in fields), value
        assert math.isfinite(value if isinstance(value, float)
                             else value.value), value


# the public asymptotic functions: each value a paper's large-V form
_ASYMPTOTIC_FORMS = {
    "asymptotic_terms", "resolved_average", "resolve_x1", "resolve_x2",
    "x1_powerlaw", "x2_powerlaw", "asymptotic_variance",
    "distinguishable_asymptotic", "ln_dim_asymptotic"}


def test_every_public_asymptotic_form_carries_the_one_guard():
    guard = asymptotic_form(lambda V: V).__code__
    exports = {name: getattr(page_entropy, name)
               for name in page_entropy.__all__}
    guarded = {name for name, obj in exports.items()
               if getattr(obj, "__code__", None) is guard}
    assert guarded == _ASYMPTOTIC_FORMS
    for name in guarded:
        assert exports[name].__wrapped__.__name__ == name
    # every other export that takes an int or a float carries the package's
    # argument check, but the two whose sizes go to BipartitionSpec
    check = checked(lambda: None).__code__
    takes_numbers = {
        name for name, obj in exports.items() if inspect.isfunction(obj)
        and any(str(p.annotation).removeprefix("Optional[").removesuffix("]")
                in ("int", "float")
                for p in inspect.signature(obj).parameters.values())}
    assert {name for name in takes_numbers - guarded
            if exports[name].__code__ is not check} == {
        "build_sector_basis", "distinguishable_exact_average"}


def _spread(model: LocalModel, g: int) -> LocalModel:
    """P(z^g) / Q(z^g): the model whose charges are g times those of
    `model`."""
    def spread(coeffs):
        out = [0] * (g * (len(coeffs) - 1) + 1)
        out[::g] = coeffs
        return out
    return LocalModel(f"{model.label}^{g}", spread(model.P), spread(model.Q))


@example(LocalModel("fermions", [1, 1]), 2, 0.5, 0.25)  # P = 1 + z^2
@example(LocalModel("random", [1, 2, 3], [1, -1]), 3, 0.6, 0.4)
@example(LocalModel("random", [2, 0, 1, 1], [1, -2]), 2, 0.1, 0.5)
@SETTINGS
@given(models.filter(lambda model: model.period == 1), st.sampled_from([2, 3]),
       st.floats(0.05, 0.95), st.floats(0.05, 0.5))
def test_periodic_models_carry_their_factor_g(model, g, u, f):
    # the sector g N of P(z^g)/Q(z^g) is the sector N of P/Q relabeled, so
    # with the factor g of its g saddle points alpha, ln_dim_asymptotic and
    # asym_var are those of P/Q at filling n
    periodic = _spread(model, g)
    assert periodic.period == g
    n = u * model.n_max if model.n_max else 4.0 * u
    V = 100.0
    base = beta_family(model, n)
    assert math.isclose(beta_family(periodic, g * n).alpha, base.alpha,
                        rel_tol=1e-10)
    assert math.isclose(ln_dim_asymptotic(periodic, V, g * n),
                        ln_dim_asymptotic(model, V, n), rel_tol=1e-10)
    if abs(base.beta1) > 1e-3:  # beta1^2 is accurate to 1e-10 relative
        got = asymptotic_variance(periodic, V, f, g * n)
        want = asymptotic_variance(model, V, f, n)
        assert math.isclose(got.prefactor, want.prefactor, rel_tol=1e-10)
        assert math.isclose(got.value, want.value, rel_tol=1e-10)


def _identical(x, y) -> bool:
    """x and y are the same value bit for bit: floats equal with the same
    sign (0.0 is not -0.0), records field by field, else equal."""
    if isinstance(x, tuple):
        return type(x) is type(y) and all(map(_identical, x, y))
    if isinstance(x, float):
        return (type(y) is float and x == y
                and math.copysign(1.0, x) == math.copysign(1.0, y))
    return x == y


@example(catalog("fermions"), 1, 4000, None, 0.3)  # f = 1/2 and n = n*
@example(catalog("fermions"), 1, 4000, 0.4, 0.45)
@example(catalog("spin_j", 1), 1, 300, None, 0.1)
@example(catalog("bosons"), 1, 1000, 0.25, 0.01)  # no n*, no X1
@example(catalog("bosons"), 1, 4, 0.25, 0.5)  # the smallest V
@example(LocalModel("fermions", [1, 1]), 2, 400, None, 0.25)  # P = 1 + z^2
@example(catalog("capped_bosons", 3), 2, 10 ** 6, 0.7, 0.999)
@SETTINGS
@given(models, st.sampled_from([1, 2]), st.integers(4, 10 ** 6),
       st.one_of(st.none(), st.floats(0.05, 0.95)), st.floats(0.0, 1.0))
def test_report_columns_equal_the_one_cut_functions(base, g, V, fill, cut):
    # a page curve solves its constants once for all its cuts; each cut's
    # records must still be those of the one-cut functions, bit for bit.
    # fill None takes the sector nearest n* (n* itself where V n* is a
    # multiple of g), else n = fill n_max (4 fill for unbounded models).
    model = _spread(base, g) if g > 1 else base
    star = n_star(model)
    if fill is None and star is not None:
        target = star
    elif model.n_max is not None:
        target = fill * model.n_max
    else:
        target = 4.0 * (fill or 0.5)
    N = g * round(target * V / g)
    N = max(g, N if model.n_max is None else min(N, V * model.n_max - g))
    # records whose cut lists are unsorted, hold mirrored pairs and the
    # trivial cuts 0 and V, and repeat cuts: each panel is that of its cut
    # alone, in the record's order
    cuts = [round(cut * V), 0, V - 1, V // 2, V, 1, V - V // 2,
            V - round(cut * V)]
    n = N / V
    methods = ("asymptotic", "resolved", "asymptotic_variance")
    for sector in (Sector(V, N, cuts), Sector(V, N, cuts[::-1] + cuts[:3])):
        reports = report(model, [sector], methods)
        assert [rep.V_A for rep in reports] == list(sector.cuts)
        for rep in reports:
            assert _identical(rep, report(model, [Sector(V, N, (rep.V_A,))],
                                          methods)[0])
            if rep.V_A in (0, V):
                continue
            f = min(rep.V_A, V - rep.V_A) / V
            assert _identical(rep.asymptotic,
                              asymptotic_terms(model, V, f, n))
            assert _identical(rep.resolved, resolved_average(model, V, f, n))
            assert _identical(rep.asymptotic_variance,
                              asymptotic_variance(model, V, f, n))
