"""Special-function kernels against high-precision references."""

import math
import random

import mpmath as mp
import pytest

from page_entropy.errors import DomainError
from page_entropy.numerics import (digamma_of_dim, erfcx, exp_times_erfc,
                                   ln_big, polygamma_of_dim, trigamma_of_dim)

mp.mp.dps = 50


def test_ln_big_small_values():
    assert ln_big(1) == 0.0
    assert abs(ln_big(1024) - 10 * math.log(2)) < 1e-14
    assert abs(ln_big(7) - math.log(7)) < 1e-15


def test_ln_big_binomial_against_lgamma():
    d = math.comb(200, 100)
    ref = math.lgamma(201) - 2 * math.lgamma(101)
    assert abs(ln_big(d) - ref) < 1e-12 * abs(ref)


def test_ln_big_huge_relative_error():
    rng = random.Random(7)
    for _ in range(50):
        bits = rng.randrange(100, 4000)
        d = rng.getrandbits(bits) | (1 << bits)
        ref = float(mp.log(d))
        assert abs(ln_big(d) - ref) <= 1e-14 * abs(ref)


def test_ln_big_product_rule():
    rng = random.Random(11)
    for _ in range(30):
        a = rng.getrandbits(1000) | (1 << 1000)
        b = rng.getrandbits(1000) | (1 << 1000)
        lhs = ln_big(a * b)
        rhs = ln_big(a) + ln_big(b)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_ln_big_rejects_zero():
    with pytest.raises(DomainError):
        ln_big(0)


def test_digamma_known_values():
    gamma = 0.5772156649015329
    assert abs(digamma_of_dim(0) + gamma) < 1e-15
    assert abs(digamma_of_dim(1) - (1 - gamma)) < 1e-15
    # Psi(71) for the half-filled V=8 fermion sector dimension
    assert abs(digamma_of_dim(70) - float(mp.digamma(71))) < 1e-12


def test_digamma_across_branch_and_huge():
    huge = [2**64 - 2, 2**64 - 1, 2**64, 10**20, 2**80 + 7, 10**30]
    for d in list(range(0, 40)) + [10**6, 10**12] + huge:
        ref = float(mp.digamma(d + 1))
        assert abs(digamma_of_dim(d) - ref) < 1e-12
    # beyond floats: compare against ln d (they agree to O(1/d))
    d = 1 << 400
    assert abs(digamma_of_dim(d) - ln_big(d)) < 1e-100


def _full_series(d: int) -> tuple[float, float]:
    """(Psi(d + 1), Psi'(d + 1)) for d >= 16 from every term of the two
    asymptotic series, with 1/x = 0.0 past 1000 bits."""
    x = d + 1
    log_x = ln_big(x)
    inv = 0.0 if x.bit_length() > 1000 else 1.0 / float(x)
    if inv == 0.0:
        return log_x, 0.0
    inv2 = inv * inv
    tail = 0.0
    power = inv2
    for coeff in (-1.0 / 12.0, 1.0 / 120.0, -1.0 / 252.0, 1.0 / 240.0,
                  -1.0 / 132.0):
        tail += coeff * power
        power *= inv2
    trigamma = inv + 0.5 * inv2
    power = inv * inv2
    for coeff in (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
                  5.0 / 66.0):
        trigamma += coeff * power
        power *= inv2
    return log_x - 0.5 * inv + tail, trigamma


def test_polygamma_short_series_is_bit_identical_to_full_series():
    # past 64 bits only ln x and 1/x are summed; the powers of two from
    # 2^5 up bracket that cut from both sides, and the 1000-bit one
    points = [2**64 + k for k in range(-3, 4)]
    for k in range(5, 1011):
        points += [2**k - 1, 2**k, 2**k + 1]
    rng = random.Random(19)
    for _ in range(200):
        bits = rng.randrange(60, 1101)
        points.append(rng.getrandbits(bits) | (1 << (bits - 1)))
    for d in points:
        got, want = polygamma_of_dim(d), _full_series(d)
        assert [v.hex() for v in got] == [v.hex() for v in want], d


def test_digamma_recurrence_property():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randrange(1, 100)
        lhs = digamma_of_dim(d) - digamma_of_dim(d - 1)
        assert abs(lhs - 1.0 / d) < 1e-12
    for _ in range(10):
        d = rng.getrandbits(200) | (1 << 200)
        lhs = digamma_of_dim(d) - digamma_of_dim(d - 1)
        assert abs(lhs - 0.0) < 1e-50  # 1/d below resolution there


def test_trigamma_known_values():
    pi26 = math.pi**2 / 6
    assert abs(trigamma_of_dim(0) - pi26) < 1e-15
    assert abs(trigamma_of_dim(1) - (pi26 - 1.0)) < 1e-15
    assert abs(trigamma_of_dim(2) - (pi26 - 1.25)) < 1e-15
    for d in list(range(0, 40)) + [10**5, 10**10]:
        ref = float(mp.polygamma(1, d + 1))
        assert abs(trigamma_of_dim(d) - ref) < 1e-12
    assert trigamma_of_dim(2 ** 1100) == 0.0  # 1 / d underflows a double


def test_erfc_reference_points():
    # the resolved kernels rely on math.erfc saturating to exactly 0 and 2
    assert math.erfc(0.0) == 1.0
    assert abs(math.erfc(1.0) - 0.15729920705028513) < 1e-15
    assert math.erfc(28.0) == 0.0
    assert math.erfc(30.0) == 0.0
    assert math.erfc(35.0) == 0.0
    assert math.erfc(-30.0) == 2.0


def test_erfc_reflection():
    rng = random.Random(5)
    for _ in range(100):
        x = rng.uniform(-8, 8)
        assert abs(math.erfc(x) + math.erfc(-x) - 2.0) < 1e-13


def test_erfcx_matches_scaled_erfc():
    for x in (0.0, 0.5, 1.0, 3.0, 10.0, 50.0, 1e4):
        ref = float(mp.exp(x * x) * mp.erfc(x))
        assert abs(erfcx(x) - ref) < 1e-13 * abs(ref)


def test_exp_times_erfc_moderate():
    rng = random.Random(9)
    for _ in range(80):
        a = rng.uniform(-20, 20)
        b = rng.uniform(-5, 5)
        ref = float(mp.exp(a) * mp.erfc(b))
        got = exp_times_erfc(a, b)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_exp_times_erfc_extreme_no_overflow():
    # exp(a) alone overflows, the product does not
    got = exp_times_erfc(1e6, 1000.0)
    ref = float(mp.exp(mp.mpf(1e6)) * mp.erfc(mp.mpf(1000.0)))
    assert math.isfinite(got)
    assert abs(got - ref) < 1e-10 * abs(ref)
    assert exp_times_erfc(1e6, 1100.0) == 0.0  # product underflows cleanly
    # underflow side returns a clean zero
    assert exp_times_erfc(-800.0, 5.0) == 0.0
    # overflow side: exp(800) erfc(-1) is beyond a double
    assert exp_times_erfc(800.0, -1.0) == math.inf
    # negative b never cancels badly: erfc(-b) is in (1, 2)
    got2 = exp_times_erfc(3.0, -2.0)
    ref2 = float(mp.exp(3) * mp.erfc(-2))
    assert abs(got2 - ref2) < 1e-12 * ref2


def _erfcx_grid():
    """Dense fixed grid plus seeded jitter: [0, 1], both sides of the
    continued-fraction switch at x = 26, log-spaced up to 1e8, and x < 0."""
    grid = [k / 256 for k in range(257)]
    grid += [25.0 + k / 256 for k in range(513)]
    grid += [10 ** (k / 40) for k in range(321)]  # 1 .. 1e8
    grid += [-k / 16 for k in range(1, 427)]  # -1/16 .. -26.625
    rng = random.Random(26)
    grid += [rng.uniform(25.9, 26.1) for _ in range(200)]
    grid += [rng.uniform(-5.0, 40.0) for _ in range(300)]
    return grid


def test_erfcx_against_mpmath_dense_grid():
    worst = 0.0
    for x in _erfcx_grid():
        ref = mp.exp(mp.mpf(x) ** 2) * mp.erfc(mp.mpf(x))
        worst = max(worst, float(abs((erfcx(x) - ref) / ref)))
    assert worst < 2e-15
    assert erfcx(-30.0) == math.inf  # exp(900) overflows; no OverflowError
    assert erfcx(-math.inf) == math.inf and erfcx(math.inf) == 0.0
    assert math.isnan(erfcx(math.nan))


def test_erfcx_matches_scipy():
    from scipy.special import erfcx as scipy_erfcx  # the former kernel
    for x in _erfcx_grid() + [-26.7, -30.0, 1e300]:
        ref = float(scipy_erfcx(x))
        if math.isinf(ref):
            assert erfcx(x) == ref
        else:
            assert abs(erfcx(x) - ref) <= 4e-15 * ref


def test_dimension_checks_refuse_what_they_refused_before():
    class Dim(int):
        pass

    for kernel in (digamma_of_dim, trigamma_of_dim, ln_big):
        for bad in (True, False, -1, -(2 ** 70), 3.0, "3", None, Dim(-2)):
            with pytest.raises(DomainError):
                kernel(bad)
        # an int subclass is refused, as `errors.checked` refuses it
        with pytest.raises(DomainError, match="needs integers, got d=5"):
            kernel(Dim(5))
