"""Special-function kernels that stay accurate for huge integer arguments.

Sector dimensions in this package are exact Python integers that routinely
exceed the double range (hundreds of digits), so the log / digamma / trigamma
helpers here never convert the full integer to float.  Logs come from the
bit length plus the leading bits; digamma and trigamma switch between an
exact recurrence (small arguments) and the standard asymptotic series,
which past 64 bits is cut to its leading terms ln x and 1/x: there every
later term is below half an ulp of them, so the doubles are the full
series' bit for bit.

The scaled complementary error function `erfcx` is pure Python on top of
`math.erfc` and a continued fraction, so importing the package loads no
scipy module (scipy.special alone costs about a quarter second to import,
for a function only bounded models away from their peak filling reach).
"""

from __future__ import annotations

import math

from .errors import DomainError, checked

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015328606
_PI2_OVER_6 = math.pi * math.pi / 6.0
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# erfcx: math.erfc below this argument, the continued fraction at or above
# it (erfc itself leaves the normal double range near x = 26.55).
_ERFCX_CF_START = 26.0

# Continued-fraction depth: at x = 26 each term cuts the truncation error
# about 200-fold, and 8 terms leave 2e-23, far below one ulp (1.1e-16).
_ERFCX_CF_TERMS = 8

# exp(x^2) splits x at this grid, so that hi^2 is an exact double.
_EXP_SQUARE_GRID = 2.0 ** 20

# Arguments at or above this use the asymptotic series; below it the exact
# recurrence down to Psi(1) / Psi'(1).
_SERIES_THRESHOLD = 16

# Arguments x of more than this many bits take Psi(x) = ln x and
# Psi'(x) = 1/x.  Then 1/x <= 2^-64: the digamma terms after ln x sum to
# about 1/(2x) <= 2^-65, under half an ulp (2^-48) of ln x >= 44.3, and
# each trigamma term after 1/x is at most 2^-65 of it, under its half-ulp
# (at least 2^-54 of it); rounding to nearest returns the full series'
# doubles.  Near 54 bits the trigamma term 1/(2x^2) would start to count.
_SHORT_SERIES_BITS = 64

# 1/x is taken as 0.0 for x of more than this many bits (float(x) itself
# overflows past 1024).
_ZERO_INVERSE_BITS = 1000

# Digamma asymptotic tail: Psi(x) ~ ln x - 1/(2x) - sum B_2k / (2k x^2k).
# Coefficients of x^{-2}, x^{-4}, ... ; truncation error < 1e-15 at x >= 17.
_DIGAMMA_TAIL = (-1.0 / 12.0, 1.0 / 120.0, -1.0 / 252.0, 1.0 / 240.0,
                 -1.0 / 132.0)

# Trigamma asymptotic tail: Psi'(x) ~ 1/x + 1/(2x^2) + sum B_2k x^{-2k-1}.
# Coefficients of x^{-3}, x^{-5}, ... ; truncation error < 1e-15 at x >= 17.
_TRIGAMMA_TAIL = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
                  5.0 / 66.0)


@checked
def ln_big(d: int) -> float:
    """Natural log of a positive integer of any size.

    Uses the bit length and the leading 96 bits only, so the value never
    goes through a lossy full-integer float conversion.  Relative error
    is a few ulp (< 1e-14) regardless of magnitude."""
    if d < 1:
        raise DomainError(f"ln_big needs a positive dimension, got {d}")
    return _ln_positive(d)


def _ln_positive(d: int) -> float:
    """`ln_big` of an int already known to be positive."""
    bits = d.bit_length()
    if bits <= 96:
        return math.log(d)
    shift = bits - 96
    return math.log(d >> shift) + shift * _LN2


@checked
def digamma_of_dim(d: int) -> float:
    """Psi(d + 1) for a nonnegative integer dimension d of any size.

    Exact harmonic recurrence for d < 16, asymptotic series at x = d + 1
    otherwise; absolute error < 1e-12 everywhere (far smaller in practice)."""
    return polygamma_of_dim(d)[0]


@checked
def trigamma_of_dim(d: int) -> float:
    """Psi'(d + 1) for a nonnegative integer dimension d of any size.

    Exact recurrence for d < 16, asymptotic series otherwise; absolute
    error < 1e-12.  Underflows smoothly to 0 for astronomically large d."""
    return polygamma_of_dim(d)[1]


def polygamma_of_dim(d: int) -> tuple[float, float]:
    """(Psi(d + 1), Psi'(d + 1)) for a nonnegative int d of any size, as
    `digamma_of_dim` and `trigamma_of_dim` give them, from one pass: the
    exact recurrences for d < 16, else one ln_big and one 1/(d + 1) shared
    by the two asymptotic series (cut short past 64 bits, see
    `_SHORT_SERIES_BITS`).  A negative d is refused (DomainError); its type
    is not checked."""
    if d < _SERIES_THRESHOLD:
        if d < 0:
            raise DomainError(f"Psi(d + 1) needs a dimension d >= 0, got {d}")
        # Psi(d+1) = -gamma + H_d, summed smallest-first; likewise Psi'
        psi = 0.0
        trigamma = 0.0
        for k in range(d, 0, -1):
            psi += 1.0 / k
            trigamma -= 1.0 / (k * k)
        return psi - _EULER_GAMMA, trigamma + _PI2_OVER_6
    x = d + 1
    log_x = _ln_positive(x)
    bits = x.bit_length()
    if bits > _SHORT_SERIES_BITS:
        return log_x, 1.0 / float(x) if bits <= _ZERO_INVERSE_BITS else 0.0
    inv = 1.0 / float(x)
    inv2 = inv * inv
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    trigamma = inv + 0.5 * inv2
    power = inv * inv2
    for coeff in _TRIGAMMA_TAIL:
        trigamma += coeff * power
        power *= inv2
    return log_x - 0.5 * inv + tail, trigamma


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x).

    Used wherever exp(A) * erfc(B) would overflow before the product tames.
    Three branches:

    - 0 <= x < 26: exp(x^2) * math.erfc(x), with exp(x^2) from `_exp_square`
      so that the rounding of x^2, which exp would magnify x^2-fold (to
      7e-14 relative at x = 26), does not reach the result;
    - x >= 26: the continued fraction 1/sqrt(pi) / (x + (1/2)/(x + (2/2)/
      (x + (3/2)/(x + ...)))) (Abramowitz & Stegun 7.1.14), 8 terms,
      evaluated backward;
    - x < 0: 2 exp(x^2) - erfcx(-x), which is inf once exp(x^2) overflows
      (x below about -26.6), as for scipy.special.erfcx; nan gives nan.

    Relative error against 40-digit mpmath is 5.6e-16 at most on 32k grid
    points over [-5, 1e8], where scipy.special.erfcx reaches 1.9e-15.
    """
    x = float(x)
    if x >= _ERFCX_CF_START:
        denominator = x
        for k in range(_ERFCX_CF_TERMS, 0, -1):
            denominator = x + 0.5 * k / denominator
        return _INV_SQRT_PI / denominator
    if x >= 0.0:
        return _exp_square(x) * math.erfc(x)
    if x < 0.0:
        return 2.0 * _exp_square(-x) - erfcx(-x)
    return x  # nan


def _exp_square(x: float) -> float:
    """exp(x^2) for x >= 0, inf on overflow.

    x = hi + lo with hi on a 2^-20 grid, so hi^2 is exact for x < 64 (past
    26.7 exp overflows anyway) and x^2 = hi^2 + lo (hi + x) enters exp
    without the rounding of x * x.
    """
    try:
        hi = math.floor(x * _EXP_SQUARE_GRID) / _EXP_SQUARE_GRID
        return math.exp(hi * hi) * math.exp((x - hi) * (hi + x))
    except OverflowError:
        return math.inf


def exp_times_erfc(a: float, b: float) -> float:
    """exp(a) * erfc(b) without intermediate overflow.

    Finite whenever the true product is; relies on erfcx for b >= 0 and on
    the reflection erfc(b) = 2 - erfc(-b) otherwise.
    """
    if b >= 0.0:
        ex = a - b * b
        if ex < -745.0:
            return 0.0
        return erfcx(b) * math.exp(ex)
    # erfc(b) in (1, 2), so the product overflows only if exp(a) does.
    if a > 709.0:
        return math.inf
    return 2.0 * math.exp(a) - erfcx(-b) * math.exp(a - b * b)

