"""Typical entanglement entropy of a bipartite number-conserving sector.

Exact finite-size averages and variances are sums over the subsystem
particle number N_A: the state counts d_A, d_B, d_N are exact integers, the
weight of a block is rho = d_A d_B / d_N, and the block mean is

    phi = Psi(d_N + 1) - Psi(max(d_A, d_B) + 1)
          - min((d_A - 1) / (2 d_B), (d_B - 1) / (2 d_A)).

Large-V asymptotics use the saddle family beta(n): the mean grows like
beta(n) f V with an O(sqrt(V)) deficit exactly at f = 1/2 and O(1) terms
that jump at f = 1/2 and at the peak filling n*.  The "resolved" average
replaces those Kronecker-delta jumps by their finite-V erfc crossovers, so
a single formula covers the whole page curve.

Dimension ratios are computed by exact big-integer true division (correctly
rounded at any magnitude); logs enter only where a value itself underflows,
e.g. the 1/(d_N + 1) variance prefactor, which is why variance results
carry a log-value side channel.

A request over many cuts of one sector (a page curve) is one `report`
call, which solves each shared quantity once: the exact sums of the cuts
V_A and V - V_A, which are the same bit for bit (the block kernels are
symmetric in d_A, d_B and `math.fsum` is correctly rounded, so block order
cannot matter), and the saddle solutions at n and n*, which depend on the
filling alone.  Within a cut, Psi(d_N + 1) and (d_N + 1) Psi'(d_N + 1) are
computed once, not once per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import erfc
from typing import Optional

from .dimensions import dim_table, distinguishable_dim
from .errors import DomainError, InfeasibleSizeError, NumericalError
from .local_model import LocalModel
from .numerics import (digamma_of_dim, exp_times_erfc, ln_big,
                       trigamma_of_dim)
from .saddle import beta_family, n_star

# |f - 1/2| or |n - n*| below this counts as exactly on the special point.
KRONECKER_TOL = 1e-12

# Exact sums stay practical up to roughly this many sites.
_EXACT_V_LIMIT = 4000

# Exact sums of one request estimated above this many seconds (see
# `exact_work_seconds`) are refused before any table is built.
EXACT_WORK_BUDGET_S = 60.0

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BipartitionSpec:
    """A contiguous bipartition of a fixed-N sector: V sites, V_A of them in A."""
    V: int
    N: int
    V_A: int

    def __post_init__(self):
        if self.V < 1:
            raise DomainError(f"V must be >= 1, got {self.V}")
        if not 0 <= self.V_A <= self.V:
            raise DomainError(f"V_A must lie in [0, V], got {self.V_A}")
        if self.N < 0:
            raise DomainError(f"N must be nonnegative, got {self.N}")

    @property
    def n(self) -> float:
        return self.N / self.V

    @property
    def f(self) -> float:
        return self.V_A / self.V

    def n_a_range(self, n_max: Optional[int]) -> range:
        """All N_A with nonempty blocks on both sides of the cut."""
        if n_max is None:
            lo = 0 if self.V_A < self.V else self.N
            hi = self.N if self.V_A > 0 else 0
        else:
            lo = max(0, self.N - (self.V - self.V_A) * n_max)
            hi = min(self.N, self.V_A * n_max)
        return range(lo, hi + 1)


@dataclass(frozen=True)
class GaussianMoments:
    """Moments and half-moments of the Gaussian block-weight profile."""
    m0: float
    m1: float
    m2: float
    m0_plus: float
    m0_minus: float
    m1_plus: float
    m1_minus: float
    m2_plus: float
    m2_minus: float


@dataclass(frozen=True)
class AsymptoticTerms:
    """Large-V mean decomposition: value = a V + b sqrt(V) + c."""
    a: float
    b: float
    c: float
    value: float
    at_half_f: bool
    at_n_star: bool


@dataclass(frozen=True)
class VarianceEstimate:
    """Exact sector variance with its underflow-proof side channel.

    `numerator` is the (d_N + 1)-scaled sum (never underflows);
    `log_value` is ln(variance) or None when the numerator is <= 0.
    """
    value: float
    log_value: Optional[float]
    numerator: float


@dataclass(frozen=True)
class AsymptoticVariance:
    """Leading-order variance prefactor * exp(-beta V), with log side channel."""
    value: float
    prefactor: float
    exponent: float
    log_value: Optional[float]


@dataclass(frozen=True)
class KroneckerResolution:
    """Finite-V crossover data at the canonical double scaling (s=1, t=1/2)."""
    lambda_f: float
    lambda_n: Optional[float]
    s: float
    t: float
    x1: Optional[float]
    x2: Optional[float]


@dataclass(frozen=True)
class DistinguishableTerms:
    """Labeled-particle mean: value = c1 V lnV + c2 V + c3 sqrt(V) lnV."""
    c1: float
    c2: float
    c3: float
    value: float


@dataclass(frozen=True)
class EntropyReport:
    """One bipartition's full mean/variance panel."""
    V: int
    N: int
    V_A: int
    f: float
    n: float
    exact_mean: Optional[float]
    asymptotic: Optional[AsymptoticTerms]
    resolved: Optional[float]
    exact_variance: Optional[VarianceEstimate]
    asymptotic_variance: Optional[AsymptoticVariance]


# -- exact sums -----------------------------------------------------------

def exact_average(model: LocalModel, spec: BipartitionSpec) -> float:
    """Sector average of the subsystem entropy, exact finite-size sum.

    Absolute accuracy ~1e-12 (each block mean is digamma differences of
    exact integers); raises on an empty sector.
    """
    check_exact_work(model, (spec,), want_variance=False)
    mean, _, _ = _sector_sums(model, spec, want_variance=False)
    return mean


def exact_variance(model: LocalModel, spec: BipartitionSpec) -> VarianceEstimate:
    """Sector variance of the subsystem entropy, exact finite-size sum.

    The result decays like exp(-beta V) and may underflow; `log_value`
    stays finite as long as the scaled numerator is positive.
    """
    check_exact_work(model, (spec,), want_variance=True)
    _, numerator, d_n = _sector_sums(model, spec, want_variance=True)
    return _variance_estimate(numerator, d_n)


def _variance_estimate(numerator: float, d_n: int) -> VarianceEstimate:
    """Variance numerator / (d_N + 1), with its log side channel."""
    if numerator <= 0.0:
        # roundoff can leave a ~1e-16 negative residue on a zero variance
        return VarianceEstimate(value=0.0, log_value=None,
                                numerator=numerator)
    log_value = math.log(numerator) - ln_big(d_n + 1)
    if (d_n + 1).bit_length() <= 1000:
        value = numerator / float(d_n + 1)
    else:
        value = math.exp(log_value) if log_value > -745.0 else 0.0
    return VarianceEstimate(value=value, log_value=log_value,
                            numerator=numerator)


def check_exact_work(model: LocalModel, specs, want_variance: bool) -> None:
    """Refuse exact sums over `specs`, the cuts of one request, up front.

    A request computes the sums of a cut and of its mirror V - V_A once
    (see `report`), so each mirrored pair, like a repeated cut, is counted
    once.  Raises InfeasibleSizeError if any V exceeds 4000 or the summed
    `exact_work_seconds` exceed EXACT_WORK_BUDGET_S.
    """
    distinct = {}
    for spec in specs:
        distinct.setdefault(_mirrored_cut(spec), spec)
    if any(spec.V > _EXACT_V_LIMIT for spec in distinct.values()):
        raise InfeasibleSizeError(
            f"exact sum limited to V <= {_EXACT_V_LIMIT}")
    seconds = sum(exact_work_seconds(model, spec, want_variance)
                  for spec in distinct.values())
    if seconds > EXACT_WORK_BUDGET_S:
        raise InfeasibleSizeError(
            f"exact sums estimated at {seconds:.0f} s for {len(distinct)} "
            f"distinct cut(s), above the {EXACT_WORK_BUDGET_S:.0f} s budget")


def check_table_work(model: LocalModel, tables, rows: int = 0) -> None:
    """Refuse building the dimension tables `tables`, (V, N_cap) pairs, up
    front: raises InfeasibleSizeError if their `_table_work_seconds`, plus
    `_render_seconds` for printing `rows` entries of them, exceed
    EXACT_WORK_BUDGET_S."""
    seconds = _table_work_seconds(model, tables)
    render = _render_seconds(model, tables, rows) if rows else 0.0
    if seconds + render > EXACT_WORK_BUDGET_S:
        printing = (f", plus {render:.0f} s to print {rows} rows" if rows
                    else "")
        raise InfeasibleSizeError(
            f"dimension tables estimated at {seconds:.0f} s{printing}, above "
            f"the {EXACT_WORK_BUDGET_S:.0f} s budget")


def _mirrored_cut(spec: BipartitionSpec) -> tuple[int, int, int]:
    """Key shared by the cuts V_A and V - V_A of one sector."""
    return spec.V, spec.N, min(spec.V_A, spec.V - spec.V_A)


def exact_work_seconds(model: LocalModel, spec: BipartitionSpec,
                       want_variance: bool) -> float:
    """Estimated run time of one cut's exact sums, from sizes alone.

    The two dimension tables cost their `_table_work_seconds`; each N_A
    block takes 4 us + 25 ns * w^1.6 for w-word dimensions, 2.5 times that
    with the variance.  Calibrated on a 2-vCPU x86 host with Python 3.11
    (fermions to capped_bosons:100000, V up to 4000), where it matched
    measured times within a factor of two either way.
    """
    n_a_values = spec.n_a_range(model.n_max)
    if spec.V_A in (0, spec.V) or not len(n_a_values):
        return 0.0
    seconds = _table_work_seconds(model, ((spec.V_A, n_a_values[-1]),
                                         (spec.V - spec.V_A, spec.N)))
    words = _dim_bits_bound(model, spec.N)(spec.V, spec.N) / 64.0
    per_block = 4e-6 + 2.5e-8 * words ** 1.6
    return seconds + len(n_a_values) * per_block * (2.5 if want_variance
                                                    else 1.0)


def _table_work_seconds(model: LocalModel, tables) -> float:
    """Estimated run time of `dim_table` over `tables`, (V, N_cap) pairs.

    Each table takes N_eff * (reach + 2) big-int steps of 0.35 us + 4 ns
    per 64-bit word, reach = min(deg PQ, N_eff) (calibrated with
    `exact_work_seconds`).
    """
    bits = _dim_bits_bound(model, max(cap for _, cap in tables))
    deg_pq = len(model.P) + len(model.Q) - 2
    seconds = 0.0
    for sites, cap in tables:
        n_eff = cap if model.n_max is None else min(cap, sites * model.n_max)
        words = bits(sites, n_eff) / 64.0
        seconds += n_eff * (min(deg_pq, n_eff) + 2) * (3.5e-7 + 4e-9 * words)
    return seconds


def _render_seconds(model: LocalModel, tables, rows: int) -> float:
    """Estimated time to build and print `rows` CSV rows (N, d_N) of the
    tables: 4 us + 0.6 us * w + 7.5 ns * w^2 a row for w-word entries, w
    taken from the largest table's bound, since decimal conversion is
    superlinear in w.  Calibrated on the host of `exact_work_seconds`
    with entries of 1 to 190 words; `dims` for bosons V=4, N=1e6 took
    6.0 s there against 5.6 s estimated, tables included."""
    bits = _dim_bits_bound(model, max(cap for _, cap in tables))
    words = max(bits(sites, cap) for sites, cap in tables) / 64.0
    return rows * (4e-6 + 6e-7 * words + 7.5e-9 * words ** 2)


def _dim_bits_bound(model: LocalModel, N: int):
    """bits(V, M) ~ an upper bound on log2 d_M(V) for M <= N.

    Uses d_M(V) <= a_0^V B^M C(V+M-1, M) where a_k <= a_0 B^k, with B
    taken from a_1..a_16 and the radius, and for bounded models
    d_M(V) <= (a_0 + ... + a_min(N, n_max))^V.
    """
    k_max = min(N, 16 if model.n_max is None else min(16, model.n_max))
    a = model.coefficients(k_max + 1)
    log2_a0 = math.log2(a[0])
    rates = [(math.log2(a[k]) - log2_a0) / k
             for k in range(1, k_max + 1) if a[k]]
    if model.n_max is None:
        rates.append(-math.log2(model.radius))
        log2_total = math.inf
    else:
        log2_total = math.log2(sum(model.P[:min(N, model.n_max) + 1]))
    log2_b = max(rates, default=0.0)

    def bits(V: int, M: int) -> float:
        if V == 0:
            return 0.0
        log2_paths = (math.lgamma(V + M) - math.lgamma(M + 1)
                      - math.lgamma(V)) / math.log(2.0)
        return max(0.0, min(V * log2_a0 + M * log2_b + log2_paths,
                            V * log2_total))
    return bits


def _sector_sums(model: LocalModel, spec: BipartitionSpec,
                 want_variance: bool):
    """(mean, variance numerator, d_N) over the block decomposition; the
    caller has passed the cut through `check_exact_work`."""
    v_b = spec.V - spec.V_A
    n_a_values = spec.n_a_range(model.n_max)
    cap_a = n_a_values[-1] if len(n_a_values) else 0
    table_a = dim_table(model, spec.V_A, cap_a)
    table_b = dim_table(model, v_b, spec.N)

    blocks = []
    d_n = 0
    for n_a in n_a_values:
        d_a = table_a[n_a]
        d_b = table_b[spec.N - n_a]
        if d_a and d_b:
            blocks.append((d_a, d_b))
            d_n += d_a * d_b
    if d_n == 0:
        raise DomainError(f"empty sector: V={spec.V}, N={spec.N} "
                          f"for {model.label}")

    # the sector's kernel terms are fixed per cut
    psi_n = digamma_of_dim(d_n)
    trigamma_n = _times_trigamma(d_n + 1, d_n) if want_variance else 0.0
    mean_terms = []
    square_terms = []
    for d_a, d_b in blocks:
        rho = (d_a * d_b) / d_n
        phi = _phi(d_a, d_b, psi_n)
        mean_terms.append(rho * phi)
        if want_variance:
            square_terms.append(rho * (phi * phi + _chi(d_a, d_b, trigamma_n)))
    mean = math.fsum(mean_terms)
    numerator = math.fsum(square_terms) - mean * mean if want_variance else 0.0
    return mean, numerator, d_n


def _phi(d_a: int, d_b: int, psi_n: float) -> float:
    """Mean entropy of one (d_a x d_b) block; psi_n = Psi(d_N + 1)."""
    big, small = (d_a, d_b) if d_a >= d_b else (d_b, d_a)
    return psi_n - digamma_of_dim(big) - (small - 1) / (2 * big)


def _chi(d_a: int, d_b: int, trigamma_n: float) -> float:
    """Second-moment kernel of one block (d_a <= d_b branch; ties too);
    trigamma_n = (d_N + 1) Psi'(d_N + 1)."""
    if d_a > d_b:
        d_a, d_b = d_b, d_a
    term1 = ((d_a + d_b) / d_b) * _times_trigamma(d_b, d_b)
    term3 = ((d_a - 1) * (d_a + 2 * d_b - 1)) / (4 * d_b * d_b)
    return term1 - trigamma_n - term3


def _times_trigamma(m: int, d: int) -> float:
    """m * Psi'(d + 1) for m = d or d + 1, stable for integers of any size
    (limit 1)."""
    if d.bit_length() <= 900:
        return float(m) * trigamma_of_dim(d)
    return 1.0


# -- Gaussian block-weight profile -----------------------------------------

def rho_weight(model: LocalModel, spec: BipartitionSpec, n_a: float) -> float:
    """Continuous Gaussian weight density of n_A = N_A / V around f n."""
    f = spec.f
    if not 0.0 < f < 1.0:
        raise DomainError("rho_weight needs 0 < f < 1")
    sol = beta_family(model, spec.n)
    if sol.at_boundary:
        raise DomainError("rho_weight is undefined at the filling boundary")
    var = f * (1.0 - f) / (abs(sol.beta2) * spec.V)
    delta = n_a - f * spec.n
    return math.exp(-0.5 * delta * delta / var) / math.sqrt(_TWO_PI * var)


def gaussian_moments(model: LocalModel, spec: BipartitionSpec) -> GaussianMoments:
    """Moments of the Gaussian weight and its half-line splits."""
    f = spec.f
    if not 0.0 < f < 1.0:
        raise DomainError("gaussian_moments needs 0 < f < 1")
    sol = beta_family(model, spec.n)
    if sol.at_boundary:
        raise DomainError("gaussian_moments is undefined at the boundary")
    var = f * (1.0 - f) / (abs(sol.beta2) * spec.V)
    sigma = math.sqrt(var)
    m1_half = sigma / math.sqrt(_TWO_PI)
    return GaussianMoments(m0=1.0, m1=0.0, m2=var,
                           m0_plus=0.5, m0_minus=0.5,
                           m1_plus=m1_half, m1_minus=-m1_half,
                           m2_plus=0.5 * var, m2_minus=0.5 * var)


# -- asymptotic mean --------------------------------------------------------

def asymptotic_terms(model: LocalModel, V: float, f: float,
                     n: float) -> AsymptoticTerms:
    """Large-V mean decomposition a V + b sqrt(V) + c at fraction f, filling n.

    f > 1/2 is mapped to 1 - f first (subsystem symmetry).  b is nonzero
    only at f = 1/2 exactly (tolerance 1e-12); the constant picks up an
    extra -1/2 only at f = 1/2 and n = n* simultaneously.
    """
    return _asymptotic_terms(_Saddles(model), V, f, n)


def _asymptotic_terms(saddles: _Saddles, V: float, f: float,
                      n: float) -> AsymptoticTerms:
    f = _normalized_fraction(f)
    sol = saddles.at(n, "asymptotic_terms")
    at_half = abs(f - 0.5) < KRONECKER_TOL
    star = saddles.star
    at_star = star is not None and abs(n - star) < KRONECKER_TOL
    a = sol.beta * f
    b = -abs(sol.beta1) / math.sqrt(_TWO_PI * abs(sol.beta2)) if at_half else 0.0
    c = 0.5 * (f + math.log1p(-f) - (1.0 if at_half and at_star else 0.0))
    value = a * V + b * math.sqrt(V) + c
    return AsymptoticTerms(a=a, b=b, c=c, value=value,
                           at_half_f=at_half, at_n_star=at_star)


def asymptotic_average(model: LocalModel, spec: BipartitionSpec) -> float:
    """Value of the large-V mean decomposition for a concrete bipartition."""
    return asymptotic_terms(model, spec.V, spec.f, spec.n).value


def resolved_average(model: LocalModel, V: float, f: float, n: float) -> float:
    """Finite-V page curve with the Kronecker deltas resolved by erfc kernels.

    Equals a V + c off the special points, and crosses over smoothly
    through f = 1/2 (sqrt(V) deficit) and n = n* (extra -1/2); valid for
    all 0 < f < 1 at moderate V.
    """
    return _resolved_average(_Saddles(model), V, f, n)


def _resolved_average(saddles: _Saddles, V: float, f: float,
                      n: float) -> float:
    if V < 4:
        raise DomainError("resolved_average needs V >= 4")
    f = _normalized_fraction(f)
    sol = saddles.at(n, "resolved_average")
    value = sol.beta * f * V + 0.5 * (f + math.log1p(-f))
    if sol.beta1 != 0.0:
        value += _x2_kernel(V, f, sol.beta, abs(sol.beta1), abs(sol.beta2))
    star = saddles.star
    if star is not None:
        sol_star = saddles.at(star)
        value -= 0.5 * _x1_kernel((f - 0.5) * V, (n - star) * math.sqrt(V),
                                  sol_star.beta, abs(sol_star.beta2))
    return value


# -- Kronecker-delta resolution kernels -------------------------------------

def _x1_kernel(lam_f: float, lam_n: float, beta_star: float,
               ab2_star: float) -> float:
    """erfc pair resolving the f=1/2, n=n* double delta; even in lam_f.

    At lam_n -> 0 it tends to exp(-2 |lam_f| beta*); at the double limit
    lam_f = lam_n = 0 it is 1 (the full -1/2 applies).
    """
    v = 2.0 * lam_f * beta_star
    if abs(lam_n) < KRONECKER_TOL:
        return math.exp(-abs(v))
    u = lam_n * lam_n * ab2_star
    w = abs(lam_n) * ab2_star
    half_u = 0.5 * u
    root = math.sqrt(0.5 * ab2_star)
    first = exp_times_erfc(half_u + v, root * (u + v) / w)
    second = exp_times_erfc(half_u - v, root * (u - v) / w)
    return 0.5 * (first + second)


def _x2_kernel(V: float, f: float, beta: float, ab1: float,
               ab2: float) -> float:
    """erfc crossover resolving the sqrt(V) deficit at f = 1/2."""
    df = abs(f - 0.5)
    arg = math.sqrt(2.0 * V * ab2) * df * beta / ab1
    gauss = math.exp(-2.0 * V * ab2 * df * df * beta * beta / (ab1 * ab1))
    return (V * df * beta * erfc(arg)
            - ab1 * math.sqrt(V / (_TWO_PI * ab2)) * gauss)


def resolve_x1(model: LocalModel, V: float, f: float, n: float) -> float:
    """Double-delta crossover factor X1 in [0, 1] at the physical scaling."""
    star = n_star(model)
    if star is None:
        raise DomainError("X1 needs a finite n_max (peak filling)")
    if V < 1:
        raise DomainError("resolve_x1 needs V >= 1")
    sol_star = beta_family(model, star)
    return _x1_kernel((f - 0.5) * V, (n - star) * math.sqrt(V),
                      sol_star.beta, abs(sol_star.beta2))


def resolve_x2(model: LocalModel, V: float, f: float, n: float) -> float:
    """sqrt(V)-deficit crossover X2 at the physical scaling.

    Undefined where beta'(n) = 0 (i.e. exactly at n*): the kernel divides
    by |beta'|; callers there are on the delta itself.
    """
    sol = _Saddles(model).at(n, "resolve_x2")
    if sol.beta1 == 0.0:
        raise NumericalError("X2 is undefined at beta'(n) = 0 (n = n*)")
    return _x2_kernel(V, _normalized_fraction(f), sol.beta, abs(sol.beta1),
                      abs(sol.beta2))


def x1_powerlaw(model: LocalModel, s: float, t: float, lam_f: float,
                lam_n: float) -> float:
    """Limit of X1 under f - 1/2 = lam_f V^-s, n - n* = lam_n V^-t.

    Piecewise in (s, t): 0 below the critical exponents (s < 1 or t < 1/2),
    the full erfc pair exactly at (1, 1/2), single-variable crossovers on
    the two edges, and 1 beyond both.
    """
    star = n_star(model)
    if star is None:
        raise DomainError("X1 needs a finite n_max (peak filling)")
    sol_star = beta_family(model, star)
    beta_star = sol_star.beta
    ab2 = abs(sol_star.beta2)
    tol = 1e-12
    if s < 1.0 - tol or t < 0.5 - tol:
        return 0.0
    s_edge = abs(s - 1.0) <= tol
    t_edge = abs(t - 0.5) <= tol
    if s_edge and t_edge:
        return _x1_kernel(lam_f, lam_n, beta_star, ab2)
    if t_edge:  # s > 1: the f-delta has already sharpened
        return exp_times_erfc(0.5 * lam_n * lam_n * ab2,
                              math.sqrt(0.5 * ab2) * abs(lam_n))
    if s_edge:  # t > 1/2: the n-delta has already sharpened
        return math.exp(-2.0 * abs(lam_f) * beta_star)
    return 1.0


def x2_powerlaw(model: LocalModel, n: float, s: float, lam_f: float,
                V: float) -> float:
    """Limit of X2 under f - 1/2 = lam_f V^-s at filling n.

    0 for s < 1/2, the erfc crossover exactly at s = 1/2, a linear-plus-
    deficit form on 1/2 < s <= 1, and the pure sqrt(V) deficit beyond.
    """
    sol = _Saddles(model).at(n, "x2_powerlaw")
    beta = sol.beta
    ab1 = abs(sol.beta1)
    ab2 = abs(sol.beta2)
    if ab1 == 0.0:
        raise NumericalError("X2 is undefined at beta'(n) = 0 (n = n*)")
    tol = 1e-12
    if s < 0.5 - tol:
        return 0.0
    deficit = ab1 * math.sqrt(V / (_TWO_PI * ab2))
    if abs(s - 0.5) <= tol:
        arg = math.sqrt(2.0 * ab2) * abs(lam_f) * beta / ab1
        gauss = math.exp(-2.0 * ab2 * lam_f * lam_f * beta * beta
                         / (ab1 * ab1))
        return math.sqrt(V) * (abs(lam_f) * beta * erfc(arg)
                               - ab1 * gauss / math.sqrt(_TWO_PI * ab2))
    if s <= 1.0 + tol:
        return abs(lam_f) * V ** (1.0 - s) * beta - deficit
    return -deficit


def kronecker_resolution(model: LocalModel, V: float, f: float,
                         n: float) -> KroneckerResolution:
    """Crossover panel at the canonical double scaling (s=1, t=1/2)."""
    star = n_star(model)
    lam_f = (f - 0.5) * V
    lam_n = None if star is None else (n - star) * math.sqrt(V)
    x1 = None if star is None else resolve_x1(model, V, f, n)
    sol = _Saddles(model).at(n, "kronecker_resolution")
    x2 = None if sol.beta1 == 0.0 else resolve_x2(model, V, f, n)
    return KroneckerResolution(lambda_f=lam_f, lambda_n=lam_n, s=1.0, t=0.5,
                               x1=x1, x2=x2)


# -- exponent geometry -------------------------------------------------------

def y_exponent(model: LocalModel, f: float, n: float, n_a: float) -> float:
    """Exponential weight exponent of the block at subsystem filling n_a.

    Y = f beta(n_a / f) - (1 - f) beta((n - n_a) / (1 - f)); the block
    weight behaves like exp(-V (beta(n) - ... )) with sign changes of Y
    marking where the dominant side of the cut flips.
    """
    if not 0.0 < f < 1.0:
        raise DomainError("y_exponent needs 0 < f < 1")
    n_sub_a = n_a / f
    n_sub_b = (n - n_a) / (1.0 - f)
    if n_sub_a < -1e-12 or n_sub_b < -1e-12:
        raise DomainError("n_a outside the physical block range")
    sol_a = beta_family(model, max(n_sub_a, 0.0))
    sol_b = beta_family(model, max(n_sub_b, 0.0))
    return f * sol_a.beta - (1.0 - f) * sol_b.beta


def n_crit(model: LocalModel, f: float, n: float) -> float:
    """Filling n_A where the dominant side of the cut flips (root of Y).

    Linearized forms: away from the peak, f n - (f - 1/2) beta / beta';
    at the peak (beta' ~ 0), the curvature form through beta(n*).  Exactly
    at f = 1/2 the root is f n by symmetry.
    """
    if not 0.0 < f <= 0.5 + KRONECKER_TOL:
        raise DomainError("n_crit is defined for 0 < f <= 1/2; "
                          "use symmetry for the other half")
    if abs(f - 0.5) < KRONECKER_TOL:
        return f * n
    sol = _Saddles(model).at(n, "n_crit")
    if abs(sol.beta1) > 1e-9:
        return f * n - (f - 0.5) * sol.beta / sol.beta1
    star = n_star(model)
    if star is None:
        raise NumericalError("n_crit: beta' = 0 without a finite n_max")
    if abs(n - star) < 1e-9:
        raise NumericalError("n_crit falls outside the Gaussian window: "
                             "beta' and n - n* vanish together at f != 1/2")
    sol_star = beta_family(model, star)
    return f * n + (f - 0.5) * sol_star.beta / (abs(sol_star.beta2) * (n - star))


# -- variance ----------------------------------------------------------------

def asymptotic_variance(model: LocalModel, V: float, f: float,
                        n: float) -> AsymptoticVariance:
    """Leading-order variance: prefactor * V^(3/2) * exp(-beta V).

    The shape factor f(1-f) is reduced by 1/(2 pi) exactly at f = 1/2.
    Returned with the log side channel since the value underflows quickly.
    """
    return _asymptotic_variance(_Saddles(model), V, f, n)


def _asymptotic_variance(saddles: _Saddles, V: float, f: float,
                         n: float) -> AsymptoticVariance:
    f = _normalized_fraction(f)
    sol = saddles.at(n, "asymptotic_variance")
    at_half = abs(f - 0.5) < KRONECKER_TOL
    shape = f * (1.0 - f) - (1.0 / _TWO_PI if at_half else 0.0)
    prefactor = (math.sqrt(_TWO_PI) * sol.beta1 * sol.beta1
                 / abs(sol.beta2) ** 1.5 * shape * V ** 1.5)
    exponent = -sol.beta * V
    if prefactor > 0.0:
        log_value = math.log(prefactor) + exponent
        value = math.exp(log_value) if log_value > -745.0 else 0.0
    else:
        log_value = None
        value = 0.0
    return AsymptoticVariance(value=value, prefactor=prefactor,
                              exponent=exponent, log_value=log_value)


# -- distinguishable (labeled) particles -------------------------------------

def distinguishable_exact_average(V: int, N: int, V_A: int) -> float:
    """Exact mean entropy for N labeled particles on V sites, V_A in A."""
    if V < 1 or not 0 <= V_A <= V or N < 0:
        raise DomainError("need V >= 1, 0 <= V_A <= V, N >= 0")
    d_n = distinguishable_dim(V, N)
    psi_n = digamma_of_dim(d_n)
    v_b = V - V_A
    terms = []
    for n_a in range(N + 1):
        d_a = V_A ** n_a
        d_b = v_b ** (N - n_a)
        if d_a == 0 or d_b == 0:
            continue
        rho = (math.comb(N, n_a) * d_a * d_b) / d_n
        terms.append(rho * _phi(d_a, d_b, psi_n))
    return math.fsum(terms)


def distinguishable_asymptotic(V: float, N: float,
                               V_A: float) -> DistinguishableTerms:
    """Labeled-particle mean decomposition c1 V lnV + c2 V + c3 sqrt(V) lnV."""
    if V < 1 or not 0 <= V_A <= V:
        raise DomainError("need V >= 1 and 0 <= V_A <= V")
    n = N / V
    f = _normalized_fraction(V_A / V)
    c1 = n * f
    c2 = -n * (1.0 - f) * math.log1p(-f)
    c3 = (math.sqrt(n / _TWO_PI) * math.log(2.0)
          if abs(f - 0.5) < KRONECKER_TOL else 0.0)
    log_v = math.log(V)
    value = c1 * V * log_v + c2 * V + c3 * math.sqrt(V) * log_v
    return DistinguishableTerms(c1=c1, c2=c2, c3=c3, value=value)


# -- combined report ----------------------------------------------------------

def report(model: LocalModel, specs,
           methods: tuple[str, ...] = ("exact", "asymptotic", "resolved",
                                       "exact_variance",
                                       "asymptotic_variance")
           ) -> list[EntropyReport]:
    """The requested mean/variance panel of every cut in `specs`, the
    bipartitions of one request, in their order.

    Boundary cuts (V_A = 0 or V) report 0 for every method: the subsystem
    or its complement is trivial.

    With an exact method, the exact sums of all cuts are refused up front
    by one `check_exact_work`.  Each shared quantity is then computed once
    per call: the exact sums of the mirrored cuts V_A and V - V_A, and the
    saddle solutions at each filling and at n*.  So a page curve is one
    call, and each panel equals that of a call with its cut alone.
    """
    specs = list(specs)
    want_variance = "exact_variance" in methods
    if want_variance or "exact" in methods:
        check_exact_work(model, specs, want_variance)
    saddles = _Saddles(model)
    sums = {}  # mirrored cut -> (mean, variance numerator, d_N)

    def exact_sums(spec):  # one pass serves the mean and the variance
        cut = _mirrored_cut(spec)
        if cut not in sums:
            sums[cut] = _sector_sums(model, spec, want_variance)
        return sums[cut]

    reports = []
    for spec in specs:
        f, V, n = spec.f, spec.V, spec.n
        boundary = spec.V_A in (0, V)
        exact_mean = asym = resolved = exact_var = asym_var = None
        if "exact" in methods:
            exact_mean = 0.0 if boundary else exact_sums(spec)[0]
        if "asymptotic" in methods:
            asym = (AsymptoticTerms(0.0, 0.0, 0.0, 0.0, False, False)
                    if boundary else _asymptotic_terms(saddles, V, f, n))
        if "resolved" in methods:
            resolved = 0.0 if boundary else _resolved_average(saddles, V, f, n)
        if want_variance:
            exact_var = (VarianceEstimate(0.0, None, 0.0) if boundary
                         else _variance_estimate(*exact_sums(spec)[1:]))
        if "asymptotic_variance" in methods:
            asym_var = (AsymptoticVariance(0.0, 0.0, 0.0, None) if boundary
                        else _asymptotic_variance(saddles, V, f, n))
        reports.append(EntropyReport(
            V=V, N=spec.N, V_A=spec.V_A, f=f, n=n, exact_mean=exact_mean,
            asymptotic=asym, resolved=resolved, exact_variance=exact_var,
            asymptotic_variance=asym_var))
    return reports


# -- helpers ------------------------------------------------------------------

def _normalized_fraction(f: float) -> float:
    f = float(f)
    if not 0.0 < f < 1.0:
        raise DomainError(f"subsystem fraction must lie in (0, 1), got {f}")
    return min(f, 1.0 - f)


class _Saddles:
    """One model's saddle solutions, each filling and n* solved once."""

    def __init__(self, model: LocalModel):
        self.model, self._solved = model, {}

    def at(self, n: float, where: Optional[str] = None):
        """beta_family(model, n); refused at the filling boundary when the
        caller `where` needs an interior filling."""
        sol = self._solved.get(float(n))
        if sol is None:
            sol = self._solved[float(n)] = beta_family(self.model, n)
        if where is not None and sol.at_boundary:
            raise DomainError(f"{where} is undefined at the filling boundary "
                              f"n={n}")
        return sol

    @cached_property
    def star(self) -> Optional[float]:
        """n_star(model): the peak filling, None for unbounded models."""
        return n_star(self.model)
