"""Typical entanglement entropy of a bipartite number-conserving sector.

Exact finite-size averages and variances are sums over the subsystem
particle number N_A: block N_A has exact integer state counts d_A, d_B and
weight w = d_A d_B (C(N, N_A) d_A d_B for labeled particles), d_N is the
sum of the weights, rho = w / d_N, and the block mean is

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
call, which solves each shared quantity once.  The exact sums of the cuts
V_A and V - V_A are the same bit for bit (the block kernels are symmetric
in d_A, d_B and `math.fsum` is correctly rounded, so block order cannot
matter), and the sector's distinct cuts min(V_A, V - V_A) are swept in
ascending order: a cut one site past the previous one steps that cut's
two dimension tables by one factor of zeta = P/Q each (exact series
products and quotients), instead of building them anew, and reads its
blocks from them by index.  At 2N = V n_max the tables of a palindromic
P (fermions, spin_j, capped bosons) read the same backwards over the
cut's N_A, which is checked on the tables themselves, and at V_A = V/2
block N - N_A is block N_A with its sides swapped; then each mirrored
pair of blocks is evaluated once and its terms summed twice, which
fsum's correct rounding leaves bit-identical.  d_N and Psi, Psi' of
d_N + 1 are taken once per sector, from the weights of its first cut.
The saddle solutions at n and n* depend on the filling alone and are
solved once.  The asymptotic columns are evaluated once per mirrored
cut too, at the correctly rounded fraction min(V_A, V - V_A) / V (one
int / int true division), which the two cuts share; 1 - fl(V_A / V)
would cancel as V_A nears V.

A swept cut forms each weight w = d_A d_B once but evaluates only the
blocks of its window, w > w_max / 2^64 (`_WINDOW_BITS`): the weights
form a law of width O(sqrt(V_A)) in N_A, so at large cuts most blocks
add far less than an ulp.  The window's sums stand only under a
certificate that they are the sums over all blocks, bit for bit.  Let
M = (d_N - sum of the kept w) / d_N (an exact big-int difference, one
true division), phi_max = ln(d_N + 1) + 1, b the cut's number of
blocks (mirrored ones counted twice), and

    B = (M (1 + 2^-40) + b 2^-1070) phi_max.

Every left-out term lies in [-B, B] all told, so if fsum(kept + [B])
and fsum(kept + [-B]) both equal fsum(kept), the full sum rounds to
the same double: fsum rounds correctly, hence monotonically, and the
test is two-sided, so no sign of a term is needed.  With the variance
the square terms pass the same test with phi_max^2 + 3 in place of
phi_max; the numerator is fsum(squares) - mean^2 of the two certified
sums.  Otherwise the threshold drops by 16 bits (`_WIDEN_BITS`) and only
the newly kept blocks are evaluated; at the end that is every block.
The bounds, for big = max(d_A, d_B) <= d_N and small = min(d_A, d_B):

- |phi| <= phi_max: 0 <= Psi(d_N + 1) - Psi(big + 1) < ln(d_N + 1), as
  Psi increases, Psi(2) > 0 and Psi(x) < ln x; and 0 <= (small - 1) /
  (2 big) < 1/2.
- |phi^2 + chi| <= phi_max^2 + 3: with Psi'(x + 1) < 1/x, big
  Psi'(big + 1) <= 1, so chi's first term (small + big) / big times it
  is at most 2; (d_N + 1) Psi'(d_N + 1) <= 2, as Psi'(x) < 1/x + 1/x^2;
  and s1 (s1 + b2) / b2^2 < 3/4, as s1 / b2 < 1/2 (`_phi`).  The
  branches past 900 bits take 1.0 for the two products, inside these
  bounds too.
- Rounding: each term is fl(fl(w / d_N) x) with |x| below the bound
  above by at least 1/2, far more than the float error of Psi; the
  2^-40 covers the relative roundings of rho, of each product and of M
  and B, and the b 2^-1070 the absolute error (up to 2^-1075 each) of a
  rho or product that underflows.

Labeled particles stream their N + 1 blocks through the same kernel with
no window (`distinguishable_exact_average`).

A cut's blocks and tables come from its `BipartitionSpec`, as in the Haar
sampler and the run-time estimate.  The per-cut value records are named
tuples, cheap to build once per cut of a long page curve.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import erfc
from typing import NamedTuple, Optional

from . import budget
from .dimensions import dim_table, grow_table, shrink_table
from .errors import DomainError, InfeasibleSizeError, NumericalError
from .local_model import LocalModel
# perfbench/spans.py patches digamma_of_dim and trigamma_of_dim here
from .numerics import (digamma_of_dim, exp_times_erfc, ln_big,
                       polygamma_of_dim, trigamma_of_dim)
from .saddle import asymptotic_form, beta_family, in_float_range, n_star

# |f - 1/2| or |n - n*| below this counts as exactly on the special point.
KRONECKER_TOL = 1e-12

# Largest V of an exact sum: it guards table memory, which grows as V^2
# (one V_A = 1 table took 19 MB at V = 2e4 and 74 MB at V = 4e4), while
# the budget estimates those cuts at only 0.05 s and 0.17 s.
_EXACT_V_LIMIT = 4000

# A cut's exact sums first evaluate only the blocks whose weight d_A d_B
# exceeds 2^-64 of the cut's largest: each term left out is then below
# 2^-64 of the largest one, 11 bits under the 53 of a double, so the
# certificate (module docstring) nearly always holds at once, while at
# large V_A most blocks lie further out than that.
_WINDOW_BITS = 64

# Each failed certificate lowers the threshold by this many bits.
_WIDEN_BITS = 16

# A term whose rho or product is subnormal carries an absolute rounding
# error of up to 2^-1075 rather than a relative one; this much per block
# (times phi_max) covers it in the certificate's bound.
_UNDERFLOW_SLACK = 2.0 ** -1070

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BipartitionSpec:
    """A contiguous bipartition of a fixed-N sector: V sites, V_A of them in A."""
    V: int
    N: int
    V_A: int

    def __post_init__(self):
        if not (type(self.V) is type(self.N) is type(self.V_A) is int):
            raise DomainError(f"need integer V, N and V_A, got {self.V!r}, "
                              f"{self.N!r}, {self.V_A!r}")
        if self.V < 1:
            raise DomainError(f"V must be >= 1, got {self.V}")
        if not 0 <= self.V_A <= self.V:
            raise DomainError(f"V_A must lie in [0, V], got {self.V_A}")
        if self.N < 0:
            raise DomainError(f"N must be nonnegative, got {self.N}")

    @property
    def n(self) -> float:
        try:
            return self.N / self.V
        except OverflowError:
            raise DomainError(f"filling N/V with V={self.V} is beyond the "
                              f"float range") from None

    @property
    def f(self) -> float:
        return self.V_A / self.V

    @property
    def mirrored_cut(self) -> tuple[int, int, int]:
        """Key shared by the cuts V_A and V - V_A of one sector."""
        return self.V, self.N, min(self.V_A, self.V - self.V_A)

    def n_a_range(self, n_max: Optional[int]) -> range:
        """All N_A with nonempty blocks on both sides of the cut; empty only
        for an empty sector (N above V n_max)."""
        if n_max is None:
            lo = 0 if self.V_A < self.V else self.N
            hi = self.N if self.V_A > 0 else 0
        else:
            lo = max(0, self.N - (self.V - self.V_A) * n_max)
            hi = min(self.N, self.V_A * n_max)
        return range(lo, hi + 1)

    def tables(self, n_max: Optional[int]) -> tuple[tuple[int, int], ...]:
        """The (sites, N_cap) of the A and B dimension tables that the blocks
        of `n_a_range` read: A up to the top N_A, B up to N minus the lowest
        N_A, so both caps are at most sites x n_max."""
        n_a_values = self.n_a_range(n_max)
        return ((self.V_A, n_a_values.stop - 1),
                (self.V - self.V_A, self.N - n_a_values.start))

    def refuse_empty(self, model: LocalModel) -> None:
        """Refuse (DomainError) a sector that counting alone shows empty:
        N above V n_max, or N not a multiple of the model's `period`."""
        if self.N % model.period or (model.n_max is not None
                                     and self.N > self.V * model.n_max):
            raise _empty_sector(self.V, self.N, model)

    def blocks(self, model: LocalModel, build_table) -> list[tuple]:
        """(N_A, d_A, d_B) of each nonempty block, with the two `tables`
        built by build_table(model, sites, N_cap).  A sector with no
        nonempty block is refused (DomainError); an empty range of N_A
        (N above V n_max) builds no table."""
        n_a_values = self.n_a_range(model.n_max)
        blocks = []
        if n_a_values:
            table_a, table_b = (build_table(model, *args)
                                for args in self.tables(model.n_max))
            blocks = [(n_a, table_a[n_a], table_b[self.N - n_a]) for n_a in
                      n_a_values if table_a[n_a] and table_b[self.N - n_a]]
        if not blocks:
            raise _empty_sector(self.V, self.N, model)
        return blocks


def _empty_sector(V: int, N: int, model: LocalModel) -> DomainError:
    return DomainError(f"empty sector: V={V}, N={N} for {model.label}")


class AsymptoticTerms(NamedTuple):
    """Large-V mean decomposition: value = a V + b sqrt(V) + c."""
    a: float
    b: float
    c: float
    value: float
    at_half_f: bool
    at_n_star: bool


class VarianceEstimate(NamedTuple):
    """Exact sector variance with its underflow-proof side channel.

    `numerator` is the (d_N + 1)-scaled sum (never underflows);
    `log_value` is ln(variance) or None when the numerator is <= 0.
    """
    value: float
    log_value: Optional[float]
    numerator: float


class AsymptoticVariance(NamedTuple):
    """Leading-order variance prefactor * exp(-beta V), with log side channel."""
    value: float
    prefactor: float
    exponent: float
    log_value: Optional[float]


class DistinguishableTerms(NamedTuple):
    """Labeled-particle mean: value = c1 V lnV + c2 V + c3 sqrt(V) lnV."""
    c1: float
    c2: float
    c3: float
    value: float


class EntropyReport(NamedTuple):
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
    exact integers); raises on an empty sector.  A one-cut `report`: 0 at
    the trivial cuts V_A = 0 and V.
    """
    return report(model, (spec,), ("exact",))[0].exact_mean


def exact_variance(model: LocalModel, spec: BipartitionSpec) -> VarianceEstimate:
    """Sector variance of the subsystem entropy, exact finite-size sum.

    The result decays like exp(-beta V) and may underflow; `log_value`
    stays finite as long as the scaled numerator is positive.  A one-cut
    `report`: VarianceEstimate(0.0, None, 0.0) at the trivial cuts.
    """
    return report(model, (spec,), ("exact_variance",))[0].exact_variance


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


def _exact_sums(model: LocalModel, specs, want_variance: bool) -> dict:
    """{mirrored cut: (mean, VarianceEstimate or None)} of the cuts
    0 < V_A < V in `specs`, one request's, each sector's swept as above."""
    sectors = {}  # (V, N) -> its distinct cuts min(V_A, V - V_A) > 0
    for spec in specs:
        V, N, cut = spec.mirrored_cut
        if cut:
            sectors.setdefault((V, N), set()).add(cut)

    def table(model, sites, N_cap):
        if sites not in tables:
            if sites - 1 in tables:
                tables[sites] = grow_table(model, tables[sites - 1], N_cap)
            elif sites + 1 in tables:
                tables[sites] = shrink_table(model, tables[sites + 1], N_cap)
            else:
                tables[sites] = dim_table(model, sites, N_cap)
        return tables[sites]

    sums = {}
    for (V, N), cuts in sectors.items():
        tables = {}  # sites -> its table, for the two sides of the last cut
        sector = None  # (d_N, its polygammas, phi_max), from the first cut
        for V_A in sorted(cuts):
            spec = BipartitionSpec(V, N, V_A)
            n_a_values = spec.n_a_range(model.n_max)
            if not n_a_values:
                raise _empty_sector(V, N, model)
            table_a, table_b = (table(model, *args)
                                for args in spec.tables(model.n_max))
            tables = {sites: tables[sites] for sites in (V_A, V - V_A)}
            lo, hi = n_a_values.start, n_a_values.stop - 1
            # the leading blocks also stand for their mirror images where
            # block N - N_A is block N_A swapped (V_A = V/2) or the same (a
            # palindromic table pair, from a palindromic P at 2N = V n_max)
            twice = len(n_a_values) // 2
            side_a, side_b = table_a[lo:hi + 1], table_b[N - hi:N - lo + 1]
            if 2 * V_A != V and (side_a != side_a[::-1]
                                 or side_b != side_b[::-1]):
                twice = 0
            weights = [table_a[n_a] * table_b[N - n_a]
                       for n_a in range(lo, hi + 1 - twice)]
            if sector is None:
                d_n = sum(weights) + sum(weights[:twice])
                if not d_n:
                    raise _empty_sector(V, N, model)
                sector = (d_n, _polygammas(d_n, want_variance),
                          ln_big(d_n + 1) + 1.0)
            mean, numerator = _window_sums(weights, table_a, table_b, lo, N,
                                           twice, *sector)
            sums[V, N, V_A] = (mean, _variance_estimate(numerator, sector[0])
                               if want_variance else None)
            # freed before the next sector's tables
            del table_a, table_b, side_a, side_b, weights
    return sums


def _window_sums(weights, table_a, table_b, lo: int, N: int, twice: int,
                 d_n: int, polygammas, phi_max: float):
    """(mean, variance numerator) of one cut, whose evaluated block i has
    d_A = table_a[lo + i], d_B = table_b[N - lo - i] and the weight
    weights[i] (0 for an empty block), the first `twice` counted twice:
    the sums of the blocks above the window's threshold, which widens
    until the certificate holds (module docstring)."""
    w_max = max(weights)
    blocks = len(weights) + twice
    variance = polygammas[1] is not None
    mean_terms, square_terms = [], []
    rest = d_n  # d_N minus the kept weights, each as often as it counts
    above, shift = w_max, _WINDOW_BITS
    while True:
        floor = w_max >> shift
        new = [i for i, w in enumerate(weights) if floor < w <= above]
        doubled = bisect_left(new, twice)
        mean_new, square_new = _block_terms(
            ((weights[i], table_a[lo + i], table_b[N - lo - i]) for i in new),
            d_n, doubled, *polygammas)
        mean_terms += mean_new
        square_terms += square_new
        rest -= sum(weights[i] for i in new) + sum(weights[i]
                                                  for i in new[:doubled])
        slack = (rest / d_n * (1.0 + 2.0 ** -40) + blocks * _UNDERFLOW_SLACK
                 if rest else 0.0)
        mean = _settled(mean_terms, slack * phi_max)
        squares = (_settled(square_terms, slack * (phi_max * phi_max + 3.0))
                   if variance else 0.0)
        if mean is not None and squares is not None:
            return mean, (squares - mean * mean if variance else 0.0)
        above, shift = floor, shift + _WIDEN_BITS


def _settled(terms: list, bound: float) -> Optional[float]:
    """fsum(terms), or None where adding some value in [-bound, bound] to
    their exact sum would round to another double (fsum rounds correctly,
    hence monotonically, so the two ends decide)."""
    total = math.fsum(terms)
    if bound and not (math.fsum([*terms, bound]) == total
                      == math.fsum([*terms, -bound])):
        return None
    return total


def _polygammas(d_n: int, want_variance: bool) -> tuple:
    """(Psi(d_N + 1), (d_N + 1) Psi'(d_N + 1) or None without the variance)
    of a sector, for `_block_terms`."""
    psi_n, trigamma = polygamma_of_dim(d_n)
    if not want_variance:
        return psi_n, None
    # (d_N + 1) Psi'(d_N + 1), whose limit is 1
    return psi_n, (float(d_n + 1) * trigamma if d_n.bit_length() <= 900
                   else 1.0)


def _block_terms(blocks, d_n: int, twice: int, psi_n: float,
                 trigamma_n: Optional[float]) -> tuple[list, list]:
    """The mean terms rho phi and, given trigamma_n (see `_phi`), the square
    terms rho (phi^2 + chi) of the `blocks`, (weight, d_A, d_B), read once
    in order (a generator will do), those of the first `twice` listed
    twice; rho = weight / d_n."""
    mean_terms = []
    square_terms = []
    for weight, d_a, d_b in blocks:
        rho = weight / d_n
        phi, chi = _phi(d_a, d_b, psi_n, trigamma_n)
        mean_terms.append(rho * phi)
        if trigamma_n is not None:
            square_terms.append(rho * (phi * phi + chi))
    return (mean_terms + mean_terms[:twice],
            square_terms + square_terms[:twice])


def _block_sums(blocks, d_n: int, twice: int, want_variance: bool):
    """(mean, variance numerator) of all the `blocks`, (weight, d_A, d_B),
    read once in order (a generator will do), the first `twice` of them
    counted twice (fsum's correct rounding makes that the full list's sum
    bit for bit); d_n is the caller's sum of all weights."""
    mean_terms, square_terms = _block_terms(
        blocks, d_n, twice, *_polygammas(d_n, want_variance))
    mean = math.fsum(mean_terms)
    return mean, (math.fsum(square_terms) - mean * mean if want_variance
                  else 0.0)


def _phi(d_a: int, d_b: int, psi_n: float,
         trigamma_n: Optional[float] = None) -> tuple:
    """(phi, chi) of one (d_a x d_b) block from one polygamma evaluation of
    its larger side: its mean entropy, psi_n = Psi(d_N + 1), and, given
    trigamma_n = (d_N + 1) Psi'(d_N + 1), its second-moment kernel (else
    None).  The integers s1 = small - 1 and b2 = 2 big are formed once
    and shared: (small - 1) / (2 big) and the chi term (small - 1)(small +
    2 big - 1) / (4 big^2) are each one exact int / int true division,
    s1 / b2 and s1 (s1 + b2) / b2^2, which CPython rounds correctly."""
    small, big = (d_a, d_b) if d_a <= d_b else (d_b, d_a)
    psi, trigamma = polygamma_of_dim(big)
    s1 = small - 1
    b2 = big + big
    phi = psi_n - psi - s1 / b2
    if trigamma_n is None:
        return phi, None
    # big Psi'(big + 1), whose limit is 1
    big_trigamma = float(big) * trigamma if big.bit_length() <= 900 else 1.0
    term1 = ((small + big) / big) * big_trigamma
    term3 = s1 * (s1 + b2) / (b2 * b2)
    return phi, term1 - trigamma_n - term3


# -- asymptotic mean --------------------------------------------------------

@asymptotic_form
def asymptotic_terms(model: LocalModel, V: float, f: float,
                     n: float) -> AsymptoticTerms:
    """Large-V mean decomposition a V + b sqrt(V) + c at fraction f, filling n.

    f > 1/2 is mapped to 1 - f first (subsystem symmetry), which cancels
    near f = 1: pass the smaller side's fraction there, as `report` does
    with min(V_A, V - V_A) / V.  b is nonzero only at f = 1/2 exactly
    (tolerance 1e-12); the constant picks up an extra -1/2 only at f = 1/2
    and n = n* simultaneously.
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
    """Value of the large-V mean decomposition for a concrete bipartition,
    as a one-cut `report` gives it: 0 at the trivial cuts V_A = 0 and V."""
    return report(model, (spec,), ("asymptotic",))[0].asymptotic.value


@asymptotic_form
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
        value += _resolve_x2(saddles, V, f, n)
    if saddles.star is not None:
        value -= 0.5 * _resolve_x1(saddles, V, f, n)
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


def _x2_kernel(V: float, df: float, beta: float, ab1: float,
               ab2: float) -> float:
    """erfc crossover resolving the sqrt(V) deficit at f = 1/2, at the
    offset df = |f - 1/2|."""
    arg = math.sqrt(2.0 * V * ab2) * df * beta / ab1
    gauss = math.exp(-2.0 * V * ab2 * df * df * beta * beta / (ab1 * ab1))
    return (V * df * beta * erfc(arg)
            - ab1 * math.sqrt(V / (_TWO_PI * ab2)) * gauss)


@asymptotic_form
def resolve_x1(model: LocalModel, V: float, f: float, n: float) -> float:
    """Double-delta crossover factor X1 in [0, 1] at the physical scaling."""
    return _resolve_x1(_Saddles(model), V, _normalized_fraction(f), n)


def _resolve_x1(saddles: _Saddles, V: float, f: float, n: float) -> float:
    star, sol_star = saddles.peak()
    return _x1_kernel((f - 0.5) * V, (n - star) * math.sqrt(V),
                      sol_star.beta, abs(sol_star.beta2))


@asymptotic_form
def resolve_x2(model: LocalModel, V: float, f: float, n: float) -> float:
    """sqrt(V)-deficit crossover X2 at the physical scaling.

    Undefined where beta'(n) = 0 (i.e. exactly at n*): the kernel divides
    by |beta'|; callers there are on the delta itself.
    """
    return _resolve_x2(_Saddles(model), V, f, n)


def _resolve_x2(saddles: _Saddles, V: float, f: float, n: float) -> float:
    sol = saddles.at(n, "resolve_x2")
    if sol.beta1 == 0.0:
        raise NumericalError("X2 is undefined at beta'(n) = 0 (n = n*)")
    return _x2_kernel(V, abs(_normalized_fraction(f) - 0.5), sol.beta,
                      abs(sol.beta1), abs(sol.beta2))


@asymptotic_form
def x1_powerlaw(model: LocalModel, s: float, t: float, lam_f: float,
                lam_n: float) -> float:
    """Limit of X1 under f - 1/2 = lam_f V^-s, n - n* = lam_n V^-t.

    Piecewise in (s, t): 0 below the critical exponents (s < 1 or t < 1/2),
    the full erfc pair exactly at (1, 1/2), single-variable crossovers on
    the two edges, and 1 beyond both.
    """
    _, sol_star = _Saddles(model).peak()
    if s < 1.0 - KRONECKER_TOL or t < 0.5 - KRONECKER_TOL:
        return 0.0
    s_edge = abs(s - 1.0) <= KRONECKER_TOL
    t_edge = abs(t - 0.5) <= KRONECKER_TOL
    if not (s_edge or t_edge):
        return 1.0
    # beyond an edge (s > 1 or t > 1/2) that delta has already sharpened
    return _x1_kernel(lam_f if s_edge else 0.0, lam_n if t_edge else 0.0,
                      sol_star.beta, abs(sol_star.beta2))


@asymptotic_form
def x2_powerlaw(model: LocalModel, n: float, s: float, lam_f: float,
                V: float) -> float:
    """Limit of X2 under f - 1/2 = lam_f V^-s at filling n.

    0 for s < 1/2, the erfc crossover exactly at s = 1/2, a linear-plus-
    deficit form on 1/2 < s <= 1, and the pure sqrt(V) deficit beyond.
    """
    sol = _Saddles(model).at(n, "x2_powerlaw")
    beta, ab1, ab2 = sol.beta, abs(sol.beta1), abs(sol.beta2)
    if ab1 == 0.0:
        raise NumericalError("X2 is undefined at beta'(n) = 0 (n = n*)")
    if s < 0.5 - KRONECKER_TOL:
        return 0.0
    if abs(s - 0.5) <= KRONECKER_TOL:
        return _x2_kernel(V, abs(lam_f) / math.sqrt(V), beta, ab1, ab2)
    deficit = ab1 * math.sqrt(V / (_TWO_PI * ab2))
    if s <= 1.0 + KRONECKER_TOL:
        return abs(lam_f) * V ** (1.0 - s) * beta - deficit
    return -deficit


# -- variance ----------------------------------------------------------------

@asymptotic_form
def asymptotic_variance(model: LocalModel, V: float, f: float,
                        n: float) -> AsymptoticVariance:
    """Leading-order variance: prefactor * V^(3/2) * exp(-beta V).

    The shape factor f(1-f) is reduced by 1/(2 pi) exactly at f = 1/2;
    the prefactor is divided by the model's period g.
    Returned with the log side channel since the value underflows quickly.
    """
    return _asymptotic_variance(_Saddles(model), V, f, n)


def _asymptotic_variance(saddles: _Saddles, V: float, f: float,
                         n: float) -> AsymptoticVariance:
    f = _normalized_fraction(f)
    sol = saddles.at(n, "asymptotic_variance")
    at_half = abs(f - 0.5) < KRONECKER_TOL
    shape = f * (1.0 - f) - (1.0 / _TWO_PI if at_half else 0.0)
    # the variance goes as 1/d_N, and a model of period g has g saddle
    # points, so g times the one-saddle d_N (`beta_family`)
    prefactor = (math.sqrt(_TWO_PI) * sol.beta1 * sol.beta1
                 / abs(sol.beta2) ** 1.5 * shape * V ** 1.5
                 / saddles.model.period)
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
    """Exact mean entropy for N labeled particles on V sites, V_A in A: 0 at
    V_A = 0 and V, else the block sum with d_A = V_A^N_A, weights C(N, N_A)
    d_A d_B and d_N = V^N, refused above `budget.check_labeled_work`."""
    BipartitionSpec(V, N, V_A)  # refuses a float, bool or out-of-range size
    if V_A in (0, V):
        return 0.0
    budget.check_labeled_work(V, N)
    sides = ((V_A ** n_a, (V - V_A) ** (N - n_a)) for n_a in range(N + 1))
    blocks = ((math.comb(N, n_a) * d_a * d_b, d_a, d_b)
              for n_a, (d_a, d_b) in enumerate(sides))
    return _block_sums(blocks, V ** N, 0, False)[0]


@asymptotic_form
def distinguishable_asymptotic(V: float, N: float,
                               V_A: float) -> DistinguishableTerms:
    """Labeled-particle mean decomposition c1 V lnV + c2 V + c3 sqrt(V) lnV."""
    if not 0 <= V_A <= V:
        raise DomainError(f"V_A must lie in [0, V], got {V_A}")
    if N < 0:
        raise DomainError(f"N must be nonnegative, got {N}")
    if V_A in (0, V):  # one side is empty
        return DistinguishableTerms(0.0, 0.0, 0.0, 0.0)
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

# the panel entries `report` computes, by method key
METHODS = ("exact", "asymptotic", "resolved", "exact_variance",
           "asymptotic_variance")


def report(model: LocalModel, specs,
           methods: tuple[str, ...] = METHODS) -> list[EntropyReport]:
    """The requested mean/variance panel of every cut in `specs`, the
    bipartitions of one request, in their order; 0 for every method at the
    boundary cuts V_A = 0 and V, where one side is trivial.

    It refuses (DomainError or InfeasibleSizeError), in this order and
    before any table: `methods` that is a string or holds a key outside
    METHODS; a sector empty by counting (`BipartitionSpec.refuse_empty`:
    N above V n_max or not a multiple of the period), at every cut; with
    an exact method, sums
    above the budget or at V above 4000; then the asymptotic columns,
    evaluated once per mirrored cut where it first appears, also outside
    the float range.  Then `_exact_sums` builds tables.  Each panel of a
    page curve equals that of its cut alone, and the mirrored cuts V_A
    and V - V_A differ in V_A and f alone."""
    if isinstance(methods, str):
        raise DomainError(f"report methods must be a sequence of method "
                          f"keys, got the string {methods!r}")
    unknown = [key for key in methods if key not in METHODS]
    if unknown:
        raise DomainError(f"unknown report method(s) {', '.join(unknown)}; "
                          f"choose from {', '.join(METHODS)}")
    specs = list(specs)
    for spec in {(spec.V, spec.N): spec for spec in specs}.values():
        spec.refuse_empty(model)
    want_variance = "exact_variance" in methods
    want_exact = want_variance or "exact" in methods
    if want_exact:
        budget.check_exact_work(model, specs, want_variance)
        if any(spec.V > _EXACT_V_LIMIT for spec in specs
               if spec.mirrored_cut[2]):
            raise InfeasibleSizeError(
                f"exact sum limited to V <= {_EXACT_V_LIMIT}")
    saddles = _Saddles(model)
    columns = {}  # mirrored cut -> its (asym, resolved, asym_var)
    cuts = []  # (f, n, mirrored cut) of each spec
    for spec in specs:
        f, n, cut = spec.f, spec.n, spec.mirrored_cut
        cuts.append((f, n, cut))
        if cut not in columns:
            columns[cut] = in_float_range(lambda: _asymptotic_columns(
                saddles, cut, n, methods), V=spec.V)
    sums = _exact_sums(model, specs, want_variance) if want_exact else {}
    # a cut without sums is a boundary cut, or no exact method was asked
    no_sums = (0.0, VarianceEstimate(0.0, None, 0.0))
    reports = []
    for spec, (f, n, cut) in zip(specs, cuts):
        mean, var = sums.get(cut, no_sums)
        asym, resolved, asym_var = columns[cut]
        reports.append(EntropyReport(
            spec.V, spec.N, spec.V_A, f, n,
            mean if "exact" in methods else None, asym, resolved,
            var if want_variance else None, asym_var))
    return reports


def _asymptotic_columns(saddles: _Saddles, cut: tuple[int, int, int],
                        n: float, methods) -> list:
    """The asymptotic, resolved and asymptotic_variance columns of `report`
    (None where not in `methods`) of a mirrored cut (V, N, min(V_A, V -
    V_A)) at filling n, evaluated at the correctly rounded fraction
    min(V_A, V - V_A) / V, which the cuts V_A and V - V_A share."""
    V, _, smaller = cut
    kernels = {"asymptotic": _asymptotic_terms,
               "resolved": _resolved_average,
               "asymptotic_variance": _asymptotic_variance}
    if not smaller:  # one side is trivial
        zeros = {"asymptotic": AsymptoticTerms(0.0, 0.0, 0.0, 0.0, False,
                                               False),
                 "resolved": 0.0,
                 "asymptotic_variance": AsymptoticVariance(0.0, 0.0, 0.0,
                                                           None)}
        return [zeros[key] if key in methods else None for key in kernels]
    # float(V) before f: past the float range, smaller / V underflows
    v = float(V)
    f = smaller / V
    return [kernel(saddles, v, f, n) if key in methods else None
            for key, kernel in kernels.items()]


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

    def peak(self):
        """(n*, the saddle solution at n*); refused for unbounded models."""
        if self.star is None:
            raise DomainError("X1 needs a finite n_max (peak filling)")
        return self.star, self.at(self.star)
