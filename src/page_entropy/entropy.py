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

A request is `Sector` records, a sector (V, N) and its cuts V_A each (a
page curve: range(V + 1)); `report` solves each shared quantity once per
record.  The exact sums of the cuts V_A and V - V_A are the same bit for
bit (the block kernels are symmetric in d_A, d_B and `math.fsum` is
correctly rounded, so block order cannot matter), and the sector's
distinct cuts min(V_A, V - V_A) are swept in ascending order: a cut one
site past the previous one steps that cut's two dimension tables by one
factor of zeta = P/Q each (exact series products and quotients), instead
of building them anew, and reads its blocks from them by index.  At
2N = V n_max the tables of a palindromic P (fermions, spin_j, capped
bosons) read the same backwards over the cut's N_A, which is checked on
the tables themselves, and at V_A = V/2 block N - N_A is block N_A with
its sides swapped; then each mirrored pair of blocks is evaluated once
and its terms summed twice, which fsum's correct rounding leaves
bit-identical.  d_N and Psi, Psi' of d_N + 1 are taken once per sector,
from the weights of its first cut.

The asymptotic columns of a sector are one page curve (`_SectorCurve`):
on its first nontrivial cut it solves the constants its columns share,
each once (the saddle solutions at n and n*, sqrt(V), V^1.5, the f = 1/2
deficit, the variance head and exponent, the X1 and X2 arguments), and
then evaluates each mirrored cut once, at the correctly rounded fraction
f = min(V_A, V - V_A) / V (one int / int true division), which the two
cuts share with one log1p(-f); 1 - fl(V_A / V) would cancel as V_A
nears V.  Every constant is the left-to-right prefix of the expression
it stands in, so a cut of the curve and the one-cut functions
(`asymptotic_terms`, `resolved_average`, `asymptotic_variance`, each a
curve of one cut) agree bit for bit.

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

Every cut's N_A and tables come from its record's `Sector.cut_tables`.
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


class Sector(NamedTuple("Sector", [("V", int), ("N", int), ("cuts", tuple)])):
    """A fixed-N sector, V sites and N particles, and the cuts V_A of one
    request over it in request order: a `range` (a page sweep) or a tuple
    (any other iterable is kept as one, order and repeats too).  Each cut
    is refused (DomainError) unless V, N and V_A are ints with V >= 1,
    0 <= V_A <= V and N >= 0, a range's by its first and last values."""
    __slots__ = ()

    def __new__(cls, V: int, N: int, cuts):
        cuts = cuts if type(cuts) is range else tuple(cuts)
        for V_A in (*cuts[:1], *cuts[-1:]) if type(cuts) is range else cuts:
            if not (type(V) is type(N) is type(V_A) is int):
                raise DomainError(f"need integer V, N and V_A, got {V!r}, "
                                  f"{N!r}, {V_A!r}")
            if V < 1:
                raise DomainError(f"V must be >= 1, got {V}")
            if not 0 <= V_A <= V:
                raise DomainError(f"V_A must lie in [0, V], got {V_A}")
            if N < 0:
                raise DomainError(f"N must be nonnegative, got {N}")
        return super().__new__(cls, V, N, cuts)

    @property
    def n(self) -> float:
        try:
            return self.N / self.V
        except OverflowError:
            raise DomainError(f"filling N/V with V={self.V} is beyond the "
                              f"float range") from None

    @property
    def mirrored_cuts(self):
        """The distinct mirrored cuts min(V_A, V - V_A) of `cuts`, in order
        of first appearance: 0 .. V // 2 for the sweep range(V + 1)."""
        V = self.V
        if self.cuts == range(V + 1):
            return range(V // 2 + 1)
        return list(dict.fromkeys([min(v_a, V - v_a) for v_a in self.cuts]))

    def cut_tables(self, V_A: int, n_max: Optional[int]) -> tuple:
        """(N_A of the blocks nonempty on both sides, (sites, N_cap) of the
        A and B tables they read) of the cut V_A, n_max (or None) a site's
        cap; no N_A only for N above V n_max."""
        V, N = self.V, self.N
        if n_max is None:
            lo, hi = (0 if V_A < V else N), (N if V_A > 0 else 0)
        else:
            lo, hi = max(0, N - (V - V_A) * n_max), min(N, V_A * n_max)
        return range(lo, hi + 1), ((V_A, hi), (V - V_A, N - lo))

    def refuse_empty(self, model: LocalModel) -> None:
        """Refuse (DomainError) a sector that counting alone shows empty:
        N above V n_max, or N not a multiple of the model's `period`."""
        if self.N % model.period or (model.n_max is not None
                                     and self.N > self.V * model.n_max):
            raise _empty_sector(self.V, self.N, model)


@dataclass(frozen=True)
class BipartitionSpec:
    """A contiguous bipartition of a fixed-N sector: V sites, V_A of them in A."""
    V: int
    N: int
    V_A: int

    def __post_init__(self):
        Sector(self.V, self.N, (self.V_A,))  # a record's checks and messages

    @property
    def sector(self) -> Sector:
        """This cut as a one-cut request."""
        return Sector(self.V, self.N, (self.V_A,))

    @property
    def n(self) -> float:
        return self.sector.n

    @property
    def f(self) -> float:
        return self.V_A / self.V

    def blocks(self, model: LocalModel, build_table) -> list[tuple]:
        """(N_A, d_A, d_B) of each nonempty block, from the two tables of
        `Sector.cut_tables` built by build_table(model, sites, N_cap).  A
        cut with none is refused (DomainError), with no N_A before a table."""
        n_a_values, tables = self.sector.cut_tables(self.V_A, model.n_max)
        blocks = []
        if n_a_values:
            table_a, table_b = (build_table(model, *args) for args in tables)
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
    return report(model, (spec.sector,), ("exact",))[0].exact_mean


def exact_variance(model: LocalModel, spec: BipartitionSpec) -> VarianceEstimate:
    """Sector variance of the subsystem entropy, exact finite-size sum.

    The result decays like exp(-beta V) and may underflow; `log_value`
    stays finite as long as the scaled numerator is positive.  A one-cut
    `report`: VarianceEstimate(0.0, None, 0.0) at the trivial cuts.
    """
    return report(model, (spec.sector,), ("exact_variance",))[0].exact_variance


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


def _exact_sums(model: LocalModel, sector: Sector,
                want_variance: bool) -> dict:
    """{mirrored cut: (mean, VarianceEstimate or None)} of the cuts
    0 < V_A < V of `sector`, swept as above."""
    V, N = sector.V, sector.N
    tables = {}  # sites -> its table, for the two sides of the last cut

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
    shared = None  # (d_N, its polygammas, phi_max), from the first cut
    for V_A in sorted(cut for cut in sector.mirrored_cuts if cut):
        n_a_values, sides = sector.cut_tables(V_A, model.n_max)
        table_a, table_b = (table(model, *args) for args in sides)
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
        if shared is None:
            d_n = sum(weights) + sum(weights[:twice])
            if not d_n:
                raise _empty_sector(V, N, model)
            shared = (d_n, _polygammas(d_n, want_variance),
                      ln_big(d_n + 1) + 1.0)
        mean, numerator = _window_sums(weights, table_a, table_b, lo, N,
                                       twice, *shared)
        sums[V_A] = (mean, _variance_estimate(numerator, shared[0])
                     if want_variance else None)
        del side_a, side_b, weights  # freed before the next cut's
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
    return _one_cut(model, V, f, n, "asymptotic")


def asymptotic_average(model: LocalModel, spec: BipartitionSpec) -> float:
    """Value of the large-V mean decomposition for a concrete bipartition,
    as a one-cut `report` gives it: 0 at the trivial cuts V_A = 0 and V."""
    return report(model, (spec.sector,), ("asymptotic",))[0].asymptotic.value


@asymptotic_form
def resolved_average(model: LocalModel, V: float, f: float, n: float) -> float:
    """Finite-V page curve with the Kronecker deltas resolved by erfc kernels.

    Equals a V + c off the special points, and crosses over smoothly
    through f = 1/2 (sqrt(V) deficit) and n = n* (extra -1/2); valid for
    all 0 < f < 1 at moderate V.
    """
    _refuse_small(V)
    return _one_cut(model, V, f, n, "resolved")


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
    f = _normalized_fraction(f)
    star, sol_star = _Saddles(model).peak()
    return _x1_kernel((f - 0.5) * V, (n - star) * math.sqrt(V),
                      sol_star.beta, abs(sol_star.beta2))


@asymptotic_form
def resolve_x2(model: LocalModel, V: float, f: float, n: float) -> float:
    """sqrt(V)-deficit crossover X2 at the physical scaling.

    Undefined where beta'(n) = 0 (i.e. exactly at n*): the kernel divides
    by |beta'|; callers there are on the delta itself.
    """
    sol = _Saddles(model).at(n, "resolve_x2")
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
    return _one_cut(model, V, f, n, "asymptotic_variance")


# -- distinguishable (labeled) particles -------------------------------------

def distinguishable_exact_average(V: int, N: int, V_A: int) -> float:
    """Exact mean entropy for N labeled particles on V sites, V_A in A: 0 at
    V_A = 0 and V, else the block sum with d_A = V_A^N_A, weights C(N, N_A)
    d_A d_B and d_N = V^N, refused above `budget.check_labeled_work`."""
    Sector(V, N, (V_A,))  # refuses a float, bool or out-of-range size
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


# -- the page curve of one sector ---------------------------------------------

# the asymptotic columns of a curve, in the order it evaluates them, each
# with the public function that names it in a refusal
_CURVE_COLUMNS = {"asymptotic": "asymptotic_terms",
                  "resolved": "resolved_average",
                  "asymptotic_variance": "asymptotic_variance"}

# each column at the trivial cuts V_A = 0 and V
_TRIVIAL_COLUMNS = (AsymptoticTerms(0.0, 0.0, 0.0, 0.0, False, False), 0.0,
                    AsymptoticVariance(0.0, 0.0, 0.0, None))


class _SectorCurve:
    """The asymptotic columns of one sector, V sites at the filling n, over
    its cuts: `wanted` flags them in `_CURVE_COLUMNS` order.  The first
    `columns` call solves the constants of the wanted columns, each once;
    a request whose cuts are all trivial solves nothing."""

    def __init__(self, saddles: _Saddles, V, n: float, wanted):
        self.saddles, self.V, self.n, self.wanted = saddles, V, n, wanted
        self.solved = False

    def _solve(self) -> None:
        """Refuse V < 4 for `resolved` and a filling on the boundary, in
        column order (the boundary named by the first wanted column's
        public function), then solve the wanted columns' constants."""
        asymptotic, resolved, variance = self.wanted
        self.v = v = float(self.V)  # past the float range: OverflowError
        for (key, where), wanted in zip(_CURVE_COLUMNS.items(),
                                        self.wanted):
            if wanted:
                if key == "resolved":
                    _refuse_small(v)
                sol = self.saddles.at(self.n, where)
        if asymptotic or resolved:
            self.beta, self.root_v = sol.beta, math.sqrt(v)
            star = self.saddles.star
        if asymptotic:
            self.at_star = (star is not None
                            and abs(self.n - star) < KRONECKER_TOL)
            # b, the sqrt(V) coefficient at f = 1/2
            self.deficit = (-abs(sol.beta1)
                            / math.sqrt(_TWO_PI * abs(sol.beta2)))
        if resolved:
            self.x2 = ((sol.beta, abs(sol.beta1), abs(sol.beta2))
                       if sol.beta1 != 0.0 else None)
            self.x1 = None
            if star is not None:
                sol_star = self.saddles.at(star)
                self.x1 = ((self.n - star) * self.root_v, sol_star.beta,
                           abs(sol_star.beta2))
        if variance:
            # the variance goes as 1/d_N, and a model of period g has g
            # saddle points, so g times the one-saddle d_N (`beta_family`)
            self.head = (math.sqrt(_TWO_PI) * sol.beta1 * sol.beta1
                         / abs(sol.beta2) ** 1.5)
            self.v15, self.period = v ** 1.5, self.saddles.model.period
            self.exponent = -sol.beta * v
        self.solved = True

    def columns(self, f: float) -> list:
        """[asymptotic, resolved, asymptotic_variance] of the cut whose
        smaller side is the fraction f in (0, 1/2], None where not wanted."""
        if not self.solved:
            self._solve()
        asymptotic, resolved, variance = self.wanted
        at_half = abs(f - 0.5) < KRONECKER_TOL
        out = [None, None, None]
        if asymptotic or resolved:
            a = self.beta * f
            edge = f + math.log1p(-f)
        if asymptotic:
            b = self.deficit if at_half else 0.0
            c = 0.5 * (edge - (1.0 if at_half and self.at_star else 0.0))
            out[0] = AsymptoticTerms(a, b, c, a * self.v + b * self.root_v + c,
                                     at_half, self.at_star)
        if resolved:
            value = a * self.v + 0.5 * edge
            if self.x2 is not None:
                value += _x2_kernel(self.v, abs(f - 0.5), *self.x2)
            if self.x1 is not None:
                value -= 0.5 * _x1_kernel((f - 0.5) * self.v, *self.x1)
            out[1] = value
        if variance:
            shape = f * (1.0 - f) - (1.0 / _TWO_PI if at_half else 0.0)
            prefactor = self.head * shape * self.v15 / self.period
            log_value, value = None, 0.0
            if prefactor > 0.0:
                log_value = math.log(prefactor) + self.exponent
                if log_value > -745.0:
                    value = math.exp(log_value)
            out[2] = AsymptoticVariance(value, prefactor, self.exponent,
                                        log_value)
        return out


def _one_cut(model: LocalModel, V: float, f: float, n: float, column: str):
    """The `column` (a `_CURVE_COLUMNS` key) of the one-cut curve of `model`
    at V, fraction f (mapped to min(f, 1 - f) first) and n."""
    f = _normalized_fraction(f)
    wanted = [key == column for key in _CURVE_COLUMNS]
    curve = _SectorCurve(_Saddles(model), V, n, wanted)
    return curve.columns(f)[wanted.index(True)]


def _refuse_small(V: float) -> None:
    """The resolved form's size limit."""
    if V < 4:
        raise DomainError("resolved_average needs V >= 4")


# -- combined report ----------------------------------------------------------

# the panel entries `report` computes, by method key
METHODS = ("exact", "asymptotic", "resolved", "exact_variance",
           "asymptotic_variance")


def report(model: LocalModel, sectors,
           methods: tuple[str, ...] = METHODS) -> list[EntropyReport]:
    """The requested mean/variance panel of each cut of `sectors`, the
    `Sector` records of one request, in request order; 0 for every method
    at the boundary cuts V_A = 0 and V, where one side is trivial.

    It refuses (DomainError or InfeasibleSizeError), in this order and
    before any table: `methods` that is a string or holds a key outside
    METHODS; a record with cuts whose sector is empty by counting
    (`Sector.refuse_empty`); with an exact method, sums above the budget
    or at V above 4000; then each record's asymptotic columns, evaluated
    by its `_SectorCurve` once per mirrored cut where it first appears,
    in one float-range guard (once its first nontrivial cut has solved
    the constants, a cut can only overflow or give inf or NaN).  Then
    `_exact_sums` sweeps each distinct record once.  Each panel equals
    that of its cut alone, and the mirrored cuts V_A and V - V_A differ in
    V_A and f alone."""
    if isinstance(methods, str):
        raise DomainError(f"report methods must be a sequence of method "
                          f"keys, got the string {methods!r}")
    unknown = [key for key in methods if key not in METHODS]
    if unknown:
        raise DomainError(f"unknown report method(s) {', '.join(unknown)}; "
                          f"choose from {', '.join(METHODS)}")
    sectors = [sector for sector in sectors if sector.cuts]
    for sector in sectors:
        sector.refuse_empty(model)
    want_variance = "exact_variance" in methods
    want_mean = "exact" in methods
    want_exact = want_variance or want_mean
    if want_exact:
        budget.check_exact_work(model, sectors, want_variance)
        if any(sector.V > _EXACT_V_LIMIT and any(sector.mirrored_cuts)
               for sector in sectors):
            raise InfeasibleSizeError(
                f"exact sum limited to V <= {_EXACT_V_LIMIT}")
    saddles = _Saddles(model)
    wanted = [key in methods for key in _CURVE_COLUMNS]
    trivial = [zero if flag else None
               for zero, flag in zip(_TRIVIAL_COLUMNS, wanted)]
    curves = {}  # each distinct record -> (n, {mirrored cut: its columns})
    for sector in dict.fromkeys(sectors):
        V, cuts = sector.V, sector.mirrored_cuts
        curve = _SectorCurve(saddles, V, sector.n, wanted)
        curves[sector] = curve.n, dict(zip(cuts, in_float_range(
            lambda: [curve.columns(cut / V) if cut else trivial
                     for cut in cuts], V=V)))
    # a cut without sums is a boundary cut, or no exact method was asked
    no_sums = (0.0, VarianceEstimate(0.0, None, 0.0))
    panels = {}  # each distinct record -> {mirrored cut: its panel from n}
    for sector, (n, columns) in curves.items():
        sums = _exact_sums(model, sector, want_variance) if want_exact else {}
        panels[sector] = {
            cut: (n, mean if want_mean else None, asym, resolved,
                  var if want_variance else None, asym_var)
            for cut, (asym, resolved, asym_var) in columns.items()
            for mean, var in [sums.get(cut, no_sums)]}
    reports, make = [], EntropyReport._make
    for sector in sectors:
        V, N, panel = sector.V, sector.N, panels[sector]
        reports += [make((V, N, v_a, v_a / V,
                          *panel[v_a if v_a + v_a <= V else V - v_a]))
                    for v_a in sector.cuts]
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

    def peak(self):
        """(n*, the saddle solution at n*); refused for unbounded models."""
        if self.star is None:
            raise DomainError("X1 needs a finite n_max (peak filling)")
        return self.star, self.at(self.star)
