"""Independent oracle for the exact mean entropy of a fixed-N sector.

It shares no code with `page_entropy`: it takes a model as the integer
coefficient lists P and Q of zeta = P/Q and rebuilds every step itself.

- a_k, the local state counts, by integer power-series division of P by Q;
- the sector dimensions d_N(V) = [z^N] (sum_k a_k z^k)^V by direct
  convolution, one site at a time, with no recurrence, stepping or powering;
- the block weights rho = d_A d_B / d_N as `Fraction`s, which must sum to 1;
- the block means phi = Psi(d_N + 1) - Psi(big + 1) - (small - 1) / (2 big)
  with mpmath's digamma at 60 digits or more.
"""

from fractions import Fraction

import mpmath as mp


def coefficients(P, Q, count: int) -> list[int]:
    """a_0 .. a_{count - 1} of P/Q, each step an exact division by Q[0]."""
    a = []
    for k in range(count):
        rest = (P[k] if k < len(P) else 0) - sum(
            Q[i] * a[k - i] for i in range(1, min(k, len(Q) - 1) + 1))
        if rest % Q[0]:
            raise ValueError("P/Q has a non-integer coefficient")
        a.append(rest // Q[0])
    return a


def dimension_tables(a, sites, N: int) -> dict:
    """{s: [d_0(s), .., d_N(s)]} for each site count s in `sites`: the
    table of s + 1 sites is that of s sites convolved with a_0 .. a_N."""
    nonzero = [(k, a_k) for k, a_k in enumerate(a[:N + 1]) if a_k]
    tables = {}
    table = [1] + [0] * N  # no sites: only the empty state
    for s in range(max(sites) + 1):
        if s in sites:
            tables[s] = table
        table = [sum(a_k * table[m - k] for k, a_k in nonzero if k <= m)
                 for m in range(N + 1)]
    return tables


def mean_entropy(P, Q, V: int, N: int, V_A: int, dps: int = 60):
    """(mean, Psi(d_N + 1)): the exact mean entanglement entropy of the cut
    V_A of the (V, N) sector, and the digamma each block mean starts from,
    as mpmath numbers at `dps` digits; an empty sector raises ValueError."""
    a = coefficients(P, Q, N + 1)
    tables = dimension_tables(a, {V_A, V - V_A, V}, N)
    d_n = tables[V][N]
    if not d_n:
        raise ValueError(f"empty sector: V={V}, N={N}")
    weights = []
    for n_a in range(N + 1):
        d_a, d_b = tables[V_A][n_a], tables[V - V_A][N - n_a]
        if d_a and d_b:
            weights.append((Fraction(d_a * d_b, d_n), min(d_a, d_b),
                            max(d_a, d_b)))
    if sum(rho for rho, _, _ in weights) != 1:
        raise AssertionError("block weights do not sum to 1")
    with mp.workdps(dps):
        psi_n = mp.digamma(d_n + 1)
        total = mp.mpf(0)
        for rho, small, big in weights:
            phi = (psi_n - mp.digamma(big + 1)
                   - mp.mpf(small - 1) / (2 * big))
            total += mp.mpf(rho.numerator) / rho.denominator * phi
        return +total, psi_n
