"""Exact sector dimensions d_N(V) = [z^N] zeta(z)^V.

Everything here is exact integer arithmetic on Python ints (which serve as
the arbitrary-precision dimension type throughout the package).  For
zeta = P/Q, h = zeta^V solves the first-order equation
P Q h' = V (P'Q - P Q') h, so each d_N follows from the previous deg(PQ)
entries with small-integer multipliers: Miller's recurrence for powers of
a power series (Knuth, TAOCP Vol. 2, 4.7), extended to a rational base.
Floats never appear, so dimensions with thousands of digits are fine.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError, checked
from .local_model import LocalModel, _derivative, _over, _times


@checked
def dim_fixed_n(model: LocalModel, V: int, N: int) -> int:
    """Dimension of the N-particle sector of V sites; 0 for an empty sector."""
    if V >= 0 and (N < 0 or model.n_max is not None and N > V * model.n_max):
        return 0
    return dim_table(model, V, N)[N]


@checked
def dim_table(model: LocalModel, V: int, N_cap: int) -> tuple[int, ...]:
    """All sector dimensions d_0 .. d_{N_cap} for V sites, exact.

    With A = P Q and R = P'Q - P Q', the coefficients of z^(m-1) in
    A h' = V R h give d_0 = a_0^V and, for m >= 1,

        m a_0 d_m = sum_{i=1..deg A} (V R_{i-1} - (m - i) A_i) d_{m-i},

    an exact division.
    """
    if V < 0:
        raise DomainError(f"V must be nonnegative, got {V}")
    if N_cap < 0:
        raise DomainError(f"N_cap must be nonnegative, got {N_cap}")
    # beyond V * n_max every entry is 0
    N_eff = N_cap if model.n_max is None else min(N_cap, V * model.n_max)
    model.coefficient(N_eff)  # refuses a negative a_k up to the cap
    # A_i and R_{i-1} with i <= N_eff read P and Q only up to z^N_eff
    P, Q = model.P[:N_eff + 1], model.Q[:N_eff + 1]
    size = len(P) + len(Q) - 1  # coefficients of A = P Q; R has fewer
    A = _times(P, Q, size)
    R = [x - y for x, y in zip(_times(_derivative(P), Q, size),
                               _times(P, _derivative(Q), size))]
    # terms with i > N_eff only ever meet d_{m-i} with m - i < 0
    reach = min(len(A) - 1, N_eff)
    # (i, V R_{i-1} + i A_i, A_i): the multiplier of d_{m-i} is u - m a
    steps = [(i, V * R[i - 1] + i * A[i], A[i]) for i in range(1, reach + 1)]
    a_0 = P[0]
    h = [0] * reach + [a_0 ** V]  # d_m sits at h[reach + m]
    for m in range(1, N_eff + 1):
        top = reach + m
        h.append(sum((u - m * a) * h[top - i] for i, u, a in steps)
                 // (m * a_0))
    return tuple(h[reach:]) + (0,) * (N_cap - N_eff)


def grow_table(model: LocalModel, table, N_cap: int) -> list[int]:
    """`dim_table(model, V + 1, N_cap)` from `table`, the d_m of V sites,
    which must hold every nonzero d_m with m <= N_cap: times P, then
    divided by Q as a power series (Q(0) = 1, so nothing is divided)."""
    return _over(_times(table, model.P, N_cap + 1), model.Q)


def shrink_table(model: LocalModel, table, N_cap: int) -> list[int]:
    """`dim_table(model, V - 1, N_cap)` from `table`, the d_m of V >= 1
    sites, which must hold every nonzero d_m with m <= N_cap: times Q,
    then divided exactly by P (a_0 = P(0) >= 1)."""
    return _over(_times(table, model.Q, N_cap + 1), model.P)


@checked
def extended_binomial_closed(V: int, N: int, n_max: int) -> int:
    """Closed form for [z^N] (1 + z + ... + z^n_max)^V.

    Alternating sum of ordinary binomials; exact, and independent of the
    recurrence route for cross-checks.
    """
    if V < 0 or n_max < 1:
        raise DomainError("extended binomial needs V >= 0 and n_max >= 1")
    if N < 0 or N > V * n_max:
        return 0
    if V == 0:  # only N = 0 is left
        return 1
    total = 0
    period = n_max + 1
    for k in range(min(V, N // period) + 1):
        term = comb(V, k) * comb(V + N - k * period - 1, V - 1)
        total += -term if k & 1 else term
    return total

