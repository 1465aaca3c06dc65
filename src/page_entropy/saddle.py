"""Saddle-point solution for the sector-dimension growth rate.

For filling n = N/V, the leading behavior ln d_N ~ V beta(n) comes from the
unique positive root z0 of

    Z(z) = z zeta'(z) / zeta(z) = n,

with beta(n) = ln zeta(z0) - n ln z0.  Z is strictly increasing from 0 to
n_max (or to infinity inside the convergence disk), so the root is
bracketed and then found by safeguarded Newton steps: each step tightens
the bracket, and a step that would leave it bisects instead.  First and
second derivatives of beta come in closed form from the same evaluation,
never from finite differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, NumericalError, checked, finite_real
from .local_model import LocalModel, eval_zeta

# n this close to a support edge snaps to the analytic boundary values.
_BOUNDARY_SNAP = 1e-9
_MAX_EXPANSIONS = 200


@dataclass(frozen=True)
class SaddleSolution:
    """beta family at one filling: beta and its first two n-derivatives.

    beta1 = -ln z0 and beta2 = -z0'/z0 in closed form; alpha is the
    prefactor g sqrt(-beta2 / 2 pi) of the leading dimension asymptotics,
    g the model's `period`: a model of period g has g saddle points on the
    circle |z| = z0, each adding the same share to [z^N] zeta^V (Flajolet
    & Sedgewick, Analytic Combinatorics (2009), VIII.8).
    At a support boundary (n -> 0 or n -> n_max) the derivatives diverge:
    the record carries the analytic beta value, signed infinities, and
    at_boundary=True.
    """
    n: float
    z0: float
    beta: float
    beta1: float
    beta2: float
    alpha: float
    at_boundary: bool = False


@checked
def solve_z0(model: LocalModel, n: float) -> float:
    """Root of Z(z) = n, relative error < 1e-13, for 0 < n (< n_max with
    finite support); for unbounded models it lies in the convergence disk."""
    n = float(n)
    if not n > 0.0:
        raise DomainError(f"filling must be positive, got n={n}")
    if model.n_max is not None and n >= model.n_max:
        raise DomainError(f"filling n={n} is not below n_max={model.n_max}")
    lo, hi = _initial_bracket(model, n)
    z = 0.5 * (lo + hi)
    for _ in range(60):
        f, f1, f2 = eval_zeta(model, z)
        ratio = f1 / f
        value = z * ratio - n
        # tighten the bracket first so an endpoint hit is not rejected
        if value > 0.0:
            hi = z
        else:
            lo = z
        deriv = ratio + z * (f2 / f - ratio * ratio)
        z_next = z - value / deriv
        if not lo <= z_next <= hi:
            z_next = 0.5 * (lo + hi)
        if abs(z_next - z) <= 1e-15 * abs(z_next):
            return z_next
        z = z_next
    if abs(_z_of(model, z) - n) <= 1e-10 * n:
        return z
    raise NumericalError(f"saddle Newton iteration stalled at n={n} "
                         f"for {model.label}")


@checked
def beta_family(model: LocalModel, n: float) -> SaddleSolution:
    """SaddleSolution at filling n, snapping to analytic boundary values.

    Within 1e-9 of n = 0 the exact limits are beta = ln a_0, beta' = +inf;
    within 1e-9 of a finite n_max they are beta = ln a_{n_max},
    beta' = -inf.  Both carry beta2 = -inf and at_boundary=True.  Any
    other n goes to `solve_z0`, which refuses it unless it is interior.
    """
    if abs(n) <= _BOUNDARY_SNAP:
        return SaddleSolution(n=0.0, z0=0.0, beta=math.log(model.coefficient(0)),
                              beta1=math.inf, beta2=-math.inf, alpha=math.inf,
                              at_boundary=True)
    if model.n_max is not None and abs(n - model.n_max) <= _BOUNDARY_SNAP:
        return SaddleSolution(n=float(model.n_max), z0=math.inf,
                              beta=math.log(model.coefficient(model.n_max)),
                              beta1=-math.inf, beta2=-math.inf,
                              alpha=math.inf, at_boundary=True)

    z0 = solve_z0(model, n)
    n = float(n)
    f, f1, f2 = eval_zeta(model, z0)
    beta = math.log(f) - n * math.log(z0)
    beta1 = -math.log(z0)
    ratio = f1 / f
    psi2 = n / (z0 * z0) + f2 / f - ratio * ratio
    beta2 = -1.0 / (z0 * z0 * psi2)
    alpha = model.period * math.sqrt(max(-beta2, 0.0) / (2.0 * math.pi))
    return SaddleSolution(n=n, z0=z0, beta=beta, beta1=beta1, beta2=beta2,
                          alpha=alpha)


def n_star(model: LocalModel) -> Optional[float]:
    """Filling where beta peaks: zeta'(1)/zeta(1) for finite support, else None.

    Unbounded models have beta strictly increasing, so no peak exists.
    """
    if model.n_max is None:
        return None
    f, f1, _ = eval_zeta(model, 1.0)
    return f1 / f


def asymptotic_form(kernel):
    """The guard of every public asymptotic function: DomainError unless V
    is a number >= 1 within the float range, then the package's argument
    check (`errors.checked`), then the body in `in_float_range`."""
    names = kernel.__code__.co_varnames[:kernel.__code__.co_argcount]
    body = checked(kernel)

    @functools.wraps(kernel)
    def guarded(*args, **kwargs):
        named = dict(zip(names, args), **kwargs)
        named.pop("model", None)
        V = named.get("V", 1)
        if not (finite_real(V) and V >= 1):
            raise DomainError(f"{kernel.__name__} needs V >= 1 within the "
                              f"float range, got {V!r}")
        return in_float_range(lambda: body(*args, **kwargs), **named)
    return guarded


def in_float_range(compute, **at):
    """compute(), refused (DomainError) where the asymptotic forms leave the
    float range at the named values `at`: a math call or float(V) raises
    OverflowError, or a value is inf or NaN.  compute() gives one value, a
    float or a record with a `value`, or a list of those and None."""
    try:
        result = compute()
        values = result if isinstance(result, list) else (result,)
        if all(math.isfinite(x if isinstance(x, float) else x.value)
               for x in values if x is not None):
            return result
    except OverflowError:
        pass
    raise DomainError("the asymptotic forms overflow the float range at "
                      + ", ".join(f"{key}={x!r}" for key, x in at.items()))


@asymptotic_form
def ln_dim_asymptotic(model: LocalModel, V: float, n: float) -> float:
    """Leading asymptotics of ln d_N: V beta - (1/2) ln V + ln alpha."""
    sol = beta_family(model, n)
    if sol.at_boundary:
        raise DomainError("dimension asymptotics are not defined at the "
                          "support boundary")
    return V * sol.beta - 0.5 * math.log(V) + math.log(sol.alpha)


def _z_of(model: LocalModel, z: float) -> float:
    f, f1, _ = eval_zeta(model, z)
    return z * f1 / f


def _initial_bracket(model: LocalModel, n: float):
    """(lo, hi) with Z(lo) < n < Z(hi): lo walks down from min(1, r/2) by
    factors of 4, hi up from 1 by factors of 4, or toward a finite radius r
    as r - (r/4) 4^-k (kept above lo), refused once that rounds to r."""
    radius = model.radius
    lo = _walk(lambda k: math.ldexp(min(1.0, 0.5 * radius), -2 * k),
               lambda z: _z_of(model, z) >= n, "z = 0")
    if model.n_max is not None:
        return lo, _walk(lambda k: math.ldexp(1.0, 2 * k),
                         lambda z: _z_of(model, z) <= n, "z = inf")

    def short_of_radius(z):
        if z < radius:
            return z <= lo or _z_of(model, z) <= n
        raise NumericalError(f"bracketing failed toward the radius at n={n}")
    return lo, _walk(lambda k: radius - math.ldexp(0.25 * radius, -2 * k),
                     short_of_radius, "the radius")


def _walk(point, short, toward: str) -> float:
    """point(k) at the first k = 0 .. _MAX_EXPANSIONS where `short` (the
    point does not yet bracket n) is false; NumericalError if there is none."""
    for k in range(_MAX_EXPANSIONS + 1):
        z = point(k)
        if not short(z):
            return z
    raise NumericalError(f"bracketing failed toward {toward}")
