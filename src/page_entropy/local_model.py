"""Local state-counting models as rational generating functions.

A site carries a_k >= 0 local states of charge (particle number) k, encoded
by zeta(z) = sum_k a_k z^k = P(z)/Q(z): integer polynomials P, Q with
Q(0) = 1 and no common factor.  Every catalog model has this form (fermions
1 + z, bosons 1/(1 - z), spin-j 1 + z + ... + z^(2j)), and so does every
`product` or `power` of them.  Everything else is derived from (P, Q):
a_k from the linear recurrence fixed by Q (Stanley, Enumerative
Combinatorics 1, ch. 4); n_max = deg P when Q = 1, else None; the
convergence radius, +inf when Q = 1, else the smallest positive root of Q,
the dominant singularity of a series with a_k >= 0 (Flajolet & Sedgewick,
Analytic Combinatorics, ch. IV); and zeta, zeta', zeta'' by Horner passes
over P and over the square-free factors of Q (see `eval_zeta`).
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, checked, shown

_SIGN_PROBE = 64  # a_k of unbounded models checked when built; later lazily
_ROOT_TOL = 1e-9  # relative imaginary part up to which a root of Q is real
_MAX_DEGREE = 10 ** 6  # largest catalog n_max; P is stored densely


class LocalModel:
    """Immutable site model zeta = P/Q: integer coefficient lists, lowest
    degree first, with Q(0) = 1, no common factor and a_0 = P(0) >= 1 (a
    charge-0 vacuum state, from which charges count particles)."""

    def __init__(self, label: str, P: Sequence[int], Q: Sequence[int] = (1,)):
        self.label = str(label)
        for c in [*P, *Q]:
            if type(c) is not int:
                raise DomainError(f"{self.label}: P and Q must be integers, "
                                  f"got {shown(c)}")
        self.P, self.Q = _trim(list(P)), _trim(list(Q))
        if not self.Q or self.Q[0] != 1:
            raise DomainError(f"{self.label}: Q(0) must be 1")
        if not self.P or self.P[0] < 1:
            raise DomainError(f"{self.label}: a_0 must be >= 1 "
                              "(a site needs a charge-0 vacuum state)")
        if len(self.Q) > 1 and len(_poly_gcd(self.P, self.Q)) > 1:
            raise DomainError(f"{self.label}: P and Q share a common factor")
        factors = _square_free_factors(self.Q)
        # float coefficients, highest degree first, for Horner evaluation
        try:
            self._p_rev = tuple(map(float, reversed(self.P)))
            self._q_revs = tuple(tuple(map(float, reversed(s)))
                                 for s in factors)
        except OverflowError:
            raise DomainError(f"{self.label}: coefficients of P and Q must "
                              f"lie within the double range, |c| <= "
                              f"{sys.float_info.max:.4g}") from None
        if factors:
            self.n_max = None
            self.radius = _dominant_root(factors[0], self.label)
        elif len(self.P) < 2:
            raise DomainError(f"{self.label}: no positive-charge states")
        else:
            self.n_max = len(self.P) - 1
            self.radius = math.inf
        self._a = [self.P[0]]
        self.coefficients(_SIGN_PROBE if factors else len(self.P))

    def coefficient(self, k: int) -> int:
        """a_k, exact integer; 0 outside the support."""
        if k < 0 or (self.n_max is not None and k > self.n_max):
            return 0
        a, P, Q = self._a, self.P, self.Q
        while len(a) <= k:
            j = len(a)
            value = (P[j] if j < len(P) else 0) - sum(
                Q[i] * a[j - i] for i in range(1, min(j, len(Q) - 1) + 1))
            if value < 0:
                raise DomainError(f"{self.label}: a_{j} is negative")
            a.append(value)
        return a[k]

    def coefficients(self, count: int) -> list[int]:
        """First `count` coefficients a_0 .. a_{count-1}."""
        return [self.coefficient(k) for k in range(count)]

    def to_json(self) -> str:
        """Serialize to a JSON document (see `from_json`)."""
        return json.dumps({"label": self.label, "P": self.P, "Q": self.Q},
                          indent=2)

    def __repr__(self):
        return f"LocalModel({self.label!r}, P={self.P}, Q={self.Q})"


def from_json(document) -> LocalModel:
    """Rebuild a model from `LocalModel.to_json` output (str or dict), an
    object of label, P and Q (default [1]); other keys raise ConfigError."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model document is not valid JSON: {exc}")
        except RecursionError:
            raise ConfigError("model document nests too deeply to parse") \
                from None
    if not isinstance(document, dict):
        raise ConfigError("model document must be a JSON object")
    unknown = sorted(set(document) - {"label", "P", "Q"})
    if unknown:
        raise ConfigError(f"model document has unknown key(s) "
                          f"{', '.join(map(repr, unknown))}; it takes "
                          f"label, P and Q")
    P, Q = document.get("P"), document.get("Q", [1])
    if not isinstance(P, list) or not isinstance(Q, list):
        raise ConfigError("model document needs integer lists P (and Q)")
    return LocalModel(document.get("label", "custom"), P, Q)


def parse_model(text: str) -> LocalModel:
    """Model named on the command line: a catalog name, `name:param`, or
    the path of a JSON model file."""
    if text.endswith(".json") or os.path.sep in text:
        try:
            with open(text) as fh:
                return from_json(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read model file: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read model file {text!r}: {exc}")
        except ConfigError as exc:
            raise ConfigError(f"model file {text!r}: {exc}") from None
    name, _, param = text.partition(":")
    if not param:
        return catalog(name)
    try:
        value = float(param)
    except ValueError:
        raise ConfigError(f"model parameter must be a number, got {param!r}")
    return catalog(name, value)


def eval_zeta(model: LocalModel, z: float):
    """(zeta, zeta', zeta'') at 0 < z < radius, by the quotient rule.

    Q is evaluated factor by factor, so a repeated pole such as (1 - z)^2
    stays as accurate near the radius as a simple one; the expanded
    polynomial would cancel there."""
    z = float(z)
    if not 0.0 < z < model.radius:
        raise DomainError(f"eval_zeta for {model.label} needs 0 < z < "
                          f"radius {model.radius}, got z={z}")
    p, p1, p2 = _horner(model._p_rev, z)
    q, q1, q2 = 1.0, 0.0, 0.0
    for coeffs in model._q_revs:
        s, s1, s2 = _horner(coeffs, z)
        q, q1, q2 = q * s, q1 * s + q * s1, q2 * s + 2.0 * q1 * s1 + q * s2
    f = p / q
    f1 = (p1 - f * q1) / q
    f2 = (p2 - 2.0 * f1 * q1 - f * q2) / q
    return f, f1, f2


def _horner(coeffs, z: float):
    """(c(z), c'(z), c''(z)) for coefficients given highest degree first."""
    v = d1 = d2 = 0.0
    for c in coeffs:
        d2 = d2 * z + d1
        d1 = d1 * z + v
        v = v * z + c
    return v, d1, 2.0 * d2


# -- catalog and composition ------------------------------------------------

# name -> (P, Q)
CATALOG = {
    "fermions": ((1, 1), (1,)),
    "hardcore_bosons_2species": ((1, 2), (1,)),
    "bosons": ((1,), (1, -1)),
    "bosons_2species_unordered": ((1,), (1, -2, 1)),
    "bosons_2species_ordered": ((1,), (1, -2)),
}


@checked
def catalog(name: str, param: Optional[float] = None) -> LocalModel:
    """Named catalog model.  ``spin_j`` (param j, a positive half-integer)
    and ``capped_bosons`` (param n_max >= 1) are 1 + z + ... + z^n_max,
    with n_max = 2j for spin_j."""
    if name not in (*CATALOG, "spin_j", "capped_bosons") or \
            (name in CATALOG) != (param is None):
        raise DomainError(f"no catalog model {name!r} with parameter "
                          f"{param!r} (only spin_j, capped_bosons take one)")
    if name in CATALOG:
        return LocalModel(name, *CATALOG[name])
    n_max = 2.0 * float(param) if name == "spin_j" else float(param)
    if not 1 <= n_max <= _MAX_DEGREE or abs(n_max - round(n_max)) > 1e-12:
        what = "2j" if name == "spin_j" else "n_max"
        raise DomainError(f"{name}: {what} must be an integer in "
                          f"[1, {_MAX_DEGREE}], got param {param}")
    label = (f"spin_{float(param):g}" if name == "spin_j"
             else f"capped_bosons_{round(n_max)}")
    return LocalModel(label, (1,) * (round(n_max) + 1))


def product(models: Sequence[LocalModel]) -> LocalModel:
    """All the given species on one site: P's and Q's multiply."""
    models = list(models)
    if not models:
        raise DomainError("product needs at least one model")
    result = models[0]
    for other in models[1:]:
        P = _times(result.P, other.P, len(result.P) + len(other.P) - 1)
        Q = _times(result.Q, other.Q, len(result.Q) + len(other.Q) - 1)
        g = _poly_gcd(P, Q)
        result = LocalModel(f"product({result.label},{other.label})",
                            _over(P, g), _over(Q, g))
    return result


@checked
def power(model: LocalModel, m: int) -> LocalModel:
    """m identical species on one site: P^m / Q^m."""
    if m < 1:
        raise DomainError(f"power exponent must be an integer >= 1, got {m}")
    if m == 1:
        return model
    result = product([model] * m)
    return LocalModel(f"{model.label}^{m}", result.P, result.Q)


# -- polynomials: coefficient lists, lowest degree first --------------------

def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _times(series, poly: list[int], length: int) -> list[int]:
    """The first `length` coefficients of series * poly, entries past the
    end of `series` counting as 0; one pass per nonzero poly[i], with no
    big-int product where poly[i] is 1; all 0 for poly = [] (the zero
    polynomial, e.g. Q' for Q = 1)."""
    if not poly:
        return [0] * length
    series = list(series[:length])
    series += [0] * (length - len(series))
    a_0 = poly[0]
    out = series[:] if a_0 == 1 else [a_0 * x for x in series]
    for i in range(1, min(len(poly), length)):
        c = poly[i]
        if c == 1:
            out[i:] = map(add, out[i:], series)
        elif c:
            out[i:] = [x + c * y for x, y in zip(out[i:], series)]
    return out


def _over(series: list[int], poly: list[int]) -> list[int]:
    """series / poly as a power series whose coefficients are integers, so
    that each step's division by poly[0] is exact; one sequential pass.
    Where poly divides the polynomial `series`, that is their quotient
    followed by zeros."""
    a_0, deg = poly[0], len(poly) - 1
    if deg == 0:
        return series if a_0 == 1 else [x // a_0 for x in series]
    if a_0 == 1 and deg == 1:  # e.g. Q = 1 - z, P = 1 + z
        c = poly[1]
        if c == -1:
            return list(accumulate(series))
        out = []
        prev = 0
        if c == 1:  # spares a big-int product per entry
            for x in series:
                prev = x - prev
                out.append(prev)
            return out
        for x in series:
            prev = x - c * prev
            out.append(prev)
        return out
    back = poly[:0:-1]  # poly[deg], ..., poly[1]
    out = [0] * deg
    for x in series:
        out.append((x - sum(map(mul, back, out[-deg:]))) // a_0)
    return out[deg:]


def _derivative(p: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _poly_rem(p: Sequence, d: Sequence) -> list:
    """Remainder of p / d over the rationals (d trimmed, nonzero)."""
    rem = [Fraction(c) for c in p]
    while len(rem) >= len(d):
        shift = len(rem) - len(d)
        factor = rem[-1] / d[-1]
        for i, c in enumerate(d):
            rem[shift + i] -= factor * c
        _trim(rem)
    return rem


def _poly_gcd(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """Greatest common divisor, scaled to constant term 1.  In every use it
    divides an integer polynomial with constant term 1, so by Gauss's
    lemma its coefficients are integers."""
    a, b = _trim(list(p)), _trim(list(q))
    while b:
        a, b = b, _poly_rem(a, b)
    return [int(Fraction(c) / a[0]) for c in a]


def _square_free_factors(Q: Sequence[int]) -> list[list[int]]:
    """S_1, S_2, ... with Q = S_1 S_2 ..., S_j the product of the
    irreducible factors of multiplicity >= j; S_1 is the square-free part."""
    factors, rest = [], list(Q)
    while len(rest) > 1:
        factors.append(_trim(_over(rest, _poly_gcd(rest, _derivative(rest)))))
        rest = _trim(_over(rest, factors[-1]))
    return factors


def _dominant_root(square_free: Sequence[int], label: str) -> float:
    """Smallest positive root of Q's square-free part, in which a double
    root cannot split into a numerical complex pair."""
    roots = np.roots(square_free[::-1])
    positive = [float(r.real) for r in roots
                if r.real > 0.0 and abs(r.imag) <= _ROOT_TOL * abs(r)]
    if not positive or min(positive) > 1.0 + _ROOT_TOL:
        raise DomainError(f"{label}: Q has no root in (0, 1]")
    return min(min(positive), 1.0)
