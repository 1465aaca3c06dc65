"""The package's one argument check (`errors.checked`) on every export.

Each export with an `int`- or `float`-annotated parameter is called once
as written in `_VALID`, then once per such parameter and bad value, with
only that argument replaced; each of those calls must raise DomainError.
The cases are an explicit table, so they do not move when this file does.
"""

import ast
import inspect
import math
import pathlib
import re

import numpy as np
import pytest

import page_entropy
from page_entropy import (BipartitionSpec, LocalModel, Sector,
                          build_bose_hubbard,
                          build_sector_basis, build_spin1_xxz, catalog,
                          report)
from page_entropy.errors import DomainError
from page_entropy.numerics import digamma_of_dim, ln_big, trigamma_of_dim

_FERMIONS = catalog("fermions")
_BASIS = build_sector_basis(_FERMIONS, 6, 3, 3)
_HAM = build_spin1_xxz(4, 0, 0.0, 1.0)


class _Dim(int):
    """An int subclass: refused wherever an int is asked for."""


class _Real(float):
    """A float subclass, whose repr reads like a plain float's."""


# export -> arguments of one valid call
_VALID = {
    "dim_fixed_n": (_FERMIONS, 4, 2),
    "dim_table": (_FERMIONS, 4, 2),
    "extended_binomial_closed": (3, 3, 2),
    "power": (_FERMIONS, 2),
    "beta_family": (_FERMIONS, 0.3),
    "ln_dim_asymptotic": (_FERMIONS, 100.0, 0.3),
    "asymptotic_terms": (_FERMIONS, 100.0, 0.3, 0.4),
    "resolved_average": (_FERMIONS, 100.0, 0.3, 0.4),
    "resolve_x1": (_FERMIONS, 100.0, 0.3, 0.4),
    "resolve_x2": (_FERMIONS, 100.0, 0.3, 0.4),
    "x1_powerlaw": (_FERMIONS, 1.0, 0.5, 1.0, 1.0),
    "x2_powerlaw": (_FERMIONS, 0.3, 0.5, 1.0, 100.0),
    "asymptotic_variance": (_FERMIONS, 100.0, 0.3, 0.4),
    "distinguishable_asymptotic": (10.0, 5.0, 3.0),
    "distinguishable_exact_average": (6, 3, 2),
    "build_sector_basis": (_FERMIONS, 6, 3, 3),
    "sample_entropies": (_BASIS, 0, 2),
    "mc_average": (_BASIS, 2, 0),
    "build_spin1_xxz": (4, 0, 0.0, 1.0),
    "build_bose_hubbard": (4, 2, 1.0, 2),
    "mid_spectrum_entropies": (_HAM, 2, [1]),
    "catalog": ("spin_j", 1.0),
}

# parameter kind -> values it refuses; None is admitted where Optional
_BAD = {"int": (True, 2.5, None), "float": (math.nan, math.inf, True, None)}


def _numeric_parameters(function):
    """(name, kind, optional) of each int- or float-annotated parameter."""
    found = []
    for name, param in inspect.signature(function).parameters.items():
        note = str(param.annotation)
        kind = note.removeprefix("Optional[").removesuffix("]")
        if kind in _BAD:
            found.append((name, kind, kind != note))
    return found


def _cases():
    for export, args in _VALID.items():
        function = getattr(page_entropy, export)
        for name, kind, optional in _numeric_parameters(function):
            for bad in _BAD[kind]:
                if not (bad is None and optional):
                    yield pytest.param(function, args, name, bad,
                                       id=f"{export}-{name}={bad!r}")


def test_the_table_covers_every_export_with_a_number_parameter():
    exports = {name for name in page_entropy.__all__
               if inspect.isfunction(getattr(page_entropy, name))
               and _numeric_parameters(getattr(page_entropy, name))}
    assert exports == set(_VALID)


@pytest.mark.parametrize("export", sorted(_VALID))
def test_each_valid_call_runs(export):
    getattr(page_entropy, export)(*_VALID[export])


@pytest.mark.parametrize("function, args, name, bad", list(_cases()))
def test_each_bad_number_is_refused(function, args, name, bad):
    bound = inspect.signature(function).bind(*args)
    bound.arguments[name] = bad
    with pytest.raises(DomainError):
        function(*bound.args, **bound.kwargs)


# (call, message): each raises DomainError; before the shared check, each
# of these calls returned a wrong result or raised a raw exception
_REFUSALS = [
    (lambda: build_spin1_xxz(4, 0.5, 0.0, 1.0),
     "build_spin1_xxz needs integers, got M=0.5"),
    (lambda: build_spin1_xxz(4, 0, math.nan, 1.0),
     "build_spin1_xxz needs numbers, got lam=nan"),
    (lambda: build_spin1_xxz(4, 0.5, math.nan, 1.0),
     "build_spin1_xxz needs integers, got M=0.5"),
    (lambda: build_bose_hubbard(3, True, 1.0),
     "build_bose_hubbard needs integers, got N=True"),
    (lambda: build_bose_hubbard(3, 2, 1.0, "2"),
     "build_bose_hubbard needs integers, got n_max='2'"),
    (lambda: build_bose_hubbard(4, 2, math.inf),
     "build_bose_hubbard needs numbers, got U=inf"),
    (lambda: page_entropy.mc_average(_BASIS, True, 0),
     "mc_average needs integers, got n_samples=True"),
    (lambda: page_entropy.mc_average(_BASIS, 2, True),
     "mc_average needs integers, got seed=True"),
    (lambda: page_entropy.mc_average(_BASIS, 2.0, 0),
     "mc_average needs integers, got n_samples=2.0"),
    (lambda: page_entropy.sample_entropies(_BASIS, 0, 2.0),
     "sample_entropies needs integers, got count=2.0"),
    (lambda: page_entropy.power(_FERMIONS, True),
     "power needs integers, got m=True"),
    (lambda: page_entropy.beta_family(_FERMIONS, True),
     "beta_family needs numbers, got n=True"),
    (lambda: page_entropy.beta_family(_FERMIONS, None),
     "beta_family needs numbers, got n=None"),
    (lambda: page_entropy.extended_binomial_closed(True, 1, 1),
     "extended_binomial_closed needs integers, got V=True"),
    (lambda: page_entropy.mid_spectrum_entropies(_HAM, 2.0, [1]),
     "mid_spectrum_entropies needs integers, got window=2.0"),
    (lambda: page_entropy.mid_spectrum_entropies(_HAM, 2, [True]),
     "cut position True is not an integer in [0, 4]"),
    (lambda: page_entropy.mid_spectrum_entropies(_HAM, 2, [1.5]),
     "cut position 1.5 is not an integer in [0, 4]"),
    # ranges the annotations cannot state
    (lambda: page_entropy.mc_average(_BASIS, 2, -1),
     "seed must be nonnegative, got -1"),
    (lambda: page_entropy.sample_entropies(_BASIS, 0, -1),
     "count must be nonnegative, got -1"),
    (lambda: report(_FERMIONS, [Sector(6, 3, (2,))], "exact"),
     "report methods must be a sequence of method keys, got the string "
     "'exact'"),
    (lambda: build_bose_hubbard(4, 0, 1.0, -3),
     "n_max must be nonnegative, got -3"),
    # one integer rule (`type(x) is int`) for every int the package takes
    (lambda: catalog("capped_bosons", True),
     "catalog needs numbers, got param=True"),
    (lambda: catalog("spin_j", "1"), "catalog needs numbers, got param='1'"),
    (lambda: catalog("spin_j", "x"), "catalog needs numbers, got param='x'"),
    (lambda: ln_big(_Dim(5)), "ln_big needs integers, got d=5 of type _Dim"),
    (lambda: digamma_of_dim(_Dim(5)),
     "digamma_of_dim needs integers, got d=5 of type _Dim"),
    (lambda: trigamma_of_dim(_Dim(5)),
     "trigamma_of_dim needs integers, got d=5 of type _Dim"),
    (lambda: LocalModel("x", [1, _Dim(1)]),
     "x: P and Q must be integers, got 1 of type _Dim"),
    # a float subclass too, but float, bool, str and None values as repr
    (lambda: page_entropy.beta_family(_FERMIONS, _Real("nan")),
     "beta_family needs numbers, got n=nan of type _Real"),
    (lambda: LocalModel("x", [1, _Real(1.0)]),
     "x: P and Q must be integers, got 1.0 of type _Real"),
    (lambda: LocalModel("x", [1, 1.0]),
     "x: P and Q must be integers, got 1.0"),
    (lambda: page_entropy.sample_entropies(_BASIS, True, 2),
     "rng must be a Generator or int >= 0, got True"),
    (lambda: page_entropy.sample_entropies(_BASIS, -1, 2),
     "rng must be a Generator or int >= 0, got -1"),
    (lambda: page_entropy.sample_entropies(_BASIS, np.int64(1), 2),
     "rng must be a Generator or int >= 0, got np.int64(1)"),
]


@pytest.mark.parametrize("call,message", _REFUSALS,
                         ids=[message for _, message in _REFUSALS])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


# (V, N, cuts) of a bad Sector record, its first bad cut V_A (a tuple's
# in order, a range's first or last value) and the message that
# BipartitionSpec(V, N, V_A) gives too
_BAD_RECORDS = [
    ((4.0, 2, (1,)), 1, "need integer V, N and V_A, got 4.0, 2, 1"),
    ((True, 2, (1,)), 1, "need integer V, N and V_A, got True, 2, 1"),
    ((-4, 2, (1,)), 1, "V must be >= 1, got -4"),
    ((4, 2.0, (1,)), 1, "need integer V, N and V_A, got 4, 2.0, 1"),
    ((4, False, (1,)), 1, "need integer V, N and V_A, got 4, False, 1"),
    ((4, -1, (1,)), 1, "N must be nonnegative, got -1"),
    ((4, 2, (1, 2.5)), 2.5, "need integer V, N and V_A, got 4, 2, 2.5"),
    ((4, 2, [3, True, 1.5]), True,
     "need integer V, N and V_A, got 4, 2, True"),
    ((4, 2, (2, -1, 9)), -1, "V_A must lie in [0, V], got -1"),
    ((4, 2, (4, 5, 2)), 5, "V_A must lie in [0, V], got 5"),
    ((4, -1, (5,)), 5, "V_A must lie in [0, V], got 5"),
    ((4, 2, range(6)), 5, "V_A must lie in [0, V], got 5"),
    ((4, 2, range(-1, 5)), -1, "V_A must lie in [0, V], got -1"),
    ((4, 2, range(5, -1, -1)), 5, "V_A must lie in [0, V], got 5"),
    ((4, 2, range(4, -2, -1)), -1, "V_A must lie in [0, V], got -1"),
    ((4.0, 2, range(5)), 0, "need integer V, N and V_A, got 4.0, 2, 0"),
    ((0, 2, range(1)), 0, "V must be >= 1, got 0"),
]


@pytest.mark.parametrize("record,cut,message", _BAD_RECORDS,
                         ids=[repr(record) for record, _, _ in _BAD_RECORDS])
def test_bad_records_get_the_one_cut_messages(record, cut, message):
    V, N, _ = record
    for call in (lambda: Sector(*record), lambda: BipartitionSpec(V, N, cut)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


def test_records_keep_the_cuts_as_given():
    # a range stays one (checked by its ends), anything else becomes a
    # tuple in its order with its repeats; each record's cuts are its rows
    assert Sector(10, 5, range(11)).cuts == range(11)
    assert Sector(10, 5, [7, 3, 7, 0, 10]).cuts == (7, 3, 7, 0, 10)
    assert Sector(10, 5, range(10 ** 30)[:11]).cuts == range(11)
    assert Sector(10, 5, ()).cuts == ()
    assert [rep.V_A for rep in report(
        _FERMIONS, [Sector(10, 5, [7, 3, 7, 0, 10]), Sector(4, 2, range(
            4, -1, -2))], ("asymptotic",))] == [7, 3, 7, 0, 10, 4, 2, 0]


def _int_isinstance_calls(tree):
    """Line numbers of `isinstance(x, int)` and `isinstance(x, (.., int,
    ..))` calls in a module's syntax tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id == "int" for n in names):
                yield node.lineno


def test_no_module_tests_ints_with_isinstance():
    """`isinstance(x, int)` takes bools and int subclasses, which
    `errors.checked` refuses: every int test is `type(x) is int`."""
    package = pathlib.Path(page_entropy.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if (lines := list(_int_isinstance_calls(
                 ast.parse(path.read_text()))))}
    assert found == {}
