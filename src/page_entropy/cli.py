"""Command-line interface.

Subcommands: beta, page, scaling, variance, mc, ed, dims.  Each takes only
the flags it reads; any of them can also be supplied through a single JSON
config file (--config), where a key the subcommand does not read is an
error.  A config value is parsed by its flag's own argparse type, so it is
checked exactly like the flag; explicit flags win over config values.
CSV output carries floats at 17 significant digits and exact integers as
full decimal strings.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 infeasible size.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from operator import attrgetter

from . import budget
from . import entropy as ent
from .dimensions import dim_table
from .errors import (ConfigError, DomainError, InfeasibleSizeError,
                     NumericalError)
from .haar_sampler import build_sector_basis, mc_average
from .local_model import LocalModel, parse_model
from .saddle import beta_family, n_star
from .spectra import build_bose_hubbard, build_spin1_xxz, \
    mid_spectrum_entropies

# page column -> (its `entropy.report` key, the EntropyReport attribute, the
# attribute's fields in a JSON entry); a CSV cell is the attribute's .value
# if it has fields, else the attribute itself
_PAGE_COLUMNS = {
    "exact": ("exact", "exact_mean", ()),
    "asymptotic": ("asymptotic", "asymptotic", ("a", "b", "c", "value")),
    "resolved": ("resolved", "resolved", ()),
    "exact_var": ("exact_variance", "exact_variance", ("value", "log_value")),
    "asym_var": ("asymptotic_variance", "asymptotic_variance",
                 ("value", "prefactor", "exponent", "log_value")),
}
_PAGE_METHODS = tuple(_PAGE_COLUMNS)
_PAGE_COLUMNS["variance"] = _PAGE_COLUMNS["exact_var"]  # an alias


# -- flag types: argparse applies them to flags and config values alike ------

def _number(cast, lo=None):
    """argparse type: one finite `cast` number, at least `lo` if given."""
    def parse(text):
        value = cast(text)
        if cast is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if lo is not None and value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text!r}")
        return value
    parse.__name__ = cast.__name__  # argparse: "invalid int value: 'x'"
    return parse


class _CommaList:
    """argparse type: a comma-separated list of `item` values."""

    def __init__(self, item, what):
        self.item, self.what = item, what

    def __call__(self, text):
        try:
            return [self.item(part.strip()) for part in text.split(",")]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(
                f"must be a comma-separated list of {self.what}: {exc}")


def _method(text):
    if text not in _PAGE_COLUMNS:
        raise argparse.ArgumentTypeError(
            f"unknown method {text!r}; choose from {', '.join(_PAGE_METHODS)}"
            " (variance is an alias of exact_var)")
    return text


def _grid(text):
    """argparse type: lo:hi:count -> (lo, hi, count), which `_cmd_beta`
    expands to count evenly spaced fillings once the budget allows it."""
    try:
        lo, hi, count = text.split(":")
        lo, hi = _number(float)(lo), _number(float)(hi)
        count = _number(int, 1)(count)
        if hi < lo or count == 1 and hi != lo:
            raise ValueError
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            "must look like lo:hi:count with finite lo <= hi and count >= 2, "
            "or lo:lo:1 for one filling")
    return lo, hi, count


# long flag (also its config key and its parsed name) -> add_argument keywords
_FLAGS = {
    "model": {"help": "catalog name, name:param, or JSON model file"},
    "V": {"type": _number(int, 1)},
    "N": {"type": _number(int, 0)},
    "n": {"type": _number(float, 0), "help": "filling; N = round(n V)"},
    "VA": {"type": _CommaList(_number(int, 0), "cut sizes"),
           "help": "comma-separated cut sizes"},
    "grid": {"type": _grid, "help": "n grid as lo:hi:count"},
    "samples": {"type": _number(int, 1)},
    "seed": {"type": _number(int, 0)},
    "window": {"type": _number(int, 1)},
    "lambda": {"type": _number(float)},
    "Delta": {"type": _number(float)},
    "U": {"type": _number(float)},
    "nmax": {"type": _number(int, 0)},
    "f": {"type": _number(float), "help": "subsystem fraction"},
    "V-list": {"type": _CommaList(_number(int, 1), "system sizes"),
               "help": "comma-separated system sizes"},
    "methods": {"type": _CommaList(_method, "page columns"),
                "help": "comma-separated page columns "
                        f"(default {','.join(_PAGE_METHODS)}; variance is "
                        "an alias of exact_var)"},
    "out": {"help": "output path (default stdout)"},
    "format": {"choices": ("csv", "json")},
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        merged = _merge_config(args)
        rows_or_doc = args.run(merged)
        _emit(rows_or_doc, merged)
        return 0
    except (ConfigError, DomainError, argparse.ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InfeasibleSizeError as exc:
        print(f"infeasible size: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    # exit_on_error=False: main reports a bad value as a config error
    parser = argparse.ArgumentParser(
        prog="page-entropy", exit_on_error=False,
        description="Typical entanglement entropy of number-conserving "
                    "sectors: exact, asymptotic, sampled, and diagonalized.")
    parser.add_argument("--config", help="JSON file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags its _cmd_* reads, plus output
    commands = (
        ("beta", "saddle family over an n grid", _cmd_beta, "model grid"),
        ("page", "page curve of one sector (all methods)", _cmd_page,
         "model V N n VA methods"),
        ("scaling", "mean vs V at fixed f and n", _cmd_scaling,
         "model f n V-list"),
        ("variance", "exact and asymptotic variance over cuts",
         _cmd_variance, "model V N n VA"),
        ("mc", "Haar Monte Carlo average", _cmd_mc,
         "model V N n VA samples seed"),
        ("ed", "mid-spectrum eigenstate entropies", _cmd_ed,
         "model V N n VA window lambda Delta U nmax"),
        ("dims", "exact sector dimension table", _cmd_dims, "model V N"),
    )
    for name, help_text, run, flags in commands:
        p = sub.add_parser(name, help=help_text, exit_on_error=False)
        flags = flags.split() + ["out", "format"]
        for flag in flags:
            p.add_argument(f"--{flag}", dest=flag, **_FLAGS[flag])
        p.set_defaults(run=run, flags=flags, parser=p)
    return parser


def _merge_config(args) -> dict:
    """Flag values, with config values filled in where no flag was given.

    Each such config value becomes one --key=value token for the
    subcommand's own parser, so it is checked exactly like the flag.
    """
    if not args.config:
        return dict(vars(args))
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config file {args.config!r} nests too deeply to "
                          f"parse") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object of flag values")
    for key in config:
        if key not in _FLAGS:
            raise ConfigError(f"unknown config field {key!r}")
        if key not in args.flags:
            raise ConfigError(f"config field {key!r} does not apply to "
                              f"the {args.command} command")
    # flags win, and --N and --n are one setting: only the keys no flag
    # has set are parsed onto args
    given = {key for key in args.flags if getattr(args, key) is not None}
    if given & {"N", "n"}:
        given |= {"N", "n"}
    unset = [key for key in config if key not in given]
    args.parser.parse_args([_config_token(key, config[key]) for key in unset],
                           namespace=args)
    return dict(vars(args))


def _config_token(key, value) -> str:
    """The --key=value command-line token a JSON config value stands for."""
    flag_type = _FLAGS[key].get("type")
    if isinstance(value, list) and isinstance(flag_type, _CommaList):
        value = ",".join(str(item) for item in value)
    # a flag without a type takes a string (a path, a model, a choice)
    takes = (str, int, float) if flag_type else str
    if isinstance(value, bool) or not isinstance(value, takes):
        raise ConfigError(f"config value {value!r} cannot be given as --{key}")
    return f"--{key}={value}"


# -- shared option handling -------------------------------------------------

def _require(merged, flag):
    value = merged.get(flag)
    if value is None:
        raise ConfigError(f"--{flag} is required for this command")
    return value


def _get_model(merged) -> LocalModel:
    return parse_model(_require(merged, "model"))


def _get_particles(merged, V: int) -> int:
    N, n = merged.get("N"), merged.get("n")
    if N is not None and n is not None:
        raise ConfigError("give only one of --N and --n")
    if N is not None:
        return N
    if n is None:
        raise ConfigError("one of --N or --n is required")
    try:
        return round(n * V)
    except OverflowError:
        raise ConfigError(f"N = n V is beyond the float range at n={n}, "
                          f"V={V}") from None


def _get_cuts(merged, V: int, default):
    """The --VA cut sizes, each in [0, V], or `default` if none are given."""
    cuts = merged.get("VA")
    if cuts is None:
        return default
    for v_a in cuts:
        if v_a > V:
            raise ConfigError(f"--VA entries must lie in [0, V]; got {v_a}")
    return cuts


def _cut_request(merged, columns: int):
    """(model, sectors, meta) of a `page` or `variance` request: one
    `entropy.Sector` of its --VA cut sizes (default: every V_A), refused
    with their `columns` printed values above the budget before it exists."""
    model = _get_model(merged)
    V = _require(merged, "V")
    N = _get_particles(merged, V)
    cuts = _get_cuts(merged, V, range(V + 1))
    # counted without len(), which stops at 2^63 for a range
    budget.check_cut_work(V + 1 if merged.get("VA") is None else len(cuts),
                          columns, merged.get("format") == "json")
    sector = ent.Sector(V, N, cuts)
    return model, [sector], {"model": model.label, "V": V, "N": N}


# -- commands ----------------------------------------------------------------

def _cmd_beta(merged):
    model = _get_model(merged)
    lo, hi, count = _require(merged, "grid")
    header = ["n", "z0", "beta", "beta1", "beta2", "alpha", "mark"]
    marks = [] if model.n_max is None else [(n_star(model), "nstar"),
                                            (float(model.n_max), "nmax")]
    budget.check_saddle_work(model, count + len(marks))
    step = (hi - lo) / (count - 1) if count > 1 else 0.0
    marked = [(lo + i * step, "") for i in range(count)] + marks
    rows = []
    for n, mark in marked:
        sol = beta_family(model, n)
        rows.append([sol.n, sol.z0, sol.beta, sol.beta1, sol.beta2,
                     sol.alpha, mark])
    rows.sort(key=lambda row: row[0])
    return {"header": header, "rows": rows, "meta": {"model": model.label}}


def _cmd_page(merged):
    methods = merged.get("methods") or _PAGE_METHODS
    model, sectors, meta = _cut_request(merged, len(methods))
    wanted = {_PAGE_COLUMNS[method] for method in methods}
    entries = [_PAGE_COLUMNS[m] for m in _PAGE_METHODS
               if _PAGE_COLUMNS[m] in wanted]
    reports = ent.report(model, sectors,
                         tuple(key for key, _, _ in entries))
    if merged.get("format") == "json":  # a row entry per report key
        header = ["V_A", "f"] + [key for key, _, _ in entries]
        rows = [[rep.V_A, rep.f] + [
            {name: getattr(getattr(rep, attribute), name) for name in fields}
            if fields else getattr(rep, attribute)
            for _, attribute, fields in entries] for rep in reports]
    else:
        header = ["V_A", "f"] + list(methods)
        paths = [attribute + ".value" if fields else attribute
                 for _, attribute, fields in map(_PAGE_COLUMNS.get, methods)]
        cells = attrgetter("V_A", "f", *paths)
        rows = [cells(rep) for rep in reports]
    return {"header": header, "rows": rows, "meta": meta}


def _cmd_scaling(merged):
    model = _get_model(merged)
    f = _require(merged, "f")
    n = _require(merged, "n")
    sizes = _require(merged, "V-list")
    header = ["V", "inv_V", "N", "V_A", "exact", "asymptotic", "sqrt_coeff"]
    if not 0.0 < f < 1.0:
        raise ConfigError(f"--f must lie in (0, 1); got {f}")
    sectors = []  # one per V, of its one cut
    for V in sizes:
        try:
            v_a = f * V
        except OverflowError:
            raise ConfigError(f"f*V overflows a float at V={V}") from None
        if abs(v_a - round(v_a)) > 1e-9:
            raise ConfigError(f"f*V must be an integer for the exact sum; "
                              f"f={f}, V={V}")
        sectors.append(ent.Sector(V, _get_particles(merged, V),
                                  (round(v_a),)))
    rows = []
    for rep in ent.report(model, sectors, ("exact", "asymptotic")):
        V, exact, terms = rep.V, rep.exact_mean, rep.asymptotic
        sqrt_coeff = (exact - terms.a * V - terms.c) / math.sqrt(V)
        rows.append([V, 1.0 / V, rep.N, rep.V_A, exact, terms.value,
                     sqrt_coeff])
    return {"header": header, "rows": rows,
            "meta": {"model": model.label, "f": f, "n": n}}


def _cmd_variance(merged):
    model, sectors, meta = _cut_request(merged, columns=4)
    header = ["V_A", "f", "exact_variance", "log_exact_variance",
              "asymptotic_variance", "log_asymptotic_variance"]
    reports = ent.report(model, sectors,
                         ("exact_variance", "asymptotic_variance"))
    rows = [[rep.V_A, rep.f, rep.exact_variance.value,
             rep.exact_variance.log_value, rep.asymptotic_variance.value,
             rep.asymptotic_variance.log_value] for rep in reports]
    return {"header": header, "rows": rows, "meta": meta}


def _cmd_mc(merged):
    model = _get_model(merged)
    V = _require(merged, "V")
    N = _get_particles(merged, V)
    cuts = _require(merged, "VA")
    if len(cuts) != 1:
        raise ConfigError("mc takes exactly one --VA cut")
    samples = _require(merged, "samples")
    seed = merged.get("seed") or 0
    basis = build_sector_basis(model, V, N, cuts[0])
    summary = mc_average(basis, samples, seed)
    doc = {"model": model.label, "V": V, "N": N, "V_A": cuts[0],
           "samples": summary.samples, "seed": summary.seed,
           "mean": summary.mean, "sem": summary.sem,
           "variance": summary.variance}
    header = list(doc)
    return {"header": header, "rows": [list(doc.values())],
            "meta": {}, "json_doc": doc, "default_format": "json"}


# ed chain -> the coupling flags it reads; the other chain's are refused
_ED_FLAGS = {"spin1_xxz": ("lambda", "Delta"), "bose_hubbard": ("U", "nmax")}


def _cmd_ed(merged):
    kind = _require(merged, "model")
    V = _require(merged, "V")
    N = _get_particles(merged, V)
    window = merged.get("window") or 100
    cuts = _get_cuts(merged, V, range(V // 2 + 1))
    if kind not in _ED_FLAGS:
        raise ConfigError("--model must be spin1_xxz or bose_hubbard "
                          "for the ed command")
    stray = [f"--{flag}" for chain, flags in _ED_FLAGS.items() if chain != kind
             for flag in flags if merged.get(flag) is not None]
    if stray:
        raise ConfigError(f"{kind} takes no {', '.join(stray)}")
    if kind == "spin1_xxz":
        lam = merged.get("lambda")
        delta = merged.get("Delta")
        if lam is None or delta is None:
            raise ConfigError("spin1_xxz needs --lambda and --Delta")
        ham = build_spin1_xxz(V, M=N - V, lam=lam, delta=delta)
    else:
        U = merged.get("U")
        if U is None:
            raise ConfigError("bose_hubbard needs --U")
        ham = build_bose_hubbard(V, N, U=U, n_max=merged.get("nmax"))
    rep = mid_spectrum_entropies(ham, window, cuts)
    params = ";".join(f"{k}={v}" for k, v in sorted(ham.couplings.items()))
    header = ["V_A", "f", "mean_S", "std_S", "window", "params"]
    count = rep.window_hi - rep.window_lo
    rows = [[cut.V_A, cut.f, cut.mean, cut.std, count, params]
            for cut in rep.cuts]
    meta = {"kind": kind, "V": V, "N": N, "dim": rep.dim,
            "window": [rep.window_lo, rep.window_hi]}
    return {"header": header, "rows": rows, "meta": meta}


def _cmd_dims(merged):
    model = _get_model(merged)
    V = _require(merged, "V")
    cap = merged.get("N")
    if cap is None:
        if model.n_max is None:
            raise ConfigError("--N cap is required for unbounded models")
        cap = V * model.n_max
    budget.check_table_work(model, ((V, cap),), rows=cap + 1,
                            as_json=merged.get("format") == "json")
    table = dim_table(model, V, cap)
    rows = [[N, d] for N, d in enumerate(table)]
    return {"header": ["N", "d_N"], "rows": rows,
            "meta": {"model": model.label, "V": V}}


# -- output ------------------------------------------------------------------

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")  # also "nan", "inf" and "-inf"
    return str(value)  # an int as its exact decimal, arbitrary length


def render_csv(result) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result["header"])
    rows = result["rows"]
    line = _line_format(rows)
    if line is None:
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
        return buffer.getvalue()
    return buffer.getvalue() + "".join([line % tuple(row) for row in rows])


# a column of only ints or only floats -> its cell's % format, the same
# text as `_format_cell`, which no CSV quoting can change
_COLUMN_FORMATS = {frozenset((int,)): "%d", frozenset((float,)): "%.17g"}


def _line_format(rows):
    """The % format of one CSV line of `rows` if each column holds only
    int or only float cells (by exact type: a bool or numpy scalar is
    neither), else None."""
    try:
        formats = [_COLUMN_FORMATS.get(frozenset(map(type, column)))
                   for column in zip(*rows, strict=True)]
    except ValueError:  # rows of unequal length
        return None
    return None if None in formats else ",".join(formats) + "\n"


def render_json(result) -> str:
    doc = result.get("json_doc")
    if doc is None:
        doc = dict(result.get("meta", {}))
        doc["rows"] = [dict(zip(result["header"], row))
                       for row in result["rows"]]
    _json_exact(doc)  # a cycle would not get past it: no encoder check
    return json.dumps(doc, indent=2, check_circular=False) + "\n"


def _json_exact(doc) -> None:
    """Make `doc` exact as JSON, in place through its dicts and lists:
    every non-finite float becomes its CSV text and every int of magnitude
    2^53 or more, which a double would round, a decimal string."""
    for key, value in doc.items() if type(doc) is dict else enumerate(doc):
        kind = type(value)
        if kind is dict or kind is list:
            _json_exact(value)
        elif kind is float and not math.isfinite(value):
            doc[key] = _format_cell(value)
        elif kind is int and not -2 ** 53 < value < 2 ** 53:
            doc[key] = str(value)


def _emit(result, merged):
    fmt = merged.get("format") or result.get("default_format") or "csv"
    # exact ints print in full: `dims` bounds their conversion time up front
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = render_csv(result) if fmt == "csv" else render_json(result)
    finally:
        sys.set_int_max_str_digits(digit_limit)
    out = merged.get("out")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
