"""End-to-end command-line checks: output shape, config merge, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import page_entropy.budget as budget
import page_entropy.cli as cli
import page_entropy.entropy as entropy
import page_entropy.haar_sampler as haar_sampler
import page_entropy.numerics as numerics
import page_entropy.spectra as spectra
from page_entropy.errors import DomainError, NumericalError
from page_entropy.local_model import catalog, parse_model, product


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_dims_golden(capsys):
    code, out, err = run_cli(capsys, "dims", "--model", "fermions",
                             "--V", "4")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["N", "d_N"]
    assert [r[1] for r in rows] == ["1", "4", "6", "4", "1"]


def test_dims_requires_cap_for_unbounded(capsys):
    code, _, err = run_cli(capsys, "dims", "--model", "bosons", "--V", "4")
    assert code == 2 and "--N" in err
    code, out, _ = run_cli(capsys, "dims", "--model", "bosons", "--V", "4",
                           "--N", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["1", "4", "10", "20"]


def test_beta_grid_marks(capsys):
    code, out, _ = run_cli(capsys, "beta", "--model", "fermions",
                           "--grid", "0.1:0.9:9")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "z0", "beta", "beta1", "beta2", "alpha", "mark"]
    marks = [r[6] for r in rows]
    assert marks.count("nstar") == 1 and marks.count("nmax") == 1
    ns = [float(r[0]) for r in rows]
    assert ns == sorted(ns)
    betas = {float(r[0]): float(r[2]) for r in rows}
    assert abs(betas[0.5] - math.log(2)) < 1e-12
    star = next(r for r in rows if r[6] == "nstar")
    assert float(star[0]) == 0.5 and abs(float(star[3])) < 1e-9
    # unbounded model without a peak: no marked rows
    code, out, _ = run_cli(capsys, "beta", "--model", "bosons",
                           "--grid", "0.2:2:5")
    _, rows = parse_csv(out)
    assert all(r[6] == "" for r in rows)


def test_page_curve_output(capsys):
    code, out, _ = run_cli(capsys, "page", "--model", "fermions",
                           "--V", "8", "--n", "0.5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["V_A", "f", "exact", "asymptotic", "resolved",
                      "exact_var", "asym_var"]
    assert len(rows) == 9
    exact = [float(r[2]) for r in rows]
    assert exact[0] == 0.0 and exact[-1] == 0.0
    for i in range(9):
        assert abs(exact[i] - exact[8 - i]) < 1e-14
    # 17 significant digits round-trip
    mid = rows[4]
    assert float(mid[2]) == exact[4]
    assert abs(exact[4] - 2.2061700909714051) < 1e-13  # V=8 N=4 half cut


@pytest.mark.parametrize("V", [10 ** 6, 10 ** 17])
def test_mirrored_page_rows_share_every_value_cell(capsys, V):
    # the cut V - 1 is evaluated at the fraction 1 / V, as the cut 1 is, not
    # at 1 - fl((V - 1) / V), which cancels: 2.9e-11 relative off at 10^6,
    # and 1 - 1.0 = 0, a refused fraction, at 10^17
    code, out, err = run_cli(capsys, "page", "--model", "fermions",
                             "--V", str(V), "--n", "0.5",
                             "--VA", f"1,{V - 1}",
                             "--methods", "asymptotic,resolved,asym_var")
    assert code == 0 and err == ""
    _, (first, last) = parse_csv(out)
    assert first[2:] == last[2:]


def test_page_evaluates_each_asymptotic_column_once_per_mirrored_cut(
        capsys, monkeypatch):
    # the 3999 nontrivial cuts of V = 4000 are 2000 mirrored cuts, each
    # evaluated by one call of the sector curve's per-cut method
    calls = []

    def counted(curve, f, fn=entropy._SectorCurve.columns):
        calls.append(f)
        return fn(curve, f)
    monkeypatch.setattr(entropy._SectorCurve, "columns", counted)
    code, out, _ = run_cli(capsys, "page", "--model", "spin_j:1",
                           "--V", "4000", "--n", "1", "--methods",
                           "asymptotic,resolved,asym_var")
    assert code == 0 and len(parse_csv(out)[1]) == 4001
    assert len(calls) == len(set(calls)) == 2000


@pytest.mark.parametrize("argv,code,out,err", [
    # the boundary filling is named by the first requested column's function
    ("--model bosons --V 5 --N 0 --methods asymptotic,resolved,asym_var", 2,
     "", "asymptotic_terms is undefined at the filling boundary n=0.0"),
    ("--model bosons --V 5 --N 0 --methods resolved,asym_var", 2, "",
     "resolved_average is undefined at the filling boundary n=0.0"),
    ("--model bosons --V 5 --N 0 --methods asym_var", 2, "",
     "asymptotic_variance is undefined at the filling boundary n=0.0"),
    # resolved's V >= 4 comes before its own boundary check, not before an
    # earlier column's
    ("--model fermions --V 3 --N 1 --methods resolved", 2, "",
     "resolved_average needs V >= 4"),
    ("--model bosons --V 3 --N 0 --methods resolved,asym_var", 2, "",
     "resolved_average needs V >= 4"),
    ("--model bosons --V 3 --N 0 --methods asymptotic,resolved", 2, "",
     "asymptotic_terms is undefined at the filling boundary n=0.0"),
    # trivial cuts alone solve nothing, so refuse nothing
    ("--model fermions --V 3 --N 1 --VA 0,3 --methods resolved", 0,
     "V_A,f,resolved\n0,0,0\n3,1,0\n", ""),
])
def test_page_asymptotic_refusals_keep_their_text_and_order(capsys, argv,
                                                            code, out, err):
    assert run_cli(capsys, "page", *argv.split()) == (
        code, out, f"config error: {err}\n" if err else "")


def test_page_method_selection_and_aliases(capsys):
    code, out, _ = run_cli(capsys, "page", "--model", "fermions", "--V", "6",
                           "--N", "3", "--VA", "3",
                           "--methods", "exact,variance")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["V_A", "f", "exact", "variance"]
    assert len(rows) == 1 and float(rows[0][3]) > 0.0
    code, _, err = run_cli(capsys, "page", "--model", "fermions", "--V", "6",
                           "--N", "3", "--methods", "bogus")
    assert code == 2 and "unknown method" in err


def test_page_json_document(capsys):
    code, out, _ = run_cli(capsys, "page", "--model", "spin_j:1", "--V", "6",
                           "--N", "6", "--VA", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "spin_1"
    row = doc["rows"][0]
    assert row["V_A"] == 3
    assert set(row["asymptotic"]) == {"a", "b", "c", "value"}
    assert row["exact_variance"]["value"] > 0.0


def test_scaling_columns(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--model", "fermions",
                           "--f", "0.5", "--n", "0.5",
                           "--V-list", "8,12,16")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["V", "inv_V", "N", "V_A", "exact", "asymptotic",
                      "sqrt_coeff"]
    for r in rows:
        assert abs(float(r[1]) - 1.0 / int(r[0])) < 1e-18
        assert int(r[3]) * 2 == int(r[0])
    # the exact mean approaches the asymptotic value as V grows
    gaps = [abs(float(r[4]) - float(r[5])) for r in rows]
    assert gaps[-1] < gaps[0]
    # a repeated size repeats its row
    code, out, _ = run_cli(capsys, "scaling", "--model", "fermions",
                           "--f", "0.5", "--n", "0.5",
                           "--V-list", "8,12,16,8")
    assert code == 0 and parse_csv(out)[1] == rows + rows[:1]
    code, _, err = run_cli(capsys, "scaling", "--model", "fermions",
                           "--f", "0.3", "--n", "0.5", "--V-list", "8")
    assert code == 2 and "integer" in err


def test_variance_command(capsys):
    code, out, _ = run_cli(capsys, "variance", "--model", "fermions",
                           "--V", "10", "--N", "5", "--VA", "2,5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:3] == ["V_A", "f", "exact_variance"]
    assert len(rows) == 2
    assert float(rows[1][2]) > 0.0


def test_mc_json_and_determinism(capsys):
    args = ("mc", "--model", "fermions", "--V", "6", "--N", "3",
            "--VA", "3", "--samples", "64", "--seed", "11")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out1)  # default format is json for mc
    assert doc["samples"] == 64 and doc["seed"] == 11
    assert doc["sem"] == pytest.approx(
        math.sqrt(doc["variance"] / doc["samples"]))
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    code, _, err = run_cli(capsys, "mc", "--model", "fermions", "--V", "6",
                           "--N", "3", "--VA", "2,3", "--samples", "8")
    assert code == 2 and "exactly one" in err


def test_threads_flag_and_config_key_rejected(capsys, tmp_path):
    args = ("mc", "--model", "bosons", "--V", "5", "--N", "4", "--VA", "2",
            "--samples", "32", "--seed", "1")
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--threads", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "threads.json"
    cfg.write_text(json.dumps({"threads": 4}))
    code, _, err = run_cli(capsys, "--config", str(cfg), *args)
    assert code == 2 and "unknown config field" in err


def test_each_subcommand_takes_only_its_own_flags(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--model", "fermions", "--V", "3",
                  "--samples", "9", "--Delta", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "samples.json"
    cfg.write_text(json.dumps({"samples": 9}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "dims", "--model",
                           "fermions", "--V", "3")
    assert code == 2 and "'samples' does not apply to the dims" in err
    code, _, _ = run_cli(capsys, "--config", str(cfg), "mc", "--model",
                         "fermions", "--V", "4", "--N", "2", "--VA", "2")
    assert code == 0  # the same key is fine where it is read


def bench_workloads():
    """The benchmark's `perfbench/workloads.py` module, read only."""
    bench_dir = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench_dir))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench_dir))
    return workloads


def bench_invocations():
    workloads = bench_workloads()
    return [argv for name in workloads.WORKLOADS
            for _, argv in workloads.invocations(name, seed=1)]


# ed_scan is left out: its references hold only with 2 OpenBLAS threads,
# since the periodic chains' degenerate mid-spectrum levels come out of one
# dense eigh as mixtures that depend on the thread count
@pytest.mark.parametrize("workload", ["exact_sweep", "single_cuts",
                                      "haar_mc"])
def test_benchmark_outputs_pass_its_own_check(workload):
    checker = bench_workloads().Checker(workload, seed=1)
    for key, argv in checker.jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert checker.failed_rows(key, code, out.getvalue()) == []


def test_benchmark_invocations_still_parse():
    parser = cli._build_parser()
    for argv in bench_invocations():
        assert parser.parse_args(argv).command == argv[0]


def test_config_file_gives_the_same_values_as_flags(tmp_path):
    # every benchmark request, once as flags and once as a config file of
    # JSON numbers, strings and lists: the merged values must agree
    def as_json(text):
        try:
            return json.loads(text)
        except ValueError:
            return text

    def merged_values(args):
        return {key: (type(value), value)
                for key, value in cli._merge_config(args).items()
                if key not in ("config", "run", "parser")}

    parser = cli._build_parser()
    for i, argv in enumerate(bench_invocations()):
        config = {}
        for flag, text in zip(argv[1::2], argv[2::2]):
            key = flag[2:]
            if key in ("VA", "V-list", "methods"):
                config[key] = [as_json(item) for item in text.split(",")]
            else:
                config[key] = as_json(text)
        cfg = tmp_path / f"bench{i}.json"
        cfg.write_text(json.dumps(config))
        from_config = parser.parse_args(["--config", str(cfg), argv[0]])
        assert merged_values(from_config) == \
            merged_values(parser.parse_args(argv))


_DIMS4 = ("dims", "--model", "fermions", "--V", "4")
_MC = ("mc", "--model", "fermions", "--V", "4", "--N", "2", "--VA", "2")
_MC4 = _MC + ("--samples", "4")
_ED_BH = ("ed", "--model", "bose_hubbard", "--V", "3", "--N", "2", "--U", "1")


# (request, key, bad value, good value); "FLAG:" gives the bad value as a flag
_BAD_VALUES = [
    (("page", "--model", "fermions", "--V", "4"), "N", "abc", 2),
    (("page", "--model", "fermions", "--V", "4"), "n", "half", 0.5),
    (_MC4, "seed", "x", 3),
    (_MC4, "seed", None, 3),
    (_ED_BH, "window", "w", 5),
    (("ed", "--model", "spin1_xxz", "--V", "3", "--N", "3", "--lambda",
      "0"), "Delta", [1], 1),
    (_ED_BH, "nmax", "two", 2),
    (("scaling", "--model", "fermions", "--n", "0.5", "--V-list", "8"),
     "f", "x", 0.5),
    (("dims", "--model", "fermions"), "V", 8.7, 4),
    (("dims", "--model", "fermions"), "V", 8.0, 4),
    (("dims", "--model", "fermions"), "V", True, 4),
    (("dims", "--model", "fermions"), "V", [4], 4),
    (("dims", "--model", "fermions", "--V", "4"), "N", 2.9, 2),
    (_MC + ("--seed", "1"), "samples", 2.5, 4),
    (_DIMS4, "format", "xml", "json"),
    (_DIMS4, "out", 5, "OUT"),
    (_DIMS4, "out", None, "OUT"),
    (_DIMS4, "out", True, "OUT"),
    (_MC4, "seed", "FLAG:-1", 3),
    (("page", "--model", "fermions", "--V", "4"), "n", "FLAG:nan", 0.5),
    (("scaling", "--model", "fermions", "--n", "0.5", "--V-list", "8"),
     "f", "FLAG:inf", 0.5),
    (("ed", "--model", "spin1_xxz", "--V", "3", "--N", "3", "--Delta", "1"),
     "lambda", "FLAG:nan", 0),
]


@pytest.mark.parametrize("argv,key,bad,good", _BAD_VALUES,
                         ids=[f"{k}={b!r}" for _, k, b, _ in _BAD_VALUES])
def test_bad_values_exit_2_naming_the_flag(capsys, tmp_path, argv, key, bad,
                                           good):
    if good == "OUT":
        good = str(tmp_path / "out.csv")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: good}))
    code, _, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 0, err  # the same request with a good value runs
    if isinstance(bad, str) and bad.startswith("FLAG:"):
        code, _, err = run_cli(capsys, *argv, f"--{key}", bad[5:])
    else:
        cfg.write_text(json.dumps({key: bad}))
        code, _, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 2 and err.startswith("config error") and f"--{key}" in err


def test_particle_number_and_filling_are_exclusive(capsys, tmp_path):
    code, _, err = run_cli(capsys, "page", "--model", "fermions", "--V", "8",
                           "--N", "2", "--n", "0.5")
    assert code == 2 and "--N" in err and "--n" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 2, "n": 0.5}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "page", "--model",
                           "fermions", "--V", "8")
    assert code == 2 and "--N" in err and "--n" in err
    # they are one setting: a flag for either keeps the config's value out
    page = ("page", "--model", "fermions", "--V", "8", "--VA", "3",
            "--methods", "exact")
    for config, flag, N in (({"N": 2}, ("--n", "0.5"), "4"),
                            ({"n": 0.5}, ("--N", "2"), "2"),
                            ({"N": 2, "n": 0.5}, ("--N", "3"), "3")):
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(cfg), *page, *flag)
        want = run_cli(capsys, *page, "--N", N)
        assert (code, out, err) == want and code == 0


# (request, its message); FILES stands for a directory holding a JSON
# array, a model file that is not UTF-8 text and a JSON document nested
# deeper than the parser's recursion limit
DEEP_JSON = "[" * 100000 + "]" * 100000
_REFUSALS = [
    (("ed", "--model", "bose_hubbard", "--V", "3", "--N", "2"),
     "bose_hubbard needs --U"),
    (("dims", "--model", "fermions:x", "--V", "4"),
     "model parameter must be a number, got 'x'"),
    (("dims", "--model", "FILES/missing.json", "--V", "4"),
     "cannot read model file: [Errno 2] No such file or directory: "
     "'FILES/missing.json'"),
    (("dims", "--model", "FILES/latin1.json", "--V", "4"),
     "cannot read model file 'FILES/latin1.json': 'utf-8' codec can't "
     "decode byte 0xe9"),
    (("--config", "FILES/array.json", "dims", "--model", "fermions"),
     "config must be a JSON object of flag values"),
    (("dims", "--model", "FILES/deep.json", "--V", "4"),
     "model file 'FILES/deep.json': model document nests too deeply to "
     "parse"),
    (("--config", "FILES/deep.json", "dims", "--model", "fermions", "--V",
      "4"),
     "config file 'FILES/deep.json' nests too deeply to parse"),
    (_DIMS4 + ("--out", "FILES"),
     "cannot write output file: [Errno 21] Is a directory: 'FILES'"),
    (_DIMS4 + ("--out", "FILES/missing/dims.csv"),
     "cannot write output file: [Errno 2] No such file or directory: "
     "'FILES/missing/dims.csv'"),
]


@pytest.mark.parametrize("argv,message", _REFUSALS,
                         ids=[message[:24] for _, message in _REFUSALS])
def test_refusals_exit_2_with_their_message(capsys, tmp_path, argv, message):
    (tmp_path / "array.json").write_text("[1, 2]")
    (tmp_path / "latin1.json").write_bytes(b'{"label": "caf\xe9", "P": [1]}')
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    argv = [arg.replace("FILES", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("config error: " +
                          message.replace("FILES", str(tmp_path))), err


def test_exact_sums_refused_up_front(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "page", "--model", "capped_bosons:200",
                           "--V", "4000", "--n", "1")
    assert code == 4 and "infeasible" in err and "budget" in err
    assert time.perf_counter() - start < 2.0
    code, _, err = run_cli(capsys, "variance", "--model", "fermions",
                           "--V", "4000", "--n", "0.5")
    assert code == 4 and "budget" in err
    # one mid cut is cheap (~0.05 s) and still runs
    code, out, _ = run_cli(capsys, "page", "--model", "fermions", "--V",
                           "4000", "--n", "0.5", "--VA", "2000",
                           "--methods", "exact")
    assert code == 0 and parse_csv(out)[1][0][0] == "2000"
    # asymptotic columns need no exact sum: the full V=4000 sweep runs
    code, out, _ = run_cli(capsys, "page", "--model", "spin_j:1", "--V",
                           "4000", "--n", "1", "--VA", "0,1,2000,3999,4000",
                           "--methods", "asymptotic,resolved,asym_var")
    assert code == 0 and len(parse_csv(out)[1]) == 5


def test_asymptotic_sweeps_refused_before_any_saddle(capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(entropy, "beta_family",
                        lambda *args: solves.append(args))
    refused = {
        # 19 us a cut measured: about 76 s; as JSON about twice that
        ("page", "--model", "spin_j:1", "--V", "4000000", "--n", "1",
         "--methods", "asymptotic"): "4000001 cuts estimated at 76 s",
        ("page", "--model", "spin_j:1", "--V", "2000000", "--n", "1",
         "--methods", "asymptotic", "--format", "json"):
            "2000001 cuts estimated at 76 s",
        ("variance", "--model", "fermions", "--V", "10" * 20, "--n", "0.5"):
            "1010101010101010101010101010101010101011 cuts estimated at",
    }
    for argv, message in refused.items():
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert code == 4 and message in err and "above the 60 s budget" in err
        assert time.perf_counter() - start < 1.0
    assert solves == []
    # the benchmark's 4001-cut sweep is estimated far inside the budget
    assert 4001 * budget.cut_seconds(3, as_json=False) < 1.0


def test_beta_grid_refused_before_it_is_built(capsys, monkeypatch, tmp_path):
    solves = []
    monkeypatch.setattr(cli, "beta_family", lambda *args: solves.append(args))
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": "0:1:100000000"}))
    refused = {
        # 50 us a filling; the grid alone would hold 1e8 floats
        ("beta", "--model", "fermions", "--grid", "0:1:100000000"):
            "saddle solves at 100000002 fillings estimated at 5250 s",
        ("--config", str(cfg), "beta", "--model", "fermions"):
            "saddle solves at 100000002 fillings estimated at 5250 s",
        # 2.5 us per degree: 0.25 s a filling at degree 1e5
        ("beta", "--model", "capped_bosons:100000", "--grid", "0:1:300"):
            "saddle solves at 302 fillings estimated at 76 s",
    }
    for argv, message in refused.items():
        code, _, err = run_cli(capsys, *argv)
        assert code == 4 and message in err and "above the 60 s budget" in err
    assert solves == []


def test_oversized_mc_runs_refused_up_front(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "mc", "--model", "fermions", "--V", "4",
                           "--N", "2", "--VA", "2",
                           "--samples", "1000000000000000")
    assert code == 4 and "infeasible" in err
    assert "1000000000000000 samples" in err
    assert time.perf_counter() - start < 2.0


# catalog models with the particle range that keeps 0 < n < n_max
_ORACLE_MODELS = {"fermions": 1, "hardcore_bosons_2species": 1, "bosons": 2,
                  "bosons_2species_unordered": 2, "bosons_2species_ordered": 2,
                  "spin_j:1": 2, "capped_bosons:3": 3}


@st.composite
def sweep_requests(draw):
    """(argv, model name, V, N, cuts or None) of a page or variance request.

    Cut lists mix one side of a mirrored pair, repeats, the V/2 cut and
    full pairs; None is the default full sweep.
    """
    name = draw(st.sampled_from(sorted(_ORACLE_MODELS)))
    V = draw(st.integers(4, 12))
    N = draw(st.integers(1, V * _ORACLE_MODELS[name] - 1))
    command = draw(st.sampled_from(["page", "variance"]))
    argv = [command, "--model", name, "--V", str(V), "--N", str(N),
            "--format", draw(st.sampled_from(["csv", "json"]))]
    cuts = None
    if draw(st.booleans()):
        one_side = draw(st.lists(st.integers(0, (V - 1) // 2), min_size=1,
                                 max_size=3))
        pairs = draw(st.lists(st.integers(0, V), max_size=2))
        cuts = draw(st.permutations(one_side + [one_side[0], V // 2]
                                    + pairs + [V - c for c in pairs]))
        argv += ["--VA", ",".join(map(str, cuts))]
    if command == "page" and draw(st.booleans()):
        methods = draw(st.lists(st.sampled_from(list(_PAGE_CELLS)),
                                min_size=1, max_size=5, unique=True))
        argv += ["--methods", ",".join(methods)]
    return argv, name, V, N, cuts


# the oracle's own account of `page` output, independent of cli's tables:
# page column -> (its report key, its CSV cell), and report key -> its
# JSON row entry, in the order a JSON row lists them
_PAGE_CELLS = {
    "exact": ("exact", lambda rep: rep.exact_mean),
    "asymptotic": ("asymptotic", lambda rep: rep.asymptotic.value),
    "resolved": ("resolved", lambda rep: rep.resolved),
    "exact_var": ("exact_variance", lambda rep: rep.exact_variance.value),
    "asym_var": ("asymptotic_variance",
                 lambda rep: rep.asymptotic_variance.value),
    "variance": ("exact_variance", lambda rep: rep.exact_variance.value),
}
_PAGE_ENTRIES = {
    "exact": lambda rep: rep.exact_mean,
    "asymptotic": lambda rep: {"a": rep.asymptotic.a, "b": rep.asymptotic.b,
                               "c": rep.asymptotic.c,
                               "value": rep.asymptotic.value},
    "resolved": lambda rep: rep.resolved,
    "exact_variance": lambda rep: {
        "value": rep.exact_variance.value,
        "log_value": rep.exact_variance.log_value},
    "asymptotic_variance": lambda rep: {
        "value": rep.asymptotic_variance.value,
        "prefactor": rep.asymptotic_variance.prefactor,
        "exponent": rep.asymptotic_variance.exponent,
        "log_value": rep.asymptotic_variance.log_value},
}


def _independent_output(argv, name, V, N, cuts):
    """The request's output from one `report` call per cut."""
    command, fmt = argv[0], argv[argv.index("--format") + 1]
    model = parse_model(name)
    meta = {"model": model.label, "V": V, "N": N}
    if command == "page":
        methods = (argv[argv.index("--methods") + 1].split(",")
                   if "--methods" in argv else ["exact", "asymptotic",
                                                "resolved", "exact_var",
                                                "asym_var"])
        wanted = {_PAGE_CELLS[m][0] for m in methods}
        keys = [key for key in _PAGE_ENTRIES if key in wanted]
    else:
        keys = ["exact_variance", "asymptotic_variance"]
        header = ["V_A", "f", "exact_variance", "log_exact_variance",
                  "asymptotic_variance", "log_asymptotic_variance"]
    reports = [entropy.report(model, [entropy.BipartitionSpec(V, N, v_a)],
                              tuple(keys))[0]
               for v_a in (range(V + 1) if cuts is None else cuts)]
    if command == "page" and fmt == "json":
        header = ["V_A", "f"] + keys
        rows = [[rep.V_A, rep.f] + [_PAGE_ENTRIES[key](rep) for key in keys]
                for rep in reports]
    elif command == "page":
        header = ["V_A", "f"] + methods
        rows = [[rep.V_A, rep.f] + [_PAGE_CELLS[m][1](rep) for m in methods]
                for rep in reports]
    else:
        rows = [[rep.V_A, rep.f, rep.exact_variance.value,
                 rep.exact_variance.log_value, rep.asymptotic_variance.value,
                 rep.asymptotic_variance.log_value] for rep in reports]
    result = {"header": header, "rows": rows, "meta": meta}
    return cli.render_csv(result) if fmt == "csv" else cli.render_json(result)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sweep_requests())
def test_sweep_output_equals_independent_per_cut_reports(request):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):  # capsys is per test, not example
        code = cli.main(request[0])
    assert code == 0
    assert out.getvalue() == _independent_output(*request)


def test_full_sweep_solves_each_saddle_and_mirrored_cut_once(capsys,
                                                             monkeypatch):
    calls = {"beta_family": 0, "dim_table": 0, "grow_table": 0,
             "shrink_table": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(entropy, name, counted(name, getattr(entropy, name)))
    code, out, _ = run_cli(capsys, "page", "--model", "spin_j:1", "--V", "40",
                           "--n", "1")
    assert code == 0 and len(parse_csv(out)[1]) == 41
    assert calls["beta_family"] <= 2  # once at n, once at n*
    # the first cut V_A = 1 builds its two tables, and each later cut
    # V_A <= V/2 steps the previous one's; at V_A = 20 both sides are one
    assert (calls["dim_table"], calls["grow_table"],
            calls["shrink_table"]) == (2, 19, 18)
    # an unsorted, gapped list with mirrored cuts is swept in ascending
    # order all the same: the distinct cuts 1..5 step their tables, and
    # 20, not next to 5, builds its one table
    calls.update(dict.fromkeys(calls, 0))
    code, out, _ = run_cli(capsys, "page", "--model", "spin_j:1", "--V", "40",
                           "--n", "1", "--VA", "20,3,37,4,5,1,38")
    assert code == 0 and len(parse_csv(out)[1]) == 7
    assert calls == {"beta_family": 1, "dim_table": 3, "grow_table": 4,
                     "shrink_table": 4}


# flag values of the CLI fuzz test: sizes from a small band or far beyond
# any budget (medium sizes run within the budget, for seconds), and reals
_FUZZ_HUGE = st.sampled_from([2 ** 53 + 1, 10 ** 30, 10 ** 400])
_FUZZ_REALS = st.sampled_from(["0.5", "0.25", "1", "2.25", "0", "1e-300",
                               "1e300", "-1"])
_FUZZ_MODELS = ["fermions", "bosons", "spin_j:1", "capped_bosons:3",
                "hardcore_bosons_2species", "bosons_2species_ordered"]
_FUZZ_FLAGS = {command: cli._build_parser().parse_args([command]).flags
               for command in ("beta", "page", "scaling", "variance", "mc",
                               "ed", "dims")}
_FUZZ_OPTIONAL = {"VA", "methods", "window", "seed", "nmax", "format",
                  "out"}
# file arguments: FILES is a directory holding a JSON array and a file that
# is not UTF-8 text, where out.csv can be written
_FUZZ_OUT = st.sampled_from(["FILES/missing/out.csv", "FILES",
                             "FILES/out.csv"])
_FUZZ_FILES = ["FILES/missing.json", "FILES", "FILES/latin1.json",
               "FILES/array.json", "FILES/deep.json"]
_OTHER_CHAIN = {"spin1_xxz": ("U", "nmax"),
                "bose_hubbard": ("lambda", "Delta")}


@st.composite
def fuzz_requests(draw):
    """argv of one subcommand with a random value for each of its flags.
    An optional flag is given half the time, the other ed chain's couplings
    1 time in 4, one of --N and --n mostly alone, and every other flag
    always, unless it is the one flag a request drops 1 time in 4.  A
    --config file comes first 1 time in 8, and --model is a file 1 time
    in 8."""
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    # ed sizes stay small enough for a dense eigh well inside a second
    small = st.integers(-1, 6 if command == "ed" else 12)
    size = st.one_of(small, small, small, _FUZZ_HUGE).map(str)
    sizes = st.lists(size, min_size=1,
                     max_size=1 if command == "mc" else 3).map(",".join)
    models = st.sampled_from(["spin1_xxz", "bose_hubbard"]
                             if command == "ed" else _FUZZ_MODELS)
    values = {
        "model": st.one_of(*[models] * 7, st.sampled_from(_FUZZ_FILES)),
        "out": _FUZZ_OUT,
        "n": _FUZZ_REALS, "f": _FUZZ_REALS, "lambda": _FUZZ_REALS,
        "Delta": _FUZZ_REALS, "U": _FUZZ_REALS, "VA": sizes,
        "V-list": sizes, "format": st.sampled_from(["csv", "json"]),
        "grid": st.tuples(_FUZZ_REALS, _FUZZ_REALS, size).map(":".join),
        "methods": st.lists(st.sampled_from(list(cli._PAGE_COLUMNS)),
                            min_size=1, max_size=3).map(",".join),
    }
    flags = _FUZZ_FLAGS[command]
    dropped = draw(st.sampled_from(flags + [None] * 3 * len(flags)))
    particles = draw(st.sampled_from(["N", "n", "N", "n", "Nn", ""]))
    argv, model = [command], None
    if draw(st.integers(0, 7)) == 0:
        argv.insert(0, f"--config={draw(st.sampled_from(_FUZZ_FILES))}")
    for flag in flags:  # --model comes first
        if flag in ("N", "n"):
            chance = 4 if flag in particles else 0
        elif flag in _OTHER_CHAIN.get(model, ()):
            chance = 1
        elif flag in _FUZZ_OPTIONAL and (command, flag) != ("mc", "VA"):
            chance = 2
        else:
            chance = 0 if flag == dropped else 4
        if draw(st.integers(0, 3)) < chance:
            text = draw(values.get(flag, size))
            model = text if flag == "model" else model
            argv.append(f"--{flag}={text}")
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("fuzz")
    (files / "array.json").write_text("[1, 2]")
    (files / "latin1.json").write_bytes(b"\xff\xfe{}")
    (files / "deep.json").write_text(DEEP_JSON)
    return str(files)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fuzz_requests())
def test_cli_fuzz_exits_with_a_documented_code_in_time(fuzz_files, argv):
    argv = [arg.replace("FILES", fuzz_files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert time.perf_counter() - start < 2.0, argv


def test_ed_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "ed", "--model", "spin1_xxz", "--V", "6",
                           "--N", "6", "--lambda", "0", "--Delta", "0.55",
                           "--window", "20")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["V_A", "f", "mean_S", "std_S", "window", "params"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]  # default cuts
    assert "Delta=0.55" in rows[0][5] and "M=0" in rows[0][5]
    assert int(rows[0][4]) >= 20
    code, _, err = run_cli(capsys, "ed", "--model", "spin1_xxz", "--V", "6",
                           "--N", "6", "--Delta", "0.55")
    assert code == 2 and "lambda" in err
    code, _, err = run_cli(capsys, "ed", "--model", "heisenberg", "--V", "6",
                           "--N", "6")
    assert code == 2


def test_oversized_ed_sectors_refused_up_front(capsys):
    for argv in (("ed", "--model", "bose_hubbard", "--V", "20", "--N", "20",
                  "--U", "1"),
                 ("ed", "--model", "spin1_xxz", "--V", "16", "--N", "16",
                  "--lambda", "0", "--Delta", "1"),
                 # a dimension with more decimal digits than str() prints
                 ("ed", "--model", "bose_hubbard", "--V", "20000", "--N",
                  "20000", "--U", "1"),
                 # more sites than the dense limit, even for one state
                 ("ed", "--model", "spin1_xxz", "--V", "20000", "--N", "0",
                  "--lambda", "0", "--Delta", "1"),
                 ("ed", "--model", "spin1_xxz", "--V", str(10 ** 30), "--N",
                  str(2 ** 53 + 1), "--lambda", "0", "--Delta", "1"),
                 ("ed", "--model", "spin1_xxz", "--V", str(10 ** 30), "--N",
                  str(10 ** 30), "--lambda", "0", "--Delta", "1"),
                 ("ed", "--model", "bose_hubbard", "--V", str(2 ** 53 + 1),
                  "--N", "0", "--U", "1"),
                 # 2^20 + 1 occupations of the first site alone
                 ("ed", "--model", "bose_hubbard", "--V", "4000", "--N",
                  "2147483647", "--nmax", "1048576", "--U", "1")):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert code == 4 and "dense limit" in err
        assert time.perf_counter() - start < 2.0


def test_ed_refuses_the_other_chains_flags(capsys, tmp_path):
    spin = ("ed", "--model", "spin1_xxz", "--V", "4", "--N", "4",
            "--lambda", "0", "--Delta", "1")
    bose = ("ed", "--model", "bose_hubbard", "--V", "4", "--N", "2",
            "--U", "1")
    for argv, extra, config, named in (
            (spin, ("--U", "1", "--nmax", "2"), {}, "--U, --nmax"),
            (spin, (), {"nmax": 2}, "--nmax"),
            (bose, ("--lambda", "5", "--Delta", "3"), {}, "--lambda, --Delta"),
            (bose, (), {"Delta": 3}, "--Delta")):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(path), *argv,
                                 *extra)
        assert (code, out) == (2, "") and f"takes no {named}" in err, err
        assert argv[2] in err


def test_ed_bose_hubbard(capsys):
    code, out, _ = run_cli(capsys, "ed", "--model", "bose_hubbard",
                           "--V", "5", "--N", "5", "--U", "2.25",
                           "--nmax", "2", "--VA", "2", "--window", "9")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1 and "U=2.25" in rows[0][5]
    assert float(rows[0][2]) > 0.0


@pytest.mark.parametrize("chain", [
    ("--model", "spin1_xxz", "--V", "6", "--N", "6", "--lambda", "0",
     "--Delta", "0.55", "--VA", "0,6"),
    ("--model", "bose_hubbard", "--V", "6", "--N", "5", "--U", "2.25",
     "--nmax", "2", "--VA", "0,6")])
def test_ed_trivial_cuts_print_exact_zeros(capsys, monkeypatch, chain):
    svds = []
    monkeypatch.setattr(spectra, "entropy_of_block_vector",
                        lambda *args: svds.append(args))
    code, out, _ = run_cli(capsys, "ed", *chain)
    assert code == 0
    _, rows = parse_csv(out)
    # S = 0 exactly, as `page` reports it, not an SVD's roundoff
    assert [row[:4] for row in rows] == [["0", "0", "0", "0"],
                                         ["6", "1", "0", "0"]]
    assert svds == []


def test_config_file_merge(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "fermions", "V": 4}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dims")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    # explicit flag beats the config value
    code, out, _ = run_cli(capsys, "--config", str(cfg), "dims", "--V", "5")
    _, rows = parse_csv(out)
    assert len(rows) == 6
    cfg.write_text(json.dumps({"model": "fermions", "volume": 4}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "dims")
    assert code == 2 and "volume" in err
    cfg.write_text("not json")
    code, _, err = run_cli(capsys, "--config", str(cfg), "dims")
    assert code == 2
    code, _, err = run_cli(capsys, "--config", str(tmp_path / "none.json"),
                           "dims", "--model", "fermions", "--V", "4")
    assert code == 2


def test_model_from_json_file(capsys, tmp_path):
    doc = tmp_path / "model.json"
    doc.write_text(catalog("capped_bosons", 2).to_json())
    code, out, _ = run_cli(capsys, "dims", "--model", str(doc), "--V", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["1", "3", "6", "7", "6", "3", "1"]


def test_unbounded_composed_model_from_json_file(capsys, tmp_path):
    doc = tmp_path / "mixed.json"
    doc.write_text(product([catalog("fermions"), catalog("bosons")]).to_json())
    code, out, err = run_cli(capsys, "dims", "--model", str(doc), "--V", "4",
                             "--N", "3")
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    # [z^N] (1 + z)^4 / (1 - z)^4
    assert [r[1] for r in rows] == ["1", "8", "32", "88"]


def test_error_exit_codes(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "dims", "--model", "anyons", "--V", "4")
    assert code == 2 and "anyons" in err
    code, _, err = run_cli(capsys, "mc", "--model", "fermions", "--V", "30",
                           "--N", "15", "--VA", "15", "--samples", "100")
    assert code == 4 and "infeasible" in err
    code, _, err = run_cli(capsys, "mc", "--model", "fermions", "--V", "100",
                           "--N", "50", "--VA", "1", "--samples", "1")
    assert code == 4 and "block side above 2^53 at N_A=0; cannot sample" in err
    # a negative occupation cap, which used to be clamped to 0
    code, out, err = run_cli(capsys, "ed", "--model", "bose_hubbard", "--V",
                             "4", "--N", "0", "--U", "1", "--nmax", "-3")
    assert (code, out) == (2, "") and "--nmax: must be >= 0" in err
    # fillings whose saddle lies closer to the radius than a double resolves
    for argv in (("beta", "--model", "bosons", "--grid", "1e16:1e16:1"),
                 ("page", "--model", "bosons", "--V", "10", "--N",
                  "100000000000000000000", "--VA", "5", "--methods",
                  "asymptotic")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3 and "bracketing failed toward the radius" in err

    def boom(*a, **k):
        raise NumericalError("synthetic loss of precision")

    monkeypatch.setattr(cli.ent, "report", boom)
    code, _, err = run_cli(capsys, "page", "--model", "fermions", "--V", "8",
                           "--N", "4")
    assert code == 3 and "numerical failure" in err


def test_out_file_and_big_int_json(capsys, tmp_path):
    target = tmp_path / "dims.csv"
    code, out, _ = run_cli(capsys, "dims", "--model", "fermions",
                           "--V", "64", "--out", str(target))
    assert code == 0 and out == ""
    header, rows = parse_csv(target.read_text())
    assert rows[32][1] == str(math.comb(64, 32))  # full precision in CSV
    code, out, _ = run_cli(capsys, "dims", "--model", "fermions",
                           "--V", "64", "--format", "json")
    doc = json.loads(out)
    cell = doc["rows"][32]["d_N"]
    assert isinstance(cell, str) and int(cell) == math.comb(64, 32)
    small = doc["rows"][1]["d_N"]
    assert isinstance(small, int) and small == 64


def test_every_json_document_keeps_big_ints_and_infinities_as_text(capsys):
    big = 10 ** 20
    code, out, _ = run_cli(capsys, "page", "--model", "fermions", "--V",
                           str(big), "--N", str(big // 2), "--VA", "7",
                           "--methods", "asymptotic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["V"], doc["N"]) == (str(big), str(big // 2))
    assert doc["rows"][0]["V_A"] == 7
    code, out, _ = run_cli(capsys, "mc", "--model", "fermions", "--V", "6",
                           "--N", "3", "--VA", "3", "--samples", "4",
                           "--seed", str(big))
    assert code == 0 and json.loads(out)["seed"] == str(big)
    # 2^53 - 1 is exact as a double, 2^53 is the first int printed as text
    for seed, cell in ((2 ** 53 - 1, 2 ** 53 - 1), (2 ** 53, str(2 ** 53))):
        code, out, _ = run_cli(capsys, *_MC, "--samples", "1", "--seed",
                               str(seed))
        assert code == 0 and json.loads(out)["seed"] == cell
    # the boundary rows of an unbounded model's saddle family
    code, out, _ = run_cli(capsys, "beta", "--model", "bosons", "--grid",
                           "0:1:2", "--format", "json")
    assert code == 0 and '"inf"' in out and "Infinity" not in out


def test_grid_validation(capsys):
    code, _, err = run_cli(capsys, "beta", "--model", "fermions",
                           "--grid", "0.5")
    assert code == 2 and "lo:hi:count" in err
    code, _, err = run_cli(capsys, "beta", "--model", "fermions",
                           "--grid", "0.9:0.1:5")
    assert code == 2
    # one filling needs lo = hi: 0.1:0.9:1 would drop hi without a word
    code, out, err = run_cli(capsys, "beta", "--model", "fermions",
                             "--grid", "0.1:0.9:1")
    assert (code, out) == (2, "") and "lo:lo:1 for one filling" in err
    code, out, _ = run_cli(capsys, "beta", "--model", "fermions",
                           "--grid", "0.3:0.3:1")
    assert code == 0 and len(parse_csv(out)[1]) == 3  # 0.3, nstar, nmax


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import page_entropy.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), ("import", scipy_modules())
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
"""


def test_every_subcommand_but_mc_runs_without_scipy():
    argvs = [
        # spin_j:1 away from n* = 1 reaches erfcx through exp_times_erfc
        ["page", "--model", "spin_j:1", "--V", "12", "--n", "0.75"],
        ["variance", "--model", "fermions", "--V", "10", "--N", "3"],
        ["scaling", "--model", "fermions", "--f", "0.5", "--n", "0.5",
         "--V-list", "8,12"],
        ["dims", "--model", "bosons", "--V", "4", "--N", "6"],
        ["beta", "--model", "fermions", "--grid", "0.1:0.9:5"],
        ["ed", "--model", "spin1_xxz", "--V", "4", "--N", "4", "--lambda",
         "0", "--Delta", "0.55", "--window", "4"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"ARGVS = {argvs!r}\n{_NO_SCIPY_SCRIPT}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_huge_table_requests_refused_before_any_table(capsys):
    # bosons V=4 up to N = 1e8: about 106 s of table steps for dims and
    # 211 s for mc's two V=2 tables, estimated from the sizes alone
    for argv, seconds in ((("dims", "--model", "bosons", "--V", "4", "--N",
                            "100000000"), 106),
                          (("mc", "--model", "bosons", "--V", "4", "--N",
                            "100000000", "--VA", "2", "--samples", "1"), 211)):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert code == 4 and "budget" in err
        assert f"estimated at {seconds} s" in err
        assert time.perf_counter() - start < 2.0


def test_bounded_page_off_peak_equals_memo_free_reports(capsys, monkeypatch):
    # fermions at n = 0.375 != n* = 1/2: exp_times_erfc takes both erfcx
    # branches, which no benchmark workload reaches
    args = []
    real_erfcx = numerics.erfcx
    monkeypatch.setattr(numerics, "erfcx",
                        lambda x: args.append(x) or real_erfcx(x))
    argv = ["page", "--model", "fermions", "--V", "400", "--N", "150",
            "--format", "csv"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert min(args) < 26.0 <= max(args)
    assert out == _independent_output(argv, "fermions", 400, 150, None)


def test_ed_bad_cut_refused_before_build_and_eigh(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ed did work before checking --VA")

    monkeypatch.setattr(cli, "build_spin1_xxz", no_work)
    monkeypatch.setattr(cli, "build_bose_hubbard", no_work)
    monkeypatch.setattr(np.linalg, "eigh", no_work)
    for argv in (("ed", "--model", "spin1_xxz", "--V", "9", "--N", "9",
                  "--lambda", "0", "--Delta", "1", "--VA", "10"),
                 ("ed", "--model", "bose_hubbard", "--V", "6", "--N", "3",
                  "--U", "1", "--VA", "2,7")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "--VA entries must lie in [0, V]" in err


def test_scaling_solves_its_saddle_once(capsys, monkeypatch):
    calls = []
    real = entropy.beta_family
    monkeypatch.setattr(entropy, "beta_family",
                        lambda *args: calls.append(args) or real(*args))
    sizes = (250, 500, 750, 1000)
    code, out, _ = run_cli(capsys, "scaling", "--model", "bosons", "--f",
                           "0.5", "--n", "1", "--V-list",
                           ",".join(map(str, sizes)))
    assert code == 0
    assert len(calls) <= 2
    # the rows equal those of the memo-free public functions
    model = parse_model("bosons")
    rows = []
    for V in sizes:
        spec = entropy.BipartitionSpec(V=V, N=V, V_A=V // 2)
        exact = entropy.exact_average(model, spec)
        terms = entropy.asymptotic_terms(model, V, spec.f, spec.n)
        rows.append([V, 1.0 / V, V, V // 2, exact, terms.value,
                     (exact - terms.a * V - terms.c) / math.sqrt(V)])
    header = ["V", "inv_V", "N", "V_A", "exact", "asymptotic", "sqrt_coeff"]
    assert out == cli.render_csv({"header": header, "rows": rows})
    for f in ("0", "1"):
        code, _, err = run_cli(capsys, "scaling", "--model", "bosons",
                               "--f", f, "--n", "1", "--V-list", "8")
        assert code == 2 and "(0, 1)" in err


def test_dims_refuses_output_too_large_to_print(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "dims", "--model", "bosons", "--V", "4",
                           "--N", "1000")
    assert code == 0 and len(parse_csv(out)[1]) == 1001

    def no_table(*args):
        raise AssertionError("dims built a table it cannot print in time")

    monkeypatch.setattr(cli, "dim_table", no_table)
    # the table alone is estimated at 32 s, inside the budget; printing
    # its 3e7 rows is not
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dims", "--model", "bosons", "--V", "4",
                             "--N", "30000000")
    assert code == 4 and out == ""
    assert "estimated at 32 s" in err and "to print 30000001 rows" in err
    assert time.perf_counter() - start < 2.0
    # JSON printing is priced at twice the CSV rate: 8e6 rows fit the
    # budget as CSV (about 46 s in all) but not as JSON (about 83 s)
    budget.check_table_work(catalog("bosons"), ((4, 8000000),),
                            rows=8000001)
    code, out, err = run_cli(capsys, "dims", "--model", "bosons", "--V", "4",
                             "--N", "8000000", "--format", "json")
    assert code == 4 and out == ""
    assert "estimated at 8 s, plus 74 s to print 8000001 rows" in err


def test_huge_and_empty_sectors_refused_before_any_table(capsys,
                                                          monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built for a refused request")

    for module in (cli, entropy, haar_sampler):
        monkeypatch.setattr(module, "dim_table", no_table)
    huge, beyond_float = str(10 ** 23), str(10 ** 400)
    for argv, code, text in (
            # a block count past 2^63 and sizes past the float range are
            # estimated, not counted
            (("page", "--model", "bosons", "--V", "6", "--N", huge,
              "--methods", "exact"), 4, "budget"),
            (("variance", "--model", "bosons", "--V", "6", "--N", huge),
             4, "budget"),
            (("page", "--model", "bosons", "--V", "6", "--N", beyond_float,
              "--methods", "exact"), 4, "budget"),
            (("dims", "--model", "bosons", "--V", "4", "--N", beyond_float),
             4, "budget"),
            # any sector of a request above V = 4000, before any other's
            (("scaling", "--model", "bosons", "--f", "0.5", "--n", "1",
              "--V-list", "4000,4002"), 4, "exact sum limited to V <= 4000"),
            # N above V n_max: no N_A block, so no table to build
            (("mc", "--model", "fermions", "--V", "6", "--N", huge, "--VA",
              "3", "--samples", "1"), 2, "empty sector"),
            (("mc", "--model", "fermions", "--V", "6", "--N", "30000000",
              "--VA", "3", "--samples", "1"), 2, "empty sector"),
            (("page", "--model", "fermions", "--V", "6", "--N", "30000000",
              "--VA", "3", "--methods", "exact"), 2, "empty sector"),
            (("ed", "--model", "bose_hubbard", "--V", "2", "--N", "5",
              "--U", "1", "--nmax", "2"), 2,
             "empty sector: V=2, N=5, cap=2"),
            # an asymptotic column's refusal comes before the exact sums,
            # and an empty sector's before the saddle
            (("page", "--model", "fermions", "--V", "6", "--N", "6",
              "--methods", "exact,asymptotic"), 2, "filling boundary"),
            (("variance", "--model", "fermions", "--V", "6", "--N", "6"), 2,
             "filling boundary"),
            (("scaling", "--model", "fermions", "--f", "0.5", "--n", "1",
              "--V-list", "10"), 2, "filling boundary"),
            (("page", "--model", "fermions", "--V", "6", "--N", "0",
              "--methods", "exact,resolved"), 2, "filling boundary"),
            (("page", "--model", "fermions", "--V", "6", "--N", "100"), 2,
             "empty sector"),
            # an empty sector whose filling is also beyond the float range
            (("page", "--model", "fermions", "--V", "6", "--N", beyond_float,
              "--methods", "asymptotic"), 2, "empty sector"),
            # a filling beyond the float range, in N / V or in n V
            (("page", "--model", "bosons", "--V", "6", "--N", beyond_float,
              "--methods", "resolved"), 2, "float range"),
            (("page", "--model", "bosons", "--V", "10", "--n", "1e308",
              "--methods", "asymptotic"), 2, "float range"),
            (("scaling", "--model", "bosons", "--f", "0.5", "--n", "1e308",
              "--V-list", "10"), 2, "float range"),
            # asymptotic columns whose V, V^1.5 or f V overflow a float
            (("page", "--model", "fermions", "--V", str(10 ** 206), "--N",
              str(5 * 10 ** 205), "--VA", "7", "--methods", "asym_var"), 2,
             f"V={10 ** 206}"),
            (("scaling", "--model", "fermions", "--f", "0.5", "--n", "0.5",
              "--V-list", str(10 ** 309)), 2, f"V={10 ** 309}"),
            # a resolved column whose kernel takes inf * 0, a NaN
            (("page", "--model", "fermions", "--V", str(10 ** 307), "--N",
              str(10 ** 306), "--VA", str(5 * 10 ** 306), "--methods",
              "resolved"), 2, f"V={10 ** 307}"),
            (("page", "--model", "fermions", "--V", beyond_float, "--N",
              str(10 ** 400 // 2), "--VA", "5", "--methods", "asymptotic"),
             2, f"V={beyond_float}"),
            # an asymptotic column whose a V overflows to inf
            (("page", "--model", "bosons", "--V", str(17 * 10 ** 307),
              "--N", str(17 * 10 ** 308), "--VA", str(85 * 10 ** 306),
              "--methods", "asymptotic"), 2, f"V={17 * 10 ** 307}")):
        start = time.perf_counter()
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (code, "") and text in err, (argv, err)
        assert time.perf_counter() - start < 2.0

    # an empty sector is refused at every cut, the trivial ones too, and
    # before the budget and any saddle solve
    def no_work(*args):
        raise AssertionError("work began on an empty sector")

    monkeypatch.setattr(budget, "check_exact_work", no_work)
    monkeypatch.setattr(entropy, "beta_family", no_work)
    for argv, text in (
            (("page", "--model", "fermions", "--V", "4", "--N", "9", "--VA",
              "0,4"), "empty sector: V=4, N=9 for fermions"),
            (("page", "--model", "fermions", "--V", "4", "--N", "9", "--VA",
              "0,4", "--methods", "asymptotic"),
             "empty sector: V=4, N=9 for fermions"),
            (("variance", "--model", "spin_j:1", "--V", "3", "--N", "7",
              "--VA", "0,3"), "empty sector: V=3, N=7 for spin_1")):
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (2, "") and text in err, (argv, err)
    with pytest.raises(DomainError,
                       match="empty sector: V=4, N=9 for fermions"):
        entropy.exact_average(catalog("fermions"),
                              entropy.BipartitionSpec(4, 9, 0))


def test_periodic_model_refuses_its_empty_sectors_up_front(capsys, tmp_path,
                                                           monkeypatch):
    # P = 1 + z^2 has period 2: an odd N is empty, and is refused before
    # any table or saddle solve by every method, as exact always was
    doc = tmp_path / "even.json"
    doc.write_text(json.dumps({"label": "even", "P": [1, 0, 1]}))
    sector = ("--model", str(doc), "--V", "400", "--N", "201")

    def no_work(*args):
        raise AssertionError("work began on an empty sector")

    for module in (entropy, haar_sampler):
        monkeypatch.setattr(module, "dim_table", no_work)
    monkeypatch.setattr(entropy, "beta_family", no_work)
    for argv in (("page", *sector, "--VA", "100", "--methods",
                  "asymptotic,resolved"),
                 ("page", *sector, "--VA", "100", "--methods", "asym_var"),
                 ("page", *sector, "--VA", "100", "--methods", "exact"),
                 ("variance", *sector, "--VA", "0,100"),
                 ("mc", *sector, "--VA", "100", "--samples", "1")):
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (2, ""), argv
        assert "empty sector: V=400, N=201 for even" in err, (argv, err)
    monkeypatch.undo()
    # its even sectors are those of fermions at half the charge
    got, out, _ = run_cli(capsys, "page", "--model", str(doc), "--V", "12",
                          "--N", "10", "--VA", "5", "--methods", "exact")
    want = run_cli(capsys, "page", "--model", "fermions", "--V", "12",
                   "--N", "5", "--VA", "5", "--methods", "exact")[1]
    assert got == 0 and out.splitlines()[1:] == want.splitlines()[1:]


def test_dims_prints_entries_beyond_the_int_digit_limit(capsys, tmp_path):
    # 1 + 10^300 z on 15 sites: d_15 = 10^4500 has 4501 digits, more than
    # str() converts by default
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"P": [1, 10 ** 300]}))
    limit = sys.get_int_max_str_digits()
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, "dims", "--model", str(doc), "--V",
                                 "15", "--format", fmt)
        assert code == 0 and err == ""
        last = (parse_csv(out)[1][-1][1] if fmt == "csv"
                else json.loads(out)["rows"][-1]["d_N"])
        assert last == "1" + "0" * 4500
        assert sys.get_int_max_str_digits() == limit


def _csv_writer_text(result) -> str:
    """`result` printed by `csv.writer` with `cli._format_cell` per cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(result["header"])
    for row in result["rows"]:
        writer.writerow([cli._format_cell(cell) for cell in row])
    return buffer.getvalue()


_INTS = st.one_of(st.integers(), st.builds(  # past 4300 digits
    lambda digits, sign: sign * (10 ** digits + 7), st.integers(4290, 4400),
    st.sampled_from([1, -1])))
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072e-308, math.inf, -math.inf,
     math.nan]))
_CELLS = {
    "int": _INTS,
    "float": _FLOATS,
    "any": st.one_of(
        _INTS, _FLOATS, st.none(), st.booleans(),
        st.builds(np.float64, st.floats()),
        st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
        st.text(st.sampled_from('ab,"\n\r '), max_size=4)),
}


@st.composite
def _tables(draw):
    """A CSV result whose columns each draw one kind of cell: only ints,
    only floats, or any cell at all, in rows that are lists or tuples."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=4))
    row = draw(st.sampled_from([list, tuple]))
    rows = [row(draw(_CELLS[kind]) for kind in kinds)
            for _ in range(draw(st.integers(0, 5)))]
    return {"header": [f"c{i}" for i in range(len(kinds))], "rows": rows}


@pytest.mark.parametrize("table", [
    {"header": ["x"], "rows": [[None]]},  # csv.writer prints ""
    {"header": ["x"], "rows": [[1.5], [2]]},
    {"header": ["x"], "rows": [[1.5], [-0.0], [math.nan]]},
    {"header": [], "rows": [[], ()]},
    {"header": ["V_A", "f"], "rows": [[True, 0.5], [2, -0.0]]},
    {"header": ["V_A", "f"], "rows": [(np.int64(3), np.float64(0.5))]},
    {"header": ["V_A", "f"], "rows": [(1, 0.5), (2, None)]},
    {"header": ["N", "d_N"], "rows": [[0, 10 ** 5000], [1, -(10 ** 4301)]]},
    {"header": ["a", "b"], "rows": []},
])
def test_render_csv_corners_print_what_csv_writer_prints(table):
    _check_render_csv(table)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tables())
def test_render_csv_prints_what_csv_writer_prints(table):
    _check_render_csv(table)


def _check_render_csv(table) -> None:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as `cli._emit` prints
    try:
        assert cli.render_csv(table) == _csv_writer_text(table)
    finally:
        sys.set_int_max_str_digits(limit)
