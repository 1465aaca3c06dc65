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

import page_entropy.cli as cli
import page_entropy.entropy as entropy
import page_entropy.numerics as numerics
from page_entropy.errors import NumericalError
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


def bench_invocations():
    bench_dir = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench_dir))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench_dir))
    return [argv for name in workloads.WORKLOADS
            for _, argv in workloads.invocations(name, seed=1)]


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
    cfg.write_text(json.dumps({"N": 2}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "page", "--model",
                           "fermions", "--V", "8", "--n", "0.5")
    assert code == 2 and "--N" in err and "--n" in err


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
        methods = draw(st.lists(st.sampled_from(cli._PAGE_METHODS),
                                min_size=1, max_size=5, unique=True))
        argv += ["--methods", ",".join(methods)]
    return argv, name, V, N, cuts


def _independent_output(argv, name, V, N, cuts):
    """The request's output from one `report` call per cut."""
    command, fmt = argv[0], argv[argv.index("--format") + 1]
    model = parse_model(name)
    meta = {"model": model.label, "V": V, "N": N}
    if command == "page":
        methods = (argv[argv.index("--methods") + 1].split(",")
                   if "--methods" in argv else list(cli._PAGE_METHODS))
        keys = tuple(dict.fromkeys(cli._METHOD_KEYS[m] for m in methods))
        header = ["V_A", "f"] + methods
    else:
        keys = ("exact_variance", "asymptotic_variance")
        header = ["V_A", "f", "exact_variance", "log_exact_variance",
                  "asymptotic_variance", "log_asymptotic_variance"]
    reports = [entropy.report(model, [entropy.BipartitionSpec(V, N, v_a)],
                              keys)[0]
               for v_a in (range(V + 1) if cuts is None else cuts)]
    if command == "page":
        rows = [[rep.V_A, rep.f] + [cli._report_value(rep, cli._METHOD_KEYS[m])
                                    for m in methods] for rep in reports]
    else:
        rows = [[rep.V_A, rep.f, rep.exact_variance.value,
                 rep.exact_variance.log_value, rep.asymptotic_variance.value,
                 rep.asymptotic_variance.log_value] for rep in reports]
    result = {"header": header, "rows": rows, "meta": meta}
    if fmt == "csv":
        return cli.render_csv(result)
    if command == "page":
        result["json_doc"] = cli._page_json(reports, meta)
    return cli.render_json(result)


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
    calls = {"beta_family": 0, "dim_table": 0}

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
    assert calls["dim_table"] == 2 * 20  # two tables per cut V_A <= V/2


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
                  "20000", "--U", "1")):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert code == 4 and "dense limit" in err
        assert time.perf_counter() - start < 2.0


def test_ed_bose_hubbard(capsys):
    code, out, _ = run_cli(capsys, "ed", "--model", "bose_hubbard",
                           "--V", "5", "--N", "5", "--U", "2.25",
                           "--nmax", "2", "--VA", "2", "--window", "9")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1 and "U=2.25" in rows[0][5]
    assert float(rows[0][2]) > 0.0


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
                           "--N", "15", "--VA", "15", "--samples", "1")
    assert code == 4 and "infeasible" in err

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


def test_grid_validation(capsys):
    code, _, err = run_cli(capsys, "beta", "--model", "fermions",
                           "--grid", "0.5")
    assert code == 2 and "lo:hi:count" in err
    code, _, err = run_cli(capsys, "beta", "--model", "fermions",
                           "--grid", "0.9:0.1:5")
    assert code == 2


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
