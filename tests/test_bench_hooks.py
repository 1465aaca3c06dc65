"""The benchmark's layer tracer (perfbench/spans.py) patches names in the
package by string and reads the objects they return; a rename or a type
change that breaks `run.py --trace 1` fails here."""

import sys
from collections import Counter
from pathlib import Path

import page_entropy.cli as cli
import page_entropy.entropy as entropy
import page_entropy.haar_sampler as haar_sampler
import page_entropy.saddle as saddle
import page_entropy.spectra as spectra

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"cli": cli, "entropy": entropy, "saddle": saddle,
           "haar_sampler": haar_sampler, "spectra": spectra}

# argv -> spans each traced run must record at least, and layer metrics
RUNS = (
    (["page", "--model", "fermions", "--V", "6", "--N", "3", "--VA", "2"],
     ["entropy.report", "dimensions.dim_table", "saddle.beta_family"], {}),
    # a full sweep builds the first cut's two tables and steps the rest;
    # at half filling it evaluates 1 + 2 + 2 + 3 of the 2 + 3 + 4 + 5
    # blocks of the cuts V_A = 1..4, each mirrored pair once
    (["page", "--model", "fermions", "--V", "8", "--N", "4"],
     ["entropy.report", "dimensions.dim_table", "dimensions.dim_table"],
     {"dimensions.calls": 2, "entropy.blocks": 8, "cli.rows": 9}),
    # blocks on both sides of Psi's 2^64 cut (short series above it) are
    # each still one counted `_phi` call; 437 of the 440 halved blocks lie
    # in the cuts' windows (weight above 2^-64 of the largest), and the
    # certificate lets the sums skip the other 3
    (["page", "--model", "fermions", "--V", "80", "--N", "40"],
     ["entropy.report", "dimensions.dim_table", "dimensions.dim_table"],
     {"dimensions.calls": 2, "entropy.blocks": 437, "cli.rows": 81}),
    (["mc", "--model", "fermions", "--V", "6", "--N", "3", "--VA", "3",
      "--samples", "10"],
     ["dimensions.dim_table", "dimensions.dim_table",
      "haar_sampler.build_sector_basis", "haar_sampler.mc_average"],
     {"haar_sampler.sum_min_side": 8}),
    (["ed", "--model", "bose_hubbard", "--V", "4", "--N", "2", "--U", "1"],
     ["spectra.build_bose_hubbard", "spectra.eigh",
      "spectra.entropy_of_block_vector"],
     {"spectra.dim_total": 10}),
)
NO_COST = {"leaf_inner": 0.0, "leaf_outer": 0.0, "count": 0.0}


def test_tracer_installs_on_live_modules_and_restores(capsys):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH_DIR))
    for argv, expected, metrics in RUNS:
        before = {name: dict(vars(mod)) for name, mod in MODULES.items()}
        tracer = spans.Tracer()
        restore = tracer.install(MODULES)
        try:
            assert cli.main(argv) == 0
        finally:
            restore()
        capsys.readouterr()
        names = Counter(rec[0] for rec in tracer.spans)
        assert Counter(expected) <= names, argv
        got = spans.layer_metrics(tracer, NO_COST)
        assert {key: got[key] for key in metrics} == metrics, argv
        for name, mod in MODULES.items():
            for key, value in before[name].items():
                assert getattr(mod, key) is value, f"{name}.{key} not restored"
