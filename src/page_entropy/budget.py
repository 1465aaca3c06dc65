"""Run-time estimates in seconds, from sizes alone, and the one budget.

A request estimated above BUDGET_S is refused before any work with
InfeasibleSizeError, worded "<subject> estimated at X s[, plus Y s
<part>], above the 60 s budget"; sizes beyond the float range are
estimated at inf s.  The figures were calibrated on a 2-vCPU x86 host with
Python 3.11, where each matched measured times within 2x either way.
"""

from __future__ import annotations

import functools
import math

from .errors import InfeasibleSizeError
from .local_model import LocalModel

BUDGET_S = 60.0
_JSON_FACTOR = 2.0  # printing as JSON takes about twice as long as CSV


def check_exact_work(model: LocalModel, sectors, want_variance: bool) -> None:
    """Refuse exact sums over `sectors`, the `entropy.Sector` records of one
    request, up front: InfeasibleSizeError if `exact_work_seconds` summed
    over each distinct record's distinct mirrored cuts min(V_A, V - V_A),
    in order of first appearance, exceed BUDGET_S.  A request sweeps each
    distinct record once, the cuts V_A and V - V_A as one (see
    `entropy._exact_sums`).  Each `_dim_bits_bound` is built once per
    distinct argument (a page sweep asks for the same few at every cut).
    """
    cuts = [(rec, rec.mirrored_cuts) for rec in dict.fromkeys(sectors)]
    bound = functools.cache(functools.partial(_dim_bits_bound, model))
    _refuse_above_budget(
        f"exact sums of {sum(len(mirrored) for _, mirrored in cuts)} "
        f"distinct cut(s)",
        lambda: sum(_cut_work_seconds(model, sector, V_A, want_variance, bound)
                    for sector, mirrored in cuts for V_A in mirrored))


def check_labeled_work(V: int, N: int) -> None:
    """Refuse (InfeasibleSizeError) the N + 1 blocks of a labeled-particle
    sum above BUDGET_S at `_block_seconds`, w = N log2(V) / 64 the words of
    d_N = V^N: within 2x of measured times at V = N = 400 to 4000."""
    _refuse_above_budget(
        f"labeled-particle exact sum of {N + 1} blocks",
        lambda: (N + 1) * _block_seconds(N * math.log2(V) / 64.0))


def check_table_work(model: LocalModel, tables, rows: int = 0,
                     as_json: bool = False) -> None:
    """Refuse building the dimension tables `tables`, (V, N_cap) pairs, up
    front: raises InfeasibleSizeError if their `_table_work_seconds`, plus
    `_render_seconds` for printing `rows` entries of them (`_JSON_FACTOR`
    times that as JSON), exceed BUDGET_S.  The two share one
    `_dim_bits_bound`."""
    factor = _JSON_FACTOR if as_json else 1.0
    bound = functools.cache(functools.partial(_dim_bits_bound, model))
    printing = [(lambda: factor * _render_seconds(tables, rows, bound),
                 f"to print {rows} rows")] if rows else []
    _refuse_above_budget("dimension tables",
                         lambda: _table_work_seconds(model, tables, bound),
                         *printing)


def check_run_work(blocks, n_samples: int) -> None:
    """Refuse (InfeasibleSizeError) a run of n_samples Haar samples of the
    sector cut into `blocks` above BUDGET_S at `sample_seconds` each."""
    _refuse_above_budget(f"{n_samples} samples",
                         lambda: n_samples * sample_seconds(blocks))


def check_cut_work(cuts: int, columns: int, as_json: bool) -> None:
    """Refuse (InfeasibleSizeError) a `page` or `variance` request over
    `cuts` cuts above BUDGET_S at `cut_seconds` each, before any cut is
    built; its exact sums are checked on their own (`check_exact_work`)."""
    _refuse_above_budget(f"{cuts} cuts",
                         lambda: cuts * cut_seconds(columns, as_json))


def check_saddle_work(model: LocalModel, fillings: int) -> None:
    """Refuse (InfeasibleSizeError) solving and printing the saddle at
    `fillings` fillings (`beta`) above BUDGET_S, before any is solved.

    Each takes 50 us + 2.5 us per degree of P and Q, the Horner passes of
    its `eval_zeta` calls.  Measured with `beta` grids: 40-84 us a filling
    on catalog models, 0.4-0.7 ms on capped_bosons:200, 3.5-9.6 ms on
    capped_bosons:2000 and 80 ms on capped_bosons:20000.
    """
    per_filling = 5e-5 + 2.5e-6 * (len(model.P) + len(model.Q) - 2)
    _refuse_above_budget(f"saddle solves at {fillings} fillings",
                         lambda: fillings * per_filling)


def exact_work_seconds(model: LocalModel, spec, want_variance: bool) -> float:
    """Estimated run time of one cut's exact sums, from sizes alone.

    The cut's two dimension tables (`entropy.Sector.cut_tables`) cost their
    `_table_work_seconds`; each N_A block takes `_block_seconds`, 2.5 times
    that with the variance.  Calibrated on fermions to
    capped_bosons:100000, V up to 4000, with every cut's tables built anew;
    a `page` sweep steps them from cut to cut and evaluates mirrored blocks
    once at 2N = V n_max and at V_A = V/2, so its cuts cost less.
    """
    return _cut_work_seconds(model, spec.sector, spec.V_A, want_variance,
                             functools.partial(_dim_bits_bound, model))


def _cut_work_seconds(model: LocalModel, sector, V_A: int,
                      want_variance: bool, bound) -> float:
    """`exact_work_seconds` of the cut V_A of an `entropy.Sector`, with
    bound(N) standing for _dim_bits_bound(model, N)."""
    n_a_values, tables = sector.cut_tables(V_A, model.n_max)
    if V_A in (0, sector.V) or not n_a_values:
        return 0.0
    seconds = _table_work_seconds(model, tables, bound)
    words = bound(sector.N)(sector.V, sector.N) / 64.0
    per_block = _block_seconds(words)
    blocks = n_a_values.stop - n_a_values.start  # len() stops at 2^63
    return seconds + blocks * per_block * (2.5 if want_variance else 1.0)


def cut_seconds(columns: int, as_json: bool) -> float:
    """Estimated run time of one cut of a request apart from its exact sums:
    the cut, its saddle-based columns and the printing of `columns` values,
    12 us + 7 us a column, `_JSON_FACTOR` times that as JSON.  `page` sweeps
    at V = 2e4 took 11-18 us a cut (CSV) and 36-65 us (JSON) with 1 to 3
    columns on fermions, bosons and spin-1 (in-process, best of 7): the
    asymptotic columns are evaluated once per mirrored pair of cuts, from
    constants solved once per sector, and a CSV row of numbers is one %
    format.  So CSV is priced about 2x high.  It is not re-fit yet: this
    estimate is also the only bound on the rows a sweep buffers before it
    prints them (about 0.6 KB a cut as CSV), until rows are streamed."""
    return (1.2e-5 + 7e-6 * columns) * (_JSON_FACTOR if as_json else 1.0)


def sample_seconds(blocks) -> float:
    """Estimated run time of one Haar sample of the sector cut into
    `blocks`, an iterable of (N_A, d_A, d_B): 1.4 us, plus 0.14 us per unit
    of sum(min(d_A, d_B)) (its 2 sum(min) Gamma draws and per-value array
    work), plus 23 ns per unit of sum(min(d_A, d_B)^2) (the tridiagonal
    eigenvalues).  Fitted with `mc_average` on 25 sectors of fermions
    (V = 4 to 28), bosons and spin-1, all within 1.5x."""
    mins = [min(d_a, d_b) for _, d_a, d_b in blocks]
    return 1.4e-6 + 1.4e-7 * sum(mins) + 2.3e-8 * sum(m * m for m in mins)


def _block_seconds(words: float) -> float:
    """One block of an exact sum on w-word dimensions: 4 us + 25 ns w^1.6."""
    return 4e-6 + 2.5e-8 * words ** 1.6


def _table_work_seconds(model: LocalModel, tables, bound) -> float:
    """Estimated run time of `dim_table` over `tables`, (V, N_cap) pairs.

    Each table takes N_eff * (reach + 2) big-int steps of 0.35 us + 4 ns
    per 64-bit word, reach = min(deg PQ, N_eff) (calibrated with
    `exact_work_seconds`), bound(N) standing for _dim_bits_bound(model,
    N).
    """
    bits = bound(max(cap for _, cap in tables))
    deg_pq = len(model.P) + len(model.Q) - 2
    seconds = 0.0
    for sites, cap in tables:
        n_eff = cap if model.n_max is None else min(cap, sites * model.n_max)
        words = bits(sites, n_eff) / 64.0
        seconds += n_eff * (min(deg_pq, n_eff) + 2) * (3.5e-7 + 4e-9 * words)
    return seconds


def _render_seconds(tables, rows: int, bound) -> float:
    """Estimated time to build and print `rows` CSV rows (N, d_N) of the
    tables: 4 us + 0.6 us * w + 7.5 ns * w^2 a row for w-word entries, w
    taken from the largest table's bound, since decimal conversion is
    superlinear in w, bound(N) standing for _dim_bits_bound(model, N).
    Calibrated with entries of 1 to 190 words; `dims` for bosons V=4,
    N=1e6 took 6.0 s against 5.6 s estimated, tables included."""
    bits = bound(max(cap for _, cap in tables))
    words = max(bits(sites, cap) for sites, cap in tables) / 64.0
    return rows * (4e-6 + 6e-7 * words + 7.5e-9 * words ** 2)


def _dim_bits_bound(model: LocalModel, N: int):
    """bits(V, M) ~ an upper bound on log2 d_M(V) for M <= N.

    Uses d_M(V) <= a_0^V B^M C(V+M-1, M) where a_k <= a_0 B^k, with B
    taken from a_1..a_16 and the radius, and for bounded models
    d_M(V) <= (a_0 + ... + a_min(N, n_max))^V.
    """
    k_max = min(N, 16 if model.n_max is None else min(16, model.n_max))
    a = model.coefficients(k_max + 1)
    log2_a0 = math.log2(a[0])
    rates = [(math.log2(a[k]) - log2_a0) / k
             for k in range(1, k_max + 1) if a[k]]
    if model.n_max is None:
        rates.append(-math.log2(model.radius))
        log2_total = math.inf
    else:
        log2_total = math.log2(sum(model.P[:min(N, model.n_max) + 1]))
    log2_b = max(rates, default=0.0)

    def bits(V: int, M: int) -> float:
        if V == 0:
            return 0.0
        log2_paths = (math.lgamma(V + M) - math.lgamma(M + 1)
                      - math.lgamma(V)) / math.log(2.0)
        return max(0.0, min(V * log2_a0 + M * log2_b + log2_paths,
                            V * log2_total))
    return bits


def _refuse_above_budget(subject: str, estimate, *parts) -> None:
    """Raise InfeasibleSizeError if estimate() plus the `parts`, (estimate,
    what) pairs, exceed BUDGET_S, naming each part's seconds and `what`."""
    try:
        seconds = [estimate(), *(part() for part, _ in parts)]
    except OverflowError:  # a size beyond the float range
        seconds = [math.inf] * (1 + len(parts))
    if sum(seconds) > BUDGET_S:
        plus = "".join(f", plus {s:.0f} s {what}"
                       for s, (_, what) in zip(seconds[1:], parts))
        raise InfeasibleSizeError(
            f"{subject} estimated at {seconds[0]:.0f} s{plus}, above the "
            f"{BUDGET_S:.0f} s budget")
