"""Exact sector mean and variance of the subsystem entropy."""

import math
import random
import re
import time
import tracemalloc

import mpmath as mp
import pytest

import oracle
import page_entropy.budget as budget
import page_entropy.entropy as entropy
import page_entropy.haar_sampler as haar_sampler
from page_entropy.budget import check_exact_work, exact_work_seconds
from page_entropy.dimensions import dim_fixed_n, dim_table
from page_entropy.entropy import (BipartitionSpec, VarianceEstimate,
                                  asymptotic_average, exact_average,
                                  exact_variance, report)
from page_entropy.errors import DomainError, InfeasibleSizeError
from page_entropy.haar_sampler import build_sector_basis, mc_average
from page_entropy.local_model import LocalModel, catalog, from_json

mp.mp.dps = 40

FIVE = ("fermions", "hardcore_bosons_2species", "bosons",
        "bosons_2species_unordered", "bosons_2species_ordered")


def test_two_site_fermion_hand_values():
    m = catalog("fermions")
    spec = BipartitionSpec(V=2, N=1, V_A=1)
    assert abs(exact_average(m, spec) - 0.5) < 1e-15
    # variance numerator is chi = 2 Psi'(2) - 3 Psi'(3) = 7/4 - pi^2/6
    ref = (1.75 - math.pi**2 / 6) / 3.0
    var = exact_variance(m, spec)
    assert abs(var.value - ref) < 1e-14
    assert abs(math.exp(var.log_value) - ref) < 1e-14


def test_exact_mean_against_rational_oracle():
    m = catalog("fermions")
    got = exact_average(m, BipartitionSpec(8, 4, 4))
    assert abs(got - 2.2061700909714051) < 1e-12
    # within 4 ulp of Psi(d_N + 1), the bound of test_exact_oracle
    cuts = [(m, 8, 4, 4)]
    rng = random.Random(12)
    for _ in range(12):
        name = rng.choice(FIVE)
        model = catalog(name)
        V = rng.randrange(2, 9)
        top = V * model.n_max if model.n_max is not None else V + 3
        N = rng.randrange(0, top + 1)
        V_A = rng.randrange(0, V + 1)
        cuts.append((model, V, N, V_A))
    for model, V, N, V_A in cuts:
        got = exact_average(model, BipartitionSpec(V, N, V_A))
        ref, psi_n = oracle.mean_entropy(model.P, model.Q, V, N, V_A)
        assert abs(mp.mpf(got) - ref) <= 4 * math.ulp(float(psi_n))


def test_boundary_cuts_are_zero():
    m = catalog("bosons")
    assert exact_average(m, BipartitionSpec(5, 3, 0)) == 0.0
    assert exact_average(m, BipartitionSpec(5, 3, 5)) == 0.0
    assert exact_variance(m, BipartitionSpec(5, 3, 0)).value == 0.0


def test_exact_symmetry_under_complement():
    rng = random.Random(13)
    for _ in range(15):
        model = catalog(rng.choice(FIVE))
        V = rng.randrange(2, 11)
        top = V * model.n_max if model.n_max is not None else V + 2
        N = rng.randrange(1, top + 1) if top else 0
        V_A = rng.randrange(0, V + 1)
        a = exact_average(model, BipartitionSpec(V, N, V_A))
        b = exact_average(model, BipartitionSpec(V, N, V - V_A))
        assert a == b  # term-by-term identical sums


def test_rho_weights_normalize():
    # exact convolution identity: sector weights sum to one
    for name in FIVE:
        model = catalog(name)
        for V, N, V_A in ((6, 3, 2), (8, 4, 4), (9, 5, 3)):
            cap = N if model.n_max is None else min(N, V_A * model.n_max)
            ta = dim_table(model, V_A, cap)
            tb = dim_table(model, V - V_A, N)
            d_n = dim_fixed_n(model, V, N)
            total = math.fsum(
                (ta[k] * tb[N - k]) / d_n
                for k in range(0, cap + 1) if 0 <= N - k < len(tb))
            assert abs(total - 1.0) < 1e-12


def test_mean_bounded_by_smaller_side():
    rng = random.Random(14)
    for _ in range(15):
        model = catalog(rng.choice(FIVE))
        V = rng.randrange(2, 10)
        top = V * model.n_max if model.n_max is not None else V + 2
        N = rng.randrange(0, top + 1)
        V_A = rng.randrange(1, V)
        cap = N if model.n_max is None else min(N, V_A * model.n_max)
        ta = dim_table(model, V_A, cap)
        tb = dim_table(model, V - V_A, N)
        d_a_tot = sum(ta[k] for k in range(cap + 1)
                      if 0 <= N - k < len(tb) and tb[N - k])
        d_b_tot = sum(tb[N - k] for k in range(cap + 1)
                      if 0 <= N - k < len(tb) and ta[k])
        s = exact_average(model, BipartitionSpec(V, N, V_A))
        assert -1e-12 <= s <= math.log(min(d_a_tot, d_b_tot)) + 1e-12


def test_page_curve_monotone_to_half():
    # observed sanity property, not a theorem: flag any regression loudly
    for name in FIVE:
        model = catalog(name)
        for V in (8, 11, 14):
            n_max = model.n_max if model.n_max is not None else 2
            N = max(1, round(V * n_max / 2))
            values = [exact_average(model, BipartitionSpec(V, N, v_a))
                      for v_a in range(0, V // 2 + 1)]
            assert all(lo <= hi + 1e-12
                       for lo, hi in zip(values, values[1:]))


def test_variance_nonnegative_and_decaying():
    m = catalog("fermions")
    prev = None
    for V in (4, 8, 12, 16, 20):
        var = exact_variance(m, BipartitionSpec(V, V // 2, V // 2))
        assert var.value >= 0.0
        if prev is not None:
            assert var.value < prev
        prev = var.value


def test_variance_log_channel_survives_underflow():
    m = catalog("fermions")
    var = exact_variance(m, BipartitionSpec(1200, 600, 600))
    assert var.value == 0.0  # true value below double underflow
    assert var.log_value is not None
    # ln Var ~ -beta V + (3/2) ln V + const; check the dominant scale
    assert -835.0 < var.log_value < -800.0


def test_mc_agreement_mean():
    m = catalog("fermions")
    basis = build_sector_basis(m, 6, 3, 3)
    summary = mc_average(basis, 2000, seed=21)
    ref = exact_average(m, BipartitionSpec(6, 3, 3))
    assert abs(summary.mean - ref) < 3 * summary.sem


def test_mc_agreement_variance():
    m = catalog("fermions")
    basis = build_sector_basis(m, 10, 5, 5)
    summary = mc_average(basis, 5000, seed=22)
    ref = exact_variance(m, BipartitionSpec(10, 5, 5)).value
    # sample variance of a variance estimate: use the large-sample
    # normal error of s^2, se = var * sqrt(2/(n-1))
    se = summary.variance * math.sqrt(2.0 / (summary.samples - 1))
    assert abs(summary.variance - ref) < 3 * se


def test_distinguishable_exact_values():
    from page_entropy.entropy import distinguishable_exact_average
    assert abs(distinguishable_exact_average(2, 1, 1) - 0.5) < 1e-12
    # V=2, N=2, V_A=1: d_A=1,2,1 over N_A=0,1,2 with C(2,N_A) placements
    d_n = 4
    ref = 0.0
    for n_a, mult in ((0, 1), (1, 2), (2, 1)):
        da, db = 1 << 0, 1 << 0  # 1^n_a, 1^(2-n_a)
        rho = mult * (da * db) / d_n
        big, small = max(da, db), min(da, db)
        phi = float(mp.digamma(d_n + 1) - mp.digamma(big + 1)
                    - mp.mpf(small - 1) / (2 * big))
        ref += rho * phi
    got = distinguishable_exact_average(2, 2, 1)
    assert abs(got - ref) < 1e-12
    # a trivial cut is 0 at any size, with no big-int work
    assert distinguishable_exact_average(5, 3, 0) == 0.0
    assert distinguishable_exact_average(5, 3, 5) == 0.0
    assert distinguishable_exact_average(10 ** 6, 10 ** 9, 10 ** 6) == 0.0
    # the block sum shared with identical particles, pinned to the values
    # of the separate labeled-particle loop it replaced
    for args, value in (((50, 50, 25), 106.03794811121122),
                        ((400, 400, 100), 685.4510764463323),
                        ((401, 133, 77), 175.99038708233968),
                        ((2000, 2000, 500), 4231.974338448711)):
        assert distinguishable_exact_average(*args) == value


def test_distinguishable_exact_sum_streams_its_blocks():
    # with d_N = V^N known, the N + 1 big-int blocks stream through the
    # kernel and only its float terms are held (holding the blocks peaked
    # at 10.8 MiB here)
    tracemalloc.start()
    try:
        value = entropy.distinguishable_exact_average(2000, 2000, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 4231.974338448711
    assert peak < 2 ** 20


def test_distinguishable_exact_sum_refused_above_the_budget():
    start = time.perf_counter()
    with pytest.raises(InfeasibleSizeError,
                       match="labeled-particle exact sum of 16001 blocks "
                             "estimated at 187 s, above the 60 s budget"):
        entropy.distinguishable_exact_average(16000, 16000, 4000)
    assert time.perf_counter() - start < 1.0
    # V = N = 4000 took 2.9-4.1 s and is estimated at 4 s: it runs
    budget.check_labeled_work(4000, 4000)
    with pytest.raises(InfeasibleSizeError, match="inf s"):
        budget.check_labeled_work(10, 10 ** 400)


def test_report_panel_and_errors():
    m = catalog("fermions")
    [rep] = report(m, [BipartitionSpec(8, 4, 2)])
    assert rep.exact_mean is not None
    assert rep.asymptotic is not None and rep.asymptotic.a > 0
    assert rep.resolved is not None
    assert rep.exact_variance.value >= 0
    # both exact methods come from one pass over the blocks, unchanged
    for spec in (BipartitionSpec(8, 4, 2), BipartitionSpec(9, 4, 5)):
        [rep] = report(m, [spec], ("exact", "exact_variance"))
        assert rep.exact_mean == exact_average(m, spec)
        assert rep.exact_variance == exact_variance(m, spec)
    with pytest.raises(DomainError):
        exact_average(m, BipartitionSpec(4, 9, 2))  # empty sector
    with pytest.raises(ValueError):
        BipartitionSpec(4, 2, 5)  # V_A out of range


_FERMIONS = catalog("fermions")
_GAP = LocalModel("gap", [1, 0, 1])  # period 2: no odd N has a state
_GAPS = LocalModel("gaps", [1, 0, 1, 1])  # period 1, yet N = 1 is empty


# (call, message); each raises DomainError
_REFUSALS = [
    (lambda: BipartitionSpec(0, 0, 0), "V must be >= 1, got 0"),
    (lambda: BipartitionSpec(4, -1, 2), "N must be nonnegative, got -1"),
    # a float or bool size, whose tables would hold floats or be wrong
    (lambda: BipartitionSpec(4.0, 2, 1), "need integer V, N and V_A, got "
                                         "4.0, 2, 1"),
    (lambda: BipartitionSpec(4, 2.0, 1), "need integer V, N and V_A, got "
                                         "4, 2.0, 1"),
    (lambda: BipartitionSpec(4, 2, 1.5), "need integer V, N and V_A, got "
                                         "4, 2, 1.5"),
    (lambda: BipartitionSpec(4, True, 1), "need integer V, N and V_A, got "
                                          "4, True, 1"),
    (lambda: build_sector_basis(_FERMIONS, 6.0, 3, 3),
     "need integer V, N and V_A, got 6.0, 3, 3"),
    (lambda: entropy.distinguishable_exact_average(0, 1, 0),
     "V must be >= 1, got 0"),
    (lambda: entropy.distinguishable_exact_average(4, 2, 5),
     "V_A must lie in [0, V], got 5"),
    (lambda: entropy.distinguishable_exact_average(4, -1, 2),
     "N must be nonnegative, got -1"),
    # counted empty: N not a multiple of the period
    (lambda: exact_average(_GAP, BipartitionSpec(3, 1, 1)),
     "empty sector: V=3, N=1 for gap"),
    (lambda: build_sector_basis(_GAP, 3, 1, 1),
     "empty sector: V=3, N=1 for gap"),
    # both tables built, but no block is nonempty
    (lambda: exact_average(_GAPS, BipartitionSpec(3, 1, 1)),
     "empty sector: V=3, N=1 for gaps"),
    (lambda: build_sector_basis(_GAPS, 3, 1, 1),
     "empty sector: V=3, N=1 for gaps"),
]


def test_sectors_off_the_period_build_no_table(monkeypatch):
    def no_work(*args):
        raise AssertionError("work began on an empty sector")

    for module in (entropy, haar_sampler):
        monkeypatch.setattr(module, "dim_table", no_work)
    monkeypatch.setattr(entropy, "beta_family", no_work)
    for call in (
            lambda: report(_GAP, [BipartitionSpec(3, 1, 1)],
                           ("exact", "asymptotic")),
            # at every cut, the trivial ones too
            lambda: report(_GAP, [BipartitionSpec(8, 4, 0),
                                  BipartitionSpec(9, 5, 9)], ("resolved",)),
            lambda: report(LocalModel("even_bosons", [1], [1, 0, -1]),
                           [BipartitionSpec(6, 7, 2)],
                           ("asymptotic_variance",)),
            lambda: build_sector_basis(_GAP, 9, 5, 4)):
        with pytest.raises(DomainError, match="^empty sector: V=(3|9|6)"):
            call()


@pytest.mark.parametrize("call,message", _REFUSALS,
                         ids=[message for _, message in _REFUSALS])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_report_refuses_unknown_method_keys():
    # the page column names are not report keys
    with pytest.raises(DomainError) as err:
        report(catalog("fermions"), [BipartitionSpec(10, 5, 3)],
               ("exact_var", "asymptotic", "asym"))
    message = str(err.value)
    assert "exact_var, asym;" in message
    assert "exact, asymptotic, resolved, exact_variance, " \
        "asymptotic_variance" in message


@pytest.mark.parametrize("model, V, N", [
    (catalog("fermions"), 12, 5), (catalog("bosons"), 9, 7),
    (catalog("spin_j", 1), 20, 10)])
def test_single_cut_calls_read_a_one_cut_report(model, V, N):
    for v_a in range(V + 1):  # the trivial cuts 0 and V too
        spec = BipartitionSpec(V, N, v_a)
        [rep] = report(model, [spec])
        assert exact_average(model, spec) == rep.exact_mean
        assert exact_variance(model, spec) == rep.exact_variance
        assert asymptotic_average(model, spec) == rep.asymptotic.value
    # the one path gives 0, not a roundoff residue, at a trivial cut
    assert exact_variance(catalog("spin_j", 1), BipartitionSpec(20, 10, 0)) \
        == VarianceEstimate(0.0, None, 0.0)


def test_exact_sums_refused_before_any_table():
    # ~1e8 big-int table steps: refused from the sizes alone, at once
    with pytest.raises(InfeasibleSizeError):
        exact_average(catalog("bosons"), BipartitionSpec(20, 10 ** 8, 10))
    with pytest.raises(InfeasibleSizeError):
        exact_average(catalog("fermions"), BipartitionSpec(4001, 2000, 2000))
    # measured: 0.04-0.06 s on a 2-vCPU x86 host
    fermions = catalog("fermions")
    one_cut = exact_work_seconds(fermions, BipartitionSpec(4000, 2000, 2000),
                                 want_variance=False)
    assert 0.01 < one_cut < 0.2
    assert exact_work_seconds(fermions, BipartitionSpec(8, 4, 0),
                              want_variance=True) == 0.0


def test_estimate_counts_each_mirrored_pair_once():
    fermions = catalog("fermions")
    sweep = [BipartitionSpec(4000, 2000, v_a) for v_a in range(4001)]
    half = sum(exact_work_seconds(fermions, spec, want_variance=False)
               for spec in sweep[:2001])
    # the page sweep computes V_A and V - V_A once: about 55 s, not 110 s
    assert half < 60.0 < 2 * half
    check_exact_work(fermions, sweep, want_variance=False)
    check_exact_work(fermions, sweep + sweep[::-1], want_variance=False)
    with pytest.raises(InfeasibleSizeError, match="2001 distinct"):
        check_exact_work(fermions, sweep, want_variance=True)  # ~123 s


REQUEST_METHODS = (
    (("exact",), False),
    (("exact_variance", "asymptotic"), True),
    (("exact", "resolved", "exact_variance", "asymptotic_variance"), True),
    (("asymptotic", "resolved", "asymptotic_variance"), None))


def test_report_memo_is_bit_identical_and_serves_one_model():
    # the sums a request shares across its mirrored (2 and 7), repeated
    # (4, 2) and boundary (0, 9) cuts leave every panel bit-identical
    model = catalog("spin_j", 1)
    specs = [BipartitionSpec(9, 6, v_a) for v_a in (2, 7, 4, 5, 0, 4, 9, 2)]
    for methods, _ in REQUEST_METHODS:
        assert report(model, specs, methods) == \
            [report(model, [spec], methods)[0] for spec in specs]
    assert report(model, specs) == [report(model, [spec])[0]
                                    for spec in specs]
    # what one request shares does not reach the next model's request
    fermions = catalog("fermions")
    cuts = [BipartitionSpec(9, 4, v_a) for v_a in (3, 6, 3)]
    spin_reps = report(model, cuts, ("exact", "exact_variance"))
    fermion_reps = report(fermions, cuts, ("exact", "exact_variance"))
    assert fermion_reps == [report(fermions, [spec],
                                   ("exact", "exact_variance"))[0]
                            for spec in cuts]
    assert fermion_reps[0].exact_mean == exact_average(fermions, cuts[0])
    assert fermion_reps[0] != spin_reps[0]


SWEEP_MODELS = (("fermions", None), ("bosons", None), ("spin_j", 1),
                ("capped_bosons", 3), ("hardcore_bosons_2species", None))


@pytest.mark.parametrize("name,param", SWEEP_MODELS)
def test_swept_sums_equal_per_cut_reports(monkeypatch, name, param):
    # a sweep steps its tables from cut to cut and, at 2N = V n_max and
    # at V_A = V/2, evaluates each mirrored pair of blocks once; each panel
    # still equals that of its cut alone, bit for bit
    model = catalog(name) if param is None else catalog(name, param)
    methods = ("exact", "exact_variance")
    calls = {"dim_table": 0, "_phi": 0}
    for key in calls:
        def counted(*args, key=key, fn=getattr(entropy, key)):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(entropy, key, counted)
    V = 14
    top = V * (model.n_max or 2)
    for N in (top // 2, top // 2 - 3, 5):
        alone = [report(model, [BipartitionSpec(V, N, v_a)], methods)[0]
                 for v_a in range(V + 1)]
        for v_as in (range(V + 1), (9, 2, 5, 4, 12, 0, 3),
                     (11, 6, 2, 13, 9)):
            calls.update(dict.fromkeys(calls, 0))
            specs = [BipartitionSpec(V, N, v_a) for v_a in v_as]
            assert report(model, specs, methods) == [alone[v_a]
                                                     for v_a in v_as]
            # one table pair for each cut not next to the previous one
            assert calls["dim_table"] == 2 * (1 + (v_as[0] == 11))
            palindrome = (model.n_max is not None and 2 * N == top
                          and model.P == model.P[::-1])
            evaluated = 0
            for cut in {spec.mirrored_cut[2] for spec in specs} - {0}:
                blocks = len(BipartitionSpec(V, N, cut).n_a_range(
                    model.n_max))
                halved = palindrome or 2 * cut == V
                evaluated += (blocks + 1) // 2 if halved else blocks
            assert calls["_phi"] == evaluated
        # Vandermonde: every cut's blocks sum to the sector dimension
        # (each variance is finished with the sector dimension d_N)
        specs = [BipartitionSpec(V, N, v_a) for v_a in range(1, V // 2 + 1)]
        d_n = dim_fixed_n(model, V, N)
        assert all(var.numerator > 0.0
                   and var == entropy._variance_estimate(var.numerator, d_n)
                   for _, var in entropy._exact_sums(model, specs,
                                                     True).values())


# Full-sweep exact sums of sectors whose blocks straddle Psi's 2^64 cut
# (below it the full asymptotic series, above it ln x and 1/x), pinned
# bit for bit: (model, V, N, {V_A: (exact mean, exact variance)}).
PINNED_SWEEPS = (
    (('bosons',), 60, 60, {
        1: (1.3861519189651315, 1.9221257696549408e-35),
        15: (20.773986663535688, 2.179466280850989e-34),
        20: (27.687154554084543, 2.5694461464399276e-34),
        30: (38.48888366787054, 7.201170790808467e-35),
        40: (27.687154554084543, 2.5694461464399276e-34),
        59: (1.3861519189651315, 1.9221257696549408e-35)}),
    (('spin_j', 1), 80, 80, {
        1: (1.0986024415497126, 2.447351861535154e-42),
        20: (21.95399602473768, 3.793276070036539e-39),
        26: (28.530666961311805, 6.459386594576495e-39),
        40: (43.349099740350574, 4.6406176142132006e-38),
        53: (29.62621275314611, 6.971653592591662e-39),
        79: (1.0986024415497126, 2.447351861535154e-42)}),
    (('hardcore_bosons_2species',), 60, 30, {
        1: (1.0397207708399137, 9.458806939139754e-28),
        15: (15.578025223130869, 1.1057848013342278e-26),
        20: (20.759756067574354, 1.325194530974514e-26),
        30: (29.884371900312832, 1.949166637975592e-27),
        40: (20.759756067574354, 1.325194530974514e-26),
        59: (1.0397207708399137, 9.458806939139754e-28)}),
    (('capped_bosons', 3), 50, 70, {
        1: (1.382258124021065, 1.5285042735919148e-31),
        12: (16.57109428013595, 1.93071144400527e-30),
        16: (22.08491794064592, 2.6190146100341704e-30),
        25: (33.889356935278464, 5.2660180833344094e-30),
        33: (23.46235039854117, 2.794312530297599e-30),
        49: (1.382258124021065, 1.5285042735919148e-31)}),
    ({"P": [1, 2]}, 80, 40, {
        1: (1.0397207708399137, 1.0161399308889482e-36),
        20: (20.77636293607135, 1.569158321898967e-35),
        26: (26.999744010764974, 1.8497001986439928e-35),
        40: (40.13148036338044, 2.9820114276706402e-36),
        53: (28.036408153519265, 1.8879163451842877e-35),
        79: (1.0397207708399137, 1.0161399308889482e-36)}),
)


@pytest.mark.parametrize("spec,V,N,pinned", PINNED_SWEEPS)
def test_pinned_sweeps_straddling_the_short_series_cut(spec, V, N, pinned):
    model = from_json(spec) if isinstance(spec, dict) else catalog(*spec)
    reps = report(model, [BipartitionSpec(V, N, v_a) for v_a in range(V + 1)],
                  ("exact", "exact_variance"))
    assert {v_a: (reps[v_a].exact_mean, reps[v_a].exact_variance.value)
            for v_a in pinned} == pinned


@pytest.mark.parametrize("N,V_A,twice", [(4, 4, 2), (3, 3, 0)])
def test_block_kernel_streams_blocks_with_its_callers_d_n(N, V_A, twice):
    # fermions V = 8: the half-filled V_A = 4 cut's blocks are a palindrome
    # whose first `twice` stand for their mirror images, the N = 3 cut's
    # are not; the kernel reads the blocks once, so a generator will do
    model = catalog("fermions")
    pairs = [(d_a, d_b) for _, d_a, d_b in
             BipartitionSpec(8, N, V_A).blocks(model, dim_table)]
    assert (pairs == pairs[::-1]) == (twice > 0)
    blocks = [(d_a * d_b, d_a, d_b) for d_a, d_b in pairs]
    d_n = dim_fixed_n(model, 8, N)
    half = blocks[:len(blocks) - twice]
    streamed = entropy._block_sums((block for block in half), d_n, twice,
                                   True)
    assert streamed == entropy._block_sums(half, d_n, twice, True)
    assert streamed == entropy._block_sums(blocks, d_n, 0, True)
    mean, numerator = streamed
    assert entropy._exact_sums(model, [BipartitionSpec(8, N, V_A)],
                               True) == {
        (8, N, V_A): (mean, entropy._variance_estimate(numerator, d_n))}


def test_report_skips_only_the_cut_checks_its_request_made(monkeypatch):
    checks = []
    real_check = budget.check_exact_work

    def counted(model, specs, want_variance):
        checks.append((len(specs), want_variance))
        return real_check(model, specs, want_variance)

    monkeypatch.setattr(budget, "check_exact_work", counted)
    model = catalog("spin_j", 1)
    specs = [BipartitionSpec(9, 6, v_a) for v_a in (2, 7, 4, 5, 0, 4, 9, 2)]
    for methods, want_variance in REQUEST_METHODS:
        checks.clear()
        for spec in specs:
            report(model, [spec], methods)
        # each single-cut request checks its own cut ...
        assert checks == ([] if want_variance is None
                          else [(1, want_variance)] * len(specs))
        checks.clear()
        report(model, specs, methods)
        # ... and a whole request is checked once, none without an exact
        # method
        assert checks == ([] if want_variance is None
                          else [(len(specs), want_variance)])

    def no_table(*args):
        raise AssertionError("a table was built before the request's check")

    monkeypatch.setattr(entropy, "dim_table", no_table)
    sweep = [BipartitionSpec(4000, 2000, v_a) for v_a in range(4001)]
    checks.clear()
    with pytest.raises(InfeasibleSizeError, match="2001 distinct"):
        report(catalog("fermions"), sweep, ("exact", "exact_variance"))
    assert checks == [(4001, True)]
