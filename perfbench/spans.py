"""Layer spans recorded from outside the package.

`Tracer.install` replaces, for the duration of one traced pass, the names
each caller looks up at call time: module globals such as
`entropy.dim_table` or `saddle.eval_zeta`, and the module objects `cli.ent`
and `spectra.np`, which are swapped for proxies so that only those callers
see the wrappers.  Nothing under `src/` changes.

A span is `[name, start, end, parent, leaf_s, leaf_n, count_n]`.  Hot
functions (the numerics kernels and `eval_zeta`, called hundreds of
thousands of times) are "leaves": instead of a span each, their call
count and time are added to the enclosing span and to a per-name total.
`entropy._phi` is only counted (one call per N_A block summed).  The
wrapper cost of leaves and counters is calibrated in the same process and
subtracted (`calibrate`, `layer_metrics`).  `saddle.calls` counts
`beta_family` calls; `n_star` spans add to `saddle.self_s` only.

Self time of a span is its duration minus the part its child spans and
leaves cover.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# span name -> per-layer self-time metric
_SELF_METRIC = {
    "cli.main": "cli.self_s",
    "cli.render": "cli.render_s",
    "entropy.report": "entropy.self_s",
    "entropy.exact_average": "entropy.self_s",
    "entropy.asymptotic_terms": "entropy.self_s",
    "dimensions.dim_table": "dimensions.self_s",
    "saddle.beta_family": "saddle.self_s",
    "saddle.n_star": "saddle.self_s",
    "haar_sampler.build_sector_basis": "haar_sampler.basis_s",
    "haar_sampler.mc_average": "haar_sampler.draw_s",
    "haar_sampler.sample_entropy": "haar_sampler.draw_s",
    "haar_sampler.entropy_of_block_vector": "haar_sampler.schmidt_s",
    "spectra.build_spin1_xxz": "spectra.build_s",
    "spectra.build_bose_hubbard": "spectra.build_s",
    "spectra.eigh": "spectra.eigh_s",
    "spectra.entropy_of_block_vector": "spectra.schmidt_s",
    "spectra.mid_spectrum_entropies": "spectra.cut_blocks_s",
}

_NUMERICS = ("digamma_of_dim", "trigamma_of_dim", "ln_big", "erfc",
             "exp_times_erfc")

# Every per-layer metric, with its unit and the direction that is better.
PER_LAYER = {
    "dimensions.calls": ("count", "lower"),
    "dimensions.self_s": ("s", "lower"),
    "dimensions.max_bits": ("bits", "lower"),
    "dimensions.repeat_ratio": ("ratio", "lower"),
    "numerics.calls": ("count", "lower"),
    "numerics.self_s": ("s", "lower"),
    "entropy.calls": ("count", "lower"),
    "entropy.blocks": ("count", "lower"),
    "entropy.self_s": ("s", "lower"),
    "saddle.calls": ("count", "lower"),
    "saddle.self_s": ("s", "lower"),
    "saddle.evals_per_call": ("evals/call", "lower"),
    "saddle.repeat_ratio": ("ratio", "lower"),
    "local_model.eval_zeta_calls": ("count", "lower"),
    "local_model.eval_zeta_s": ("s", "lower"),
    "haar_sampler.samples": ("count", "higher"),
    "haar_sampler.basis_s": ("s", "lower"),
    "haar_sampler.draw_s": ("s", "lower"),
    "haar_sampler.schmidt_s": ("s", "lower"),
    "haar_sampler.sum_min_side": ("count", "lower"),
    "spectra.build_s": ("s", "lower"),
    "spectra.eigh_s": ("s", "lower"),
    "spectra.schmidt_s": ("s", "lower"),
    "spectra.cut_blocks_s": ("s", "lower"),
    "spectra.dim_total": ("states", "lower"),
    "cli.render_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class _Proxy:
    """Stands in for a module: listed attributes overridden, rest forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans, leaf totals and per-layer notes of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaf = {}          # leaf name -> [calls, seconds]
        self.seen = {}          # span name -> set of argument keys
        self.repeats = {}       # span name -> calls with a seen key
        self.kept = {}          # span name -> results kept for analysis
        self.rows = 0

    # -- wrappers -------------------------------------------------------------

    def span(self, fn, name, key=None, keep=False):
        """Wrap fn in a span; `key(args)` feeds the repeat ratio."""
        spans, stack = self.spans, self.stack
        seen = self.seen.setdefault(name, set()) if key else None
        kept = self.kept.setdefault(name, []) if keep else None

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if seen is not None:
                k = key(args)
                if k in seen:
                    self.repeats[name] = self.repeats.get(name, 0) + 1
                else:
                    seen.add(k)
            if kept is not None:
                kept.append(out)
            return out
        return wrapper

    def leaf_wrapper(self, fn, name):
        """Count and time fn into the enclosing span, without a span."""
        spans, stack = self.spans, self.stack
        total = self.leaf.setdefault(name, [0, 0.0])

        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            d = perf_counter() - t0
            rec = spans[stack[-1]]
            rec[4] += d
            rec[5] += 1
            total[0] += 1
            total[1] += d
            return out
        return wrapper

    def count_wrapper(self, fn):
        """Count calls of fn on the enclosing span."""
        spans, stack = self.spans, self.stack

        def wrapper(*args):
            spans[stack[-1]][6] += 1
            return fn(*args)
        return wrapper

    def render_wrapper(self, fn):
        span = self.span(fn, "cli.render")

        def wrapper(result):
            self.rows += len(result["rows"])
            return span(result)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, modules):
        """Patch the caller-side names; returns a function restoring them."""
        cli, ent = modules["cli"], modules["entropy"]
        saddle, haar = modules["saddle"], modules["haar_sampler"]
        spectra = modules["spectra"]
        np = spectra.np

        def model_v_cap(args):
            return (args[0], args[1], args[2])

        def model_n(args):
            return (args[0], float(args[1]))

        dim_table = self.span(ent.dim_table, "dimensions.dim_table",
                              key=model_v_cap, keep=True)
        beta_family = self.span(saddle.beta_family, "saddle.beta_family",
                                key=model_n)
        n_star = self.span(saddle.n_star, "saddle.n_star")
        patches = [
            (cli, "ent", _Proxy(ent, **{
                name: self.span(getattr(ent, name), f"entropy.{name}")
                for name in ("report", "exact_average", "asymptotic_terms")})),
            (cli, "dim_table", dim_table),
            (cli, "beta_family", beta_family),
            (cli, "n_star", n_star),
            (cli, "render_csv", self.render_wrapper(cli.render_csv)),
            (cli, "render_json", self.render_wrapper(cli.render_json)),
            (cli, "build_sector_basis",
             self.span(haar.build_sector_basis,
                       "haar_sampler.build_sector_basis", keep=True)),
            (cli, "mc_average",
             self.span(haar.mc_average, "haar_sampler.mc_average")),
            (cli, "build_spin1_xxz",
             self.span(spectra.build_spin1_xxz, "spectra.build_spin1_xxz",
                       keep=True)),
            (cli, "build_bose_hubbard",
             self.span(spectra.build_bose_hubbard,
                       "spectra.build_bose_hubbard", keep=True)),
            (cli, "mid_spectrum_entropies",
             self.span(spectra.mid_spectrum_entropies,
                       "spectra.mid_spectrum_entropies")),
            (ent, "dim_table", dim_table),
            (ent, "beta_family", beta_family),
            (ent, "n_star", n_star),
            (ent, "_phi", self.count_wrapper(ent._phi)),
            (saddle, "eval_zeta",
             self.leaf_wrapper(saddle.eval_zeta, "local_model.eval_zeta")),
            (haar, "dim_table", dim_table),
            (haar, "sample_entropy",
             self.span(haar.sample_entropy, "haar_sampler.sample_entropy")),
            (haar, "entropy_of_block_vector",
             self.span(haar.entropy_of_block_vector,
                       "haar_sampler.entropy_of_block_vector")),
            (spectra, "np", _Proxy(np, linalg=_Proxy(
                np.linalg, eigh=self.span(np.linalg.eigh, "spectra.eigh")))),
            (spectra, "entropy_of_block_vector",
             self.span(spectra.entropy_of_block_vector,
                       "spectra.entropy_of_block_vector")),
        ]
        patches += [(ent, name, self.leaf_wrapper(getattr(ent, name),
                                                  f"numerics.{name}"))
                    for name in _NUMERICS]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        for mod, name, value in patches:
            setattr(mod, name, value)

        def restore():
            for mod, name, value in reversed(saved):
                setattr(mod, name, value)
        return restore


# -- wrapper cost ------------------------------------------------------------

def calibrate(reps: int = 20000, rounds: int = 7) -> dict:
    """Per-call cost of the leaf and counter wrappers, in seconds.

    `leaf_inner`: how much a leaf's recorded time exceeds the bare call;
    `leaf_outer`: the rest of the leaf wrapper, which lands in the enclosing
    span; `count`: the counter wrapper, which lands in the enclosing span.
    The minimum over `rounds` is taken, the usual estimate of a fixed cost.
    """
    def noop(x):
        return x

    samples = {"leaf_inner": [], "leaf_outer": [], "count": []}
    for _ in range(rounds):
        tracer = Tracer()
        tracer.spans.append(["calibration", 0.0, 0.0, -1, 0.0, 0, 0])
        tracer.stack.append(0)
        leaf = tracer.leaf_wrapper(noop, "noop")
        counted = tracer.count_wrapper(noop)

        t0 = perf_counter()
        for _ in range(reps):
            noop(1)
        bare = (perf_counter() - t0) / reps
        t0 = perf_counter()
        for _ in range(reps):
            leaf(1)
        wrapped = (perf_counter() - t0) / reps
        t0 = perf_counter()
        for _ in range(reps):
            counted(1)
        count = (perf_counter() - t0) / reps
        recorded = tracer.leaf["noop"][1] / reps
        samples["leaf_inner"].append(recorded - bare)
        samples["leaf_outer"].append(wrapped - recorded)
        samples["count"].append(count - bare)
    return {name: max(0.0, min(values)) for name, values in samples.items()}


# -- analysis ---------------------------------------------------------------

def layer_metrics(tracer: Tracer, cost: dict) -> dict:
    """Per-layer metrics of one traced pass (without trace.overhead_s)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]

    out = {name: 0.0 for name in PER_LAYER if name.endswith("_s")}
    calls = {}
    evals_in_saddle = 0
    for i, (name, start, end, _, leaf_s, leaf_n, count_n) in enumerate(spans):
        own = (end - start - child[i] - leaf_s
               - leaf_n * cost["leaf_outer"] - count_n * cost["count"])
        out[_SELF_METRIC[name]] += own
        calls[name] = calls.get(name, 0) + 1
        if name == "saddle.beta_family":
            evals_in_saddle += leaf_n

    def leaf_total(prefix):
        n = sum(v[0] for k, v in tracer.leaf.items() if k.startswith(prefix))
        s = sum(v[1] for k, v in tracer.leaf.items() if k.startswith(prefix))
        return n, s - n * cost["leaf_inner"]

    out["numerics.calls"], out["numerics.self_s"] = leaf_total("numerics.")
    (out["local_model.eval_zeta_calls"],
     out["local_model.eval_zeta_s"]) = leaf_total("local_model.eval_zeta")

    dim_calls = calls.get("dimensions.dim_table", 0)
    tables = {id(t): t for t in tracer.kept["dimensions.dim_table"]}
    out["dimensions.calls"] = dim_calls
    out["dimensions.max_bits"] = max(
        (d.bit_length() for t in tables.values() for d in t), default=0)
    out["dimensions.repeat_ratio"] = _ratio(
        tracer.repeats.get("dimensions.dim_table", 0), dim_calls)

    out["entropy.calls"] = sum(calls.get(f"entropy.{name}", 0) for name in
                               ("report", "exact_average", "asymptotic_terms"))
    out["entropy.blocks"] = sum(rec[6] for rec in spans)

    beta_calls = calls.get("saddle.beta_family", 0)
    out["saddle.calls"] = beta_calls
    out["saddle.evals_per_call"] = _ratio(evals_in_saddle, beta_calls)
    out["saddle.repeat_ratio"] = _ratio(
        tracer.repeats.get("saddle.beta_family", 0), beta_calls)

    out["haar_sampler.samples"] = calls.get("haar_sampler.sample_entropy", 0)
    out["haar_sampler.sum_min_side"] = sum(
        min(blk.d_a, blk.d_b)
        for basis in tracer.kept["haar_sampler.build_sector_basis"]
        for blk in basis.blocks)

    out["spectra.dim_total"] = sum(
        len(ham.basis) for name in ("spectra.build_spin1_xxz",
                                    "spectra.build_bose_hubbard")
        for ham in tracer.kept[name])
    out["cli.rows"] = tracer.rows
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def median_metrics(per_pass: list[dict]) -> dict:
    """Median over passes of every metric."""
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}
