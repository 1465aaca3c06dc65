"""Every exit-4 refusal is the time budget or a listed size limit.

`InfeasibleSizeError` may be raised only by `budget._refuse_above_budget`,
which prices a request against the one-minute budget, and by the size
limits below, each of which bounds a resource that no time estimate covers.
A new raise site, such as a second time limit, fails this test until it is
listed here with the resource it bounds.
"""

import ast
from collections import Counter
from pathlib import Path

import page_entropy

# (module, function) -> the resource that each of its raises bounds
ALLOWED = {
    ("budget", "_refuse_above_budget"): [
        "run time: every estimate against the 60 s budget"],
    ("entropy", "_exact_sums"): [
        "table memory: exact sums only up to V = 4000"],
    ("haar_sampler", "build_sector_basis"): [
        "exact Gamma shapes: block sides up to 2^53"],
    ("spectra", "_occupation_basis"): [
        "dense memory: at most 4000 sites",
        "int64 occupations: N below 2^31",
        "dense memory: sector dimension up to 4000"],
}


def _raise_sites(path: Path):
    """(module, enclosing function) of each `raise InfeasibleSizeError`."""
    module = path.stem
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) \
                    else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) \
                    else getattr(exc, "id", None)
                if name == "InfeasibleSizeError":
                    sites.append((module, function))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_size_refusals_are_raised_only_at_the_listed_limits():
    package = Path(page_entropy.__file__).parent
    found = Counter(site for path in sorted(package.glob("*.py"))
                    for site in _raise_sites(path))
    assert found == Counter({site: len(resources)
                             for site, resources in ALLOWED.items()})
