"""Catalog models, P/Q evaluation, composition, serialization."""

import json
import math
import random

import mpmath as mp
import pytest

import page_entropy.cli as cli
from page_entropy.errors import ConfigError, DomainError
from page_entropy.local_model import (LocalModel, catalog, eval_zeta,
                                      from_json, power, product,
                                      shift_charges)

mp.mp.dps = 40

FIVE = ("fermions", "hardcore_bosons_2species", "bosons",
        "bosons_2species_unordered", "bosons_2species_ordered")


def series_oracle(model, z, terms=400):
    """(zeta, zeta', zeta'') by brute high-precision summation."""
    z = mp.mpf(z)
    top = model.n_max + 1 if model.n_max is not None else terms
    s0 = s1 = s2 = mp.mpf(0)
    for k in range(top):
        a = model.coefficient(k)
        if a:
            s0 += a * z**k
            s1 += a * k * z**(k - 1) if k >= 1 else 0
            s2 += a * k * (k - 1) * z**(k - 2) if k >= 2 else 0
    return s0, s1, s2


def test_catalog_coefficients():
    assert catalog("fermions").coefficients(4) == [1, 1, 0, 0]
    assert catalog("hardcore_bosons_2species").coefficients(4) == [1, 2, 0, 0]
    assert catalog("bosons").coefficients(5) == [1, 1, 1, 1, 1]
    assert catalog("bosons_2species_unordered").coefficients(5) == \
        [1, 2, 3, 4, 5]
    assert catalog("bosons_2species_ordered").coefficients(6) == \
        [1, 2, 4, 8, 16, 32]
    assert catalog("spin_j", 1.0).coefficients(4) == [1, 1, 1, 0]
    assert catalog("spin_j", 0.5).n_max == 1
    assert catalog("spin_j", 2).coefficients(6) == [1, 1, 1, 1, 1, 0]
    assert catalog("capped_bosons", 3).coefficients(5) == [1, 1, 1, 1, 0]


def test_catalog_rejects_bad_names_and_params():
    with pytest.raises(DomainError):
        catalog("anyons")
    with pytest.raises(DomainError):
        catalog("fermions", 2)
    with pytest.raises(DomainError):
        catalog("spin_j", 0.3)  # not a half-integer
    with pytest.raises(DomainError):
        catalog("capped_bosons", 0)
    with pytest.raises(DomainError):
        catalog("spin_j")
    for huge in (1e9, math.inf, math.nan):
        with pytest.raises(DomainError):
            catalog("spin_j", huge)


def test_closed_forms_match_series():
    rng = random.Random(2)
    for name in FIVE + ("spin_j", "capped_bosons"):
        model = (catalog(name) if name in FIVE else
                 catalog(name, 2))
        hi = 0.9 * min(model.radius, 4.0)
        for _ in range(15):
            z = rng.uniform(0.05, hi)
            got = eval_zeta(model, z)
            ref = series_oracle(model, z)
            for g, r in zip(got, ref):
                assert abs(g - float(r)) <= 1e-12 * max(1.0, abs(float(r)))


def taylor_oracle(P, Q, count):
    """First `count` Taylor coefficients of P/Q at 0, by mpmath."""
    def f(z):
        return mp.polyval(P[::-1], z) / mp.polyval(Q[::-1], z)
    return [int(mp.nint(c)) for c in mp.taylor(f, 0, count - 1)]


def test_series_path_agrees_with_closed_form():
    # a_k from the Q recurrence against the Taylor series of P/Q
    models = [catalog(name) for name in FIVE]
    models += [catalog("spin_j", 1.5), catalog("capped_bosons", 2),
               product([catalog("fermions"), catalog("bosons")]),
               power(catalog("bosons"), 3),
               LocalModel("mixed", [2, 1, 3], [1, -3, 2])]
    for model in models:
        assert model.coefficients(24) == taylor_oracle(model.P, model.Q, 24)


def test_series_rejects_z_at_or_beyond_radius():
    bosons = catalog("bosons")
    ordered = catalog("bosons_2species_ordered")
    for model, bad in ((bosons, (1.0, 1.3)), (ordered, (0.5, 0.75))):
        for z in bad + (0.0, -0.2):
            with pytest.raises(DomainError):
                eval_zeta(model, z)
    with pytest.raises(DomainError):
        eval_zeta(catalog("fermions"), 0.0)


def test_radius_is_smallest_positive_root():
    assert catalog("bosons").radius == 1.0
    assert catalog("bosons_2species_unordered").radius == 1.0  # (1 - z)^2
    assert catalog("bosons_2species_ordered").radius == 0.5
    assert power(catalog("bosons"), 3).radius == 1.0
    assert catalog("fermions").radius == math.inf
    golden = LocalModel("golden", [1], [1, -1, -1])  # Fibonacci numbers
    assert abs(golden.radius - (math.sqrt(5) - 1) / 2) < 1e-15
    assert golden.coefficients(8) == [1, 1, 2, 3, 5, 8, 13, 21]


# (P, Q) pairs each of which construction must reject
INVALID = {
    "q0_not_one": ([1, 1], [2, -1]),
    "no_vacuum": ([0, 1], [1]),
    "no_charge": ([1], [1]),
    "fractional": ([1, 1.5], [1]),
    "boolean": ([1, True], [1]),
    "negative_finite": ([1, -1, 1], [1]),
    "negative_unbounded": ([1, -2], [1, -1]),  # 1 - z - z^2 - ...
    "common_factor": ([1, 0, -1], [1, -1]),  # (1 - z^2)/(1 - z)
    "no_root_in_unit_interval": ([1], [1, 1]),  # 1/(1 + z)
    "positive_root_beyond_one": ([1], [1, 1, -1]),  # roots 1.618, -0.618
    "beyond_double_range": ([1, 10 ** 400], [1]),
}


def test_validation_rules(capsys, tmp_path):
    for name, (P, Q) in INVALID.items():
        with pytest.raises(DomainError):
            LocalModel(name, P, Q)
        doc = tmp_path / f"{name}.json"
        doc.write_text(json.dumps({"label": name, "P": P, "Q": Q}))
        assert cli.main(["dims", "--model", str(doc), "--V", "3",
                         "--N", "4"]) == 2
        assert "config error" in capsys.readouterr().err
    with pytest.raises(DomainError):
        LocalModel("offset", [1, 1], charge_offset=0.5)
    # (1 - 2 z^70)/(1 - z): the first negative a_k lies past the probe
    # made at construction and is refused when first computed
    late = LocalModel("late_negative", [1] + [0] * 69 + [-2], [1, -1])
    assert late.coefficient(69) == 1
    with pytest.raises(DomainError):
        late.coefficient(70)
    # a sector table reaching past a_70 is refused too, though its
    # recurrence never reads a_k
    doc = tmp_path / "late_negative.json"
    doc.write_text(late.to_json())
    assert cli.main(["dims", "--model", str(doc), "--V", "2",
                     "--N", "80"]) == 2
    assert "a_70 is negative" in capsys.readouterr().err


def test_coefficient_clamps_and_caches():
    model = catalog("spin_j", 1)
    assert model.coefficient(-3) == 0
    assert model.coefficient(7) == 0  # beyond n_max, rule never consulted
    assert model.coefficient(2) == 1


def test_json_round_trip_catalog():
    models = [catalog(name) for name in FIVE]
    models += [catalog("spin_j", 1.5), catalog("capped_bosons", 3),
               product([catalog("fermions"), catalog("bosons")]),
               power(catalog("bosons"), 3)]
    for model in models:
        clone = from_json(model.to_json())
        assert clone.label == model.label
        assert clone.n_max == model.n_max
        assert clone.radius == model.radius
        assert clone.coefficients(64) == model.coefficients(64)


def test_json_round_trip_explicit_list():
    model = shift_charges([1, 2, 1], k_min=-1, label="triplet")
    doc = json.loads(model.to_json())
    assert doc == {"label": "triplet", "P": [1, 2, 1], "Q": [1],
                   "charge_offset": -1}
    clone = from_json(doc)
    assert clone.coefficients(4) == [1, 2, 1, 0]
    assert clone.charge_offset == -1
    assert clone.n_max == 2


def test_json_rejects_malformed_documents():
    with pytest.raises(ConfigError):
        from_json({"coefficients": [1, 1], "n_max": 3})
    with pytest.raises(ConfigError):
        from_json("[1, 2]")
    with pytest.raises(ConfigError):
        from_json({"label": "empty"})
    with pytest.raises(ConfigError):
        from_json({"P": [1, 1], "Q": "1 - z"})
    with pytest.raises(ConfigError):
        from_json("{not json")
    with pytest.raises(ConfigError, match="'Q '"):
        from_json({"P": [1, 1], "nmax": 3, "Q ": [1, -1]})
    with pytest.raises(ConfigError, match="'Q ', 'nmax'"):
        from_json('{"P": [1, 1], "nmax": 3, "Q ": [1, -1]}')


def test_product_convolves():
    mixed = product([catalog("fermions"), catalog("bosons")])
    # (1 + z)/(1 - z) = 1 + 2z + 2z^2 + ...
    assert mixed.coefficients(5) == [1, 2, 2, 2, 2]
    assert mixed.n_max is None
    assert mixed.radius == 1.0
    # (1 + z)/(1 - z^2) shares the factor 1 + z, which cancels
    even = LocalModel("even_bosons", [1], [1, 0, -1])
    assert even.coefficients(4) == [1, 0, 1, 0]
    cancelled = product([catalog("fermions"), even])
    assert (cancelled.P, cancelled.Q) == ([1], [1, -1])
    two = product([catalog("fermions"), catalog("fermions")])
    assert two.coefficients(4) == [1, 2, 1, 0]
    assert two.n_max == 2
    with pytest.raises(DomainError, match="product needs at least one model"):
        product([])


def test_product_closed_form_consistent():
    mixed = product([catalog("fermions"), catalog("bosons")])
    for z in (0.1, 0.4, 0.8):
        got = eval_zeta(mixed, z)
        ref = series_oracle(mixed, z, terms=3000)
        for g, r in zip(got, ref):
            assert abs(g - float(r)) <= 1e-10 * max(1.0, abs(float(r)))


def test_power_and_identity():
    model = catalog("fermions")
    assert power(model, 1) is model
    cubed = power(model, 3)
    assert cubed.coefficients(5) == [1, 3, 3, 1, 0]
    assert cubed.n_max == 3
    with pytest.raises(DomainError):
        power(model, 0)


def test_shift_charges_maps_spin_window():
    spin1 = shift_charges([1, 1, 1], k_min=-1, label="spin1_window")
    ref = catalog("spin_j", 1)
    assert spin1.coefficients(4) == ref.coefficients(4)
    assert spin1.charge_offset == -1
    with pytest.raises(DomainError):
        shift_charges([1, 1], k_min=None)
    with pytest.raises(DomainError):
        shift_charges([], k_min=0)
