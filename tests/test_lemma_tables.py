"""Pair tables of the lemma battery: shared across specs, memoised per spec,
skipped for constant coefficients, and equal to the seminorms computed
from scratch.  Field samples and dilations are built once per field."""

import numpy as np

from czmap import engine, expressions, runner
from czmap.engine import EllipticOperatorSpec, verify_scaling_identities
from czmap.expressions import Expression
from czmap.norms import PairTable
from czmap.scenario import fixture_path, load_scenario

V2 = ("x1", "x2")


def brute_seminorm(points, values, alpha):
    i, j = np.triu_indices(points.shape[0], k=1)
    return float(np.max(np.abs(values[i] - values[j])
                        / np.linalg.norm(points[i] - points[j], axis=1) ** alpha))


def brute_coefficient_seminorm(spec, points):
    """max over i <= j of [a^{ij}]_alpha, a sampled on B_2s, pairs on ``points``."""
    mask = spec.mask_outer.reshape(-1)
    spts = spec.scaled_points()[mask]
    worst = 0.0
    for i in range(spec.dimension):
        for j in range(i, spec.dimension):
            worst = max(worst, brute_seminorm(
                points[mask], spec.coefficients[i][j](spts), spec.alpha))
    return worst


def counted_seminorm_calls(monkeypatch) -> list:
    """The table of each field a ``PairTable`` evaluates, one entry per
    field: ``seminorms`` takes every evaluation, ``seminorm`` included."""
    calls = []
    seminorms = PairTable.seminorms

    def counted(self, fields):
        fields = np.asarray(fields, dtype=float).reshape(-1, self.size)
        calls.extend([self] * len(fields))
        return seminorms(self, fields)

    monkeypatch.setattr(PairTable, "seminorms", counted)
    return calls


def test_battery_shares_tables_and_matches_brute_force(monkeypatch):
    specs = []

    class Recorded(EllipticOperatorSpec):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            specs.append(self)

    monkeypatch.setattr(runner, "EllipticOperatorSpec", Recorded)
    engine._ball_pairs.cache_clear()
    calls = counted_seminorm_calls(monkeypatch)
    runner.run_lemma_battery(load_scenario(fixture_path("lemma-battery")))
    # s = 1/4, 1/2, 1; the transfer check shares the s = 1 table
    assert engine._ball_pairs.cache_info().currsize <= 3
    # 3 scales x 2 operators, built once for every q
    assert len(specs) == 6
    # only the wavy a^11 varies: validate and transfer once per scale
    assert len(calls) == 6
    for spec in specs:
        assert spec.holder_transfer() == brute_coefficient_seminorm(
            spec, spec.reference_points)
        assert spec._coefficient_seminorm(spec.s) == brute_coefficient_seminorm(
            spec, spec.scaled_points())


def test_transfer_seminorm_computed_once_per_spec(monkeypatch):
    calls = counted_seminorm_calls(monkeypatch)
    coeffs = [[Expression("1 + 0.1*sin(x1)", V2), Expression("0", V2)],
              [Expression("0", V2), Expression("1", V2)]]
    spec = EllipticOperatorSpec(s=0.5, coefficients=coeffs, Lambda=2.0)
    fields = ("x1^2", "x1*x2", "sin(2*x1)*x2")
    transfers = {verify_scaling_identities(spec, Expression(u, V2),
                                           q)["holder_transfer"]
                 for u in fields for q in (1.5, 2.0, 4.0)}
    # a^11 for validate and for the transfer; the constant a^12 and a^22,
    # each field and each q add none
    assert len(calls) == 2
    assert transfers == {spec.holder_transfer()}


def test_constant_coefficients_make_no_seminorm_calls(monkeypatch):
    calls = counted_seminorm_calls(monkeypatch)
    coeffs = [[Expression("1.5", V2), Expression("0.25", V2)],
              [Expression("0.25", V2), Expression("1", V2)]]
    for s in (0.25, 1.0):
        spec = EllipticOperatorSpec(s=s, coefficients=coeffs, Lambda=2.0)
        spec.validate()
        assert spec.holder_transfer() == brute_coefficient_seminorm(
            spec, spec.reference_points) == 0.0
        assert spec._coefficient_seminorm(spec.s) == brute_coefficient_seminorm(
            spec, spec.scaled_points())
    assert calls == []


def test_battery_samples_each_field_once(monkeypatch):
    counts = {"samples": 0, "substitutions": 0, "derivatives": 0}
    depth = [0]
    init = engine.ScalarFieldSamples.__init__
    substitute, derive = expressions.substitute, expressions.derive

    def counted_init(*args, **kwargs):
        counts["samples"] += 1
        init(*args, **kwargs)

    def counted_substitute(*args, **kwargs):
        # substitute recurses through the module name; count the outer call
        counts["substitutions"] += depth[0] == 0
        depth[0] += 1
        try:
            return substitute(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_derive(*args, **kwargs):
        counts["derivatives"] += 1
        return derive(*args, **kwargs)

    monkeypatch.setattr(engine.ScalarFieldSamples, "__init__", counted_init)
    monkeypatch.setattr(expressions, "substitute", counted_substitute)
    monkeypatch.setattr(expressions, "derive", counted_derive)
    runner.run_lemma_battery(load_scenario(fixture_path("lemma-battery")))
    # 6 specs x 3 fields, whatever the number of exponents
    assert counts["samples"] == 18
    # one dilation per (field, scale)
    assert counts["substitutions"] == 9
    # 5 partials (2 first, 3 second) for each field and each dilation
    assert counts["derivatives"] <= 60
