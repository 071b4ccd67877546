"""Pair tables of the lemma battery: shared across specs, memoised per spec,
and equal to the seminorms computed from scratch."""

import numpy as np

from czmap import engine, runner
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


def test_battery_shares_tables_and_matches_brute_force(monkeypatch):
    specs = []

    class Recorded(EllipticOperatorSpec):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            specs.append(self)

    monkeypatch.setattr(runner, "EllipticOperatorSpec", Recorded)
    engine._ball_pairs.cache_clear()
    runner.run_lemma_battery(load_scenario(fixture_path("lemma-battery")))
    # s = 1/4, 1/2, 1; the transfer check shares the s = 1 table
    assert engine._ball_pairs.cache_info().currsize <= 3
    assert len(specs) == 18
    for spec in specs:
        assert spec.holder_transfer() == brute_coefficient_seminorm(
            spec, spec.reference_points)
        assert spec._coefficient_seminorm(spec.s) == brute_coefficient_seminorm(
            spec, spec.scaled_points())


def test_transfer_seminorm_computed_once_per_spec(monkeypatch):
    calls = []
    seminorm = PairTable.seminorm

    def counted(self, values):
        calls.append(self)
        return seminorm(self, values)

    monkeypatch.setattr(PairTable, "seminorm", counted)
    coeffs = [[Expression("1 + 0.1*sin(x1)", V2), Expression("0", V2)],
              [Expression("0", V2), Expression("1", V2)]]
    spec = EllipticOperatorSpec(s=0.5, q=2.0, coefficients=coeffs, Lambda=2.0)
    fields = ("x1^2", "x1*x2", "sin(2*x1)*x2")
    transfers = {verify_scaling_identities(spec, Expression(u, V2))["holder_transfer"]
                 for u in fields}
    # three coefficients for validate, three for the transfer, none per field
    assert len(calls) == 6
    assert transfers == {spec.holder_transfer()}
