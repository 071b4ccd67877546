"""Derivative-free extremal search over parametric map families.

Pattern search: axis polls with step contraction, a fixed number of
seeded restarts, deterministic evaluation order, and a persisted trace.
The returned point dominates every neighbor evaluated at the final step
size, which is the advertised contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import CzmapError, EmptyFeasibleSet

RESTARTS = 3
INITIAL_STEP_FRACTION = 0.25
CONTRACTION = 0.5
MAX_CONTRACTIONS = 6
SEARCH_SEED = 20859


@dataclass
class SearchTraceEntry:
    params: tuple
    value: float | None
    feasible: bool
    phase: str    # restart | poll | final-poll

    def as_record(self) -> dict:
        return {"params": list(self.params), "value": self.value,
                "feasible": self.feasible, "phase": self.phase}


@dataclass
class SearchResult:
    best_params: np.ndarray
    best_value: float
    trace: list = field(default_factory=list)   # one entry per evaluation

    @property
    def evaluations(self) -> int:
        return len(self.trace)


class MapFamily:
    """A parametric family for the extremal search.

    ``bounds``: (lower, upper) arrays.  ``evaluate(params)`` returns the
    global-estimate ratio for one parameter point; infeasible candidates
    raise a :class:`CzmapError`.  Any other exception is a fault and ends
    the search.
    """

    def __init__(self, lower, upper, evaluate):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("parameter bounds must be equal-length vectors")
        if not np.all(self.lower < self.upper):
            raise ValueError("need lower < upper parameter bounds")
        self._evaluate = evaluate

    @property
    def dimension(self) -> int:
        return self.lower.size

    def evaluate(self, params: np.ndarray) -> float:
        return float(self._evaluate(np.asarray(params, dtype=float)))


def extremal_ratio_search(family: MapFamily, seed: int = SEARCH_SEED,
                          restarts: int = RESTARTS,
                          max_contractions: int = MAX_CONTRACTIONS) -> SearchResult:
    """Maximize the family's ratio by restarted pattern search.

    The first start is the box center; each later one is a point of
    ``random.Random(seed)`` draws, axis by axis.  ``seed`` is an integer
    >= 0.  Raises EmptyFeasibleSet when every evaluated candidate was
    infeasible.
    """
    if seed < 0:
        # random.Random folds the sign away: -1 would repeat seed 1
        raise ValueError(f"seed must be an integer >= 0, not {seed}")
    rng = random.Random(seed)
    span = family.upper - family.lower
    trace: list[SearchTraceEntry] = []

    def evaluate(params, phase) -> float | None:
        params = np.clip(params, family.lower, family.upper)
        try:
            value = family.evaluate(params)
            feasible = bool(np.isfinite(value))
        except CzmapError:
            value, feasible = None, False
        trace.append(SearchTraceEntry(params=tuple(float(x) for x in params),
                                      value=value, feasible=feasible,
                                      phase=phase))
        return value if feasible else None

    starts = [0.5 * (family.lower + family.upper)]
    for _ in range(max(0, restarts - 1)):
        point = np.array([rng.random() for _ in range(family.dimension)])
        starts.append(family.lower + span * point)

    best_params, best_value = None, -np.inf
    for start in starts:
        params = np.asarray(start, dtype=float)
        value = evaluate(params, "restart")
        step = INITIAL_STEP_FRACTION * span
        contractions = 0
        while True:
            phase = "final-poll" if contractions >= max_contractions else "poll"
            poll_best, poll_params = None, None
            for axis in range(family.dimension):
                for sign in (+1.0, -1.0):
                    cand = params.copy()
                    cand[axis] = np.clip(cand[axis] + sign * step[axis],
                                         family.lower[axis], family.upper[axis])
                    if np.allclose(cand, params):
                        continue
                    cval = evaluate(cand, phase)
                    if cval is not None and (poll_best is None or cval > poll_best):
                        poll_best, poll_params = cval, cand
            improved = (poll_best is not None
                        and (value is None or poll_best > value))
            if improved:
                params, value = poll_params, poll_best
                continue
            if contractions >= max_contractions:
                break
            step = step * CONTRACTION
            contractions += 1
        if value is not None and value > best_value:
            best_value, best_params = value, params
    if best_params is None:
        raise EmptyFeasibleSet("no feasible candidate in the search family")
    return SearchResult(best_params=np.asarray(best_params, dtype=float),
                        best_value=float(best_value), trace=trace)
