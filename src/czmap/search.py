"""Derivative-free extremal search over parametric map families.

Pattern search: axis polls with step contraction, a fixed number of
seeded restarts, deterministic evaluation order, and a persisted trace.
The returned point dominates every neighbor evaluated at the final step
size, which is the advertised contract.

The restart points are numpy's ``default_rng(seed).random()`` stream,
reproduced bit for bit by :func:`uniform_draws` from the standard
library, so a search loads neither ``numpy.random`` nor, through its
``secrets`` import, OpenSSL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CzmapError, EmptyFeasibleSet

RESTARTS = 3
INITIAL_STEP_FRACTION = 0.25
CONTRACTION = 0.5
MAX_CONTRACTIONS = 6
SEARCH_SEED = 20859

# numpy's SeedSequence (pool of 4 words) and PCG64 (XSL-RR) constants
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash with a running constant."""
    def hash32(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hash32


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def uniform_draws(seed: int):
    """Yield the doubles of ``numpy.random.default_rng(seed).random()``,
    bit for bit, from the standard library alone.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of
    four and expands it to PCG64's 128-bit state and increment; each draw
    steps the 128-bit LCG, takes the XSL-RR output word and keeps its top
    53 bits.  ``seed`` is an integer >= 0.
    """
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, not {seed}")
    words = [seed >> s & _M32 for s in range(0, seed.bit_length() or 1, 32)]
    hash_a = _hasher(_INIT_A, _MULT_A)
    pool = [hash_a(word) for word in (words + [0] * 3)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hash_a(word))

    # generate_state(4, uint64): eight words, paired little-endian
    hash_b = _hasher(_INIT_B, _MULT_B)
    state = [hash_b(pool[i % 4]) for i in range(8)]
    seeds = [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]
    # PCG64 seeding: from state 0, step, add the seed, step
    inc = (seeds[2] << 64 | seeds[3]) << 1 & _M128 | 1
    lcg = (inc + (seeds[0] << 64 | seeds[1])) * _PCG_MULT + inc & _M128
    while True:
        lcg = lcg * _PCG_MULT + inc & _M128
        word, rot = (lcg >> 64 ^ lcg) & _M64, lcg >> 122
        word = (word >> rot | word << (64 - rot)) & _M64
        yield (word >> 11) * 2.0 ** -53


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

    Raises EmptyFeasibleSet when every evaluated candidate was infeasible.
    """
    draws = uniform_draws(seed)
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
        point = np.array([next(draws) for _ in range(family.dimension)])
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
