"""Decide whether a pair of monomial ideals is joined for a given grading.

The verdict is exact over characteristic zero: the pair is joined exactly
when the integer edge equations have a common zero over the algebraic
closure, i.e. when their reduced Groebner basis is not the unit ideal.
A finite characteristic can be requested as a fast pre-screen: it is handed
to the solver, which reduces the same integer equations mod p.  Such records
are labeled and never merged with the characteristic-zero graph.

The solver runs on the edge ring's variable list reversed, the opposite
side's ``ct`` coordinates first.  Whether a common zero exists, and the
Krull dimension, do not depend on the monomial order, but the work does: at
colengths 9 to 11 the reversed order needs a half to two thirds of the
S-pairs of the printed one, and its slowest job is 3 to 30 times faster.

Before the solve, ``groebner.presolve`` substitutes away each variable that
an equation fixes as x = -c*(terms without x), c = 1 or -1.  The quotient
ring keeps its isomorphism class, so the verdict and the dimension, counted
in the remaining variables, are unchanged; at colengths 9 to 11 the S-pairs
fall by about 40 %.  A record's ``s_pairs`` counts the presolved run in the
reversed order, and ``ENGINE`` names both in the edge cache key;
``generator_count`` stays the number of nonzero edge equations.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .arrows import SCHEMA_VERSION, oriented_pair
from .cells import edge_ideal
from .groebner import (DEFAULT_BUDGET, BudgetExceeded, _check_char,
                       buchberger, presolve, quotient_dimension)
from .monomial import Grading, format_ideal, parse_ideal
from .poly import Ring


class EdgeStatus(Enum):
    EDGE = "EDGE"
    NO_EDGE = "NO_EDGE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class EdgeRecord:
    pair: tuple  # (M, N) as given by the caller
    grading: Grading
    status: EdgeStatus
    dimension: object = None  # int when computed
    generator_count: int = 0
    s_pairs: int = 0
    # solver wall time: not written by to_json, not compared
    time_ms: float = field(default=0.0, compare=False)
    characteristic: int = 0

    def to_json(self):
        return {
            "schema": f"tgraph.edge-record/{SCHEMA_VERSION}",
            "pair": [format_ideal(self.pair[0]), format_ideal(self.pair[1])],
            "grading": {"alpha": self.grading.alpha, "beta": self.grading.beta},
            "status": self.status.value,
            "dimension": self.dimension,
            "generator_count": self.generator_count,
            "groebner": {"s_pairs": self.s_pairs},
            "characteristic": self.characteristic,
        }

    @classmethod
    def from_json(cls, data):
        """The record `to_json` wrote; a missing field raises KeyError."""
        if data["schema"] != f"tgraph.edge-record/{SCHEMA_VERSION}":
            raise ValueError(f"not an edge record: {data['schema']!r}")
        return cls(
            pair=(parse_ideal(data["pair"][0]), parse_ideal(data["pair"][1])),
            grading=Grading(data["grading"]["alpha"], data["grading"]["beta"]),
            status=EdgeStatus(data["status"]),
            dimension=data["dimension"],
            generator_count=data["generator_count"],
            s_pairs=data["groebner"]["s_pairs"],
            characteristic=data["characteristic"],
        )


# The presolve and the solver order, part of the edge cache key: a change to
# either changes the work a record counts, so records solved another way
# become misses.
ENGINE = "groebner/presolved-reversed-variables"


def _solver_generators(ring, equations):
    """An edge ideal's nonzero `equations`, presolved on its `ring`'s
    variable list reversed: the (ring, equations) ``buchberger`` decides."""
    return presolve(equations, Ring(reversed(ring.vars)))


def decide_edge(M, N, g, budget=DEFAULT_BUDGET, with_dimension=False, char=0):
    """Tri-state edge decision for one pair and grading.

    The two ideals must differ and share a Hilbert function; otherwise
    ``edge_ideal`` or ``oriented_pair`` raises ValueError.  When neither
    ideal dominates the other no equations are formed and the verdict is
    immediate.  Otherwise ``buchberger`` decides the oriented pair's edge
    equations, presolved, in reversed variable order (see the module
    docstring).

    ``char`` is 0 or a prime, else ValueError, on either path: the solver
    checks it, and an immediate verdict checks it here.
    """
    pair = oriented_pair(M, N, g)
    if pair is None:
        _check_char(char)
        return EdgeRecord((M, N), g, EdgeStatus.NO_EDGE, characteristic=char)
    ideal = edge_ideal(pair)
    equations = ideal.nonzero_generators()
    start = time.perf_counter()
    ring, gens = _solver_generators(ideal.ring, equations)
    try:
        gb = buchberger(gens, budget=budget, char=char)
    except BudgetExceeded as exc:
        gb, s_pairs = None, exc.s_pairs
    else:
        s_pairs = gb.stats["s_pairs"]
    elapsed = (time.perf_counter() - start) * 1000.0
    dim = None
    if gb is None:
        status = EdgeStatus.UNKNOWN
    elif gb.is_trivial():
        status = EdgeStatus.NO_EDGE
    else:
        status = EdgeStatus.EDGE
        if with_dimension:
            dim = quotient_dimension(gb, nvars=ring.nvars)
    return EdgeRecord((M, N), g, status, dimension=dim,
                      generator_count=len(equations),
                      s_pairs=s_pairs,
                      time_ms=elapsed, characteristic=char)
