"""Decide whether a pair of monomial ideals is joined for a given grading.

The verdict is exact over characteristic zero: the pair is joined exactly
when the integer edge equations have a common zero over the algebraic
closure, i.e. when their reduced Groebner basis is not the unit ideal.
A finite characteristic can be requested as a fast pre-screen: it is handed
to the solver, which reduces the same integer equations mod p.  Such records
are labeled and never merged with the characteristic-zero graph.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .arrows import SCHEMA_VERSION, oriented_pair
from .cells import edge_ideal
from .groebner import (DEFAULT_BUDGET, BudgetExceeded, _check_char,
                       buchberger, quotient_dimension)
from .monomial import Grading, format_ideal, parse_ideal


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


def decide_edge(M, N, g, budget=DEFAULT_BUDGET, with_dimension=False, char=0):
    """Tri-state edge decision for one pair and grading.

    The pair must be distinct with equal Hilbert functions (the dominance
    test raises ValueError otherwise).  When neither
    ideal dominates the other no equations are formed and the verdict is
    immediate.
    """
    if M == N:
        raise ValueError("edge decision needs two distinct ideals")
    _check_char(char)
    oriented = oriented_pair(M, N, g)
    if oriented is None:
        return EdgeRecord((M, N), g, EdgeStatus.NO_EDGE, characteristic=char)
    big, small = oriented
    ideal = edge_ideal(big, small, g)
    gens = ideal.nonzero_generators()
    start = time.perf_counter()
    try:
        gb = buchberger(gens, budget=budget, char=char)
    except BudgetExceeded as exc:
        elapsed = (time.perf_counter() - start) * 1000.0
        return EdgeRecord((M, N), g, EdgeStatus.UNKNOWN,
                          generator_count=len(gens), s_pairs=exc.s_pairs,
                          time_ms=elapsed, characteristic=char)
    elapsed = (time.perf_counter() - start) * 1000.0
    if gb.is_trivial():
        status, dim = EdgeStatus.NO_EDGE, None
    else:
        status = EdgeStatus.EDGE
        dim = (quotient_dimension(gb, nvars=ideal.ring.nvars)
               if with_dimension else None)
    return EdgeRecord((M, N), g, status, dimension=dim,
                      generator_count=len(gens),
                      s_pairs=gb.stats["s_pairs"], time_ms=elapsed,
                      characteristic=char)
