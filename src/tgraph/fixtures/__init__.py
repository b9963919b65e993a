"""Packaged golden runs, replayed by the verify-fixtures command.

Each fixture is a JSON file naming a kind plus its inputs and expected
output.  The runner recomputes everything and reports one line per fixture.
"""
from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from ..arrows import (arrow_map_exists, dual_condition, enumerate_arrow_maps,
                      is_arrow_map, is_system_of_arrows, oriented_pair)
from ..cells import cell_generators_f, edge_ideal, reduce_monomial
from ..cells import cell_generators_g
from ..groebner import buchberger, quotient_dimension
from ..monomial import (Grading, colon_box, format_ideal, format_monomial,
                        parse_ideal, parse_monomial)


def _grading(data):
    return Grading(data["alpha"], data["beta"])


def _oriented(data):
    """The fixture's pair (M, N), which it always names with M on top."""
    M, N, g = parse_ideal(data["M"]), parse_ideal(data["N"]), _grading(data)
    pair = oriented_pair(M, N, g)
    if pair is None or pair.big is not M:
        raise ValueError(f"fixture pair {M}, {N} is not ordered for {g}")
    return pair


def _pairs(data):
    return {parse_monomial(a): parse_monomial(b) for a, b in data}


def _check_cell_basis(data):
    M = parse_ideal(data["ideal"])
    basis = cell_generators_f(M, _grading(data))
    problems = []
    for i, expected in enumerate(data["elements"]):
        got = {format_monomial(m): str(p)
               for m, p in basis.elements[i].items()}
        if got != expected:
            problems.append(f"element {i}: {got} != {expected}")
    return problems


def _check_edge_ideal(data):
    ideal = edge_ideal(_oriented(data))
    got = {f"{format_monomial(n)};{format_monomial(s)}": str(p)
           for n, s, p in ideal.generators}
    expected = data["generators"]
    problems = [f"{k}: {got.get(k)!r} != {expected.get(k)!r}"
                for k in sorted(set(got) | set(expected))
                if got.get(k) != expected.get(k)]
    if "variables" in data:
        labels = [v.label() for v in ideal.ring.vars]
        if labels != data["variables"]:
            problems.append(f"variables {labels} != {data['variables']}")
    if "groebner" in data:
        gb = buchberger(ideal.nonzero_generators())
        if gb.is_trivial() != (not data["groebner"]["nonempty"]):
            problems.append("solvability verdict differs")
        elif data["groebner"].get("dimension") is not None:
            dim = quotient_dimension(gb, nvars=ideal.ring.nvars)
            if dim != data["groebner"]["dimension"]:
                problems.append(f"dimension {dim} != "
                                f"{data['groebner']['dimension']}")
    return problems


def _check_normal_form(data):
    M = parse_ideal(data["ideal"])
    basis = cell_generators_g(M, _grading(data))
    nf = reduce_monomial(parse_monomial(data["monomial"]), basis)
    got = {format_monomial(s): str(p) for s, p in nf.items()}
    if got != data["coefficients"]:
        return [f"{got} != {data['coefficients']}"]
    return []


def _check_arrow_map(data):
    witness = arrow_map_exists(_oriented(data))
    if not data.get("exists", True):
        return [] if witness is None else ["unexpected arrow map"]
    if witness is None:
        return ["no arrow map found"]
    got = dict(witness.moved_pairs())
    expected = _pairs(data["pairs"])
    if got != expected:
        return [f"{got} != {expected}"]
    return []


def _check_arrow_map_count(data):
    maps = enumerate_arrow_maps(_oriented(data))
    problems = []
    if len(maps) != data["count"]:
        problems.append(f"found {len(maps)} maps, expected {data['count']}")
    got = sorted(sorted((format_monomial(a), format_monomial(b))
                        for a, b in f.moved_pairs()) for f in maps)
    expected = sorted(sorted(map(tuple, pairs)) for pairs in data["maps"])
    if got != expected:
        problems.append("map lists differ")
    return problems


def _check_dual_discriminator(data):
    pair = _oriented(data)
    M, N, g = pair.big, pair.small, pair.grading
    problems = []
    box = tuple(data["box"])
    qm, qn = colon_box(box, M), colon_box(box, N)
    if format_ideal(qm) != data["colon_M"]:
        problems.append(f"(Q:M) = {qm}")
    if format_ideal(qn) != data["colon_N"]:
        problems.append(f"(Q:N) = {qn}")
    if (arrow_map_exists(pair) is None) == data["arrow_exists"]:
        problems.append("arrow-map existence differs")
    witness, used = dual_condition(pair)
    if used != box:
        problems.append(f"default box {used} != {box}")
    if (witness is None) != (not data["dual_exists"]):
        problems.append("dual verdict differs")
    system = _pairs(data["system_pairs"])
    if not is_system_of_arrows(qm, qn, g, system):
        problems.append("system of arrows rejected")
    if is_arrow_map(qm, qn, g, system):
        problems.append("system of arrows wrongly accepted as an arrow map")
    return problems


def _check_induced_map(data):
    from ..induced import induced_arrow_map

    gens = []
    for row in data["generators"]:
        gens.append({parse_monomial(m): Fraction(c) for m, c in row})
    M, N, witness = induced_arrow_map(gens, _grading(data),
                                      data["colength_bound"])
    problems = []
    if format_ideal(M) != data["M"]:
        problems.append(f"first limit {M}")
    if format_ideal(N) != data["N"]:
        problems.append(f"second limit {N}")
    got = dict(witness.moved_pairs())
    if got != _pairs(data["pairs"]):
        problems.append(f"map differs: {got}")
    return problems


def _check_graph(data):
    from ..assembly import PipelineDepth, build_tgraph

    graph = build_tgraph(data["d"], PipelineDepth.FULL, with_dimension=True)
    problems = []
    edges = sorted(map(tuple, data["edges"]))
    if sorted(graph.simple_edges) != edges:
        problems.append(f"edges {sorted(graph.simple_edges)}")
    for key, want in data["gradings"].items():
        i, j = map(int, key.split("-"))
        got = [[g.alpha, g.beta] for g in graph.edge_gradings(i, j)]
        if got != want:
            problems.append(f"gradings for {key}: {got} != {want}")
    for key, want in data["dimensions"].items():
        i, j = map(int, key.split("-"))
        dims = {r.dimension for k, r in zip(graph.keys, graph.records)
                if k[0] == (i, j) and r.status.value == "EDGE"}
        if dims != {want}:
            problems.append(f"dimension for {key}: {dims} != {want}")
    return problems


def _check_two_points(data):
    from ..general import saturation_label, two_points_graph

    vertices, edges, dims = two_points_graph()
    problems = []
    if len(vertices) != data["vertices"]:
        problems.append(f"{len(vertices)} vertices")
    if len(edges) != data["edges"]:
        problems.append(f"{len(edges)} edges")
    labels = {i + 1: saturation_label(v) for i, v in enumerate(vertices)}
    got_dim2 = sorted(
        sorted((labels[i], labels[j])) for (i, j), d in dims.items() if d == 2)
    want = sorted(sorted(pair) for pair in data["dimension_two"])
    if got_dim2 != want:
        problems.append(f"dimension-two edges: {got_dim2}")
    return problems


_CHECKS = {
    "cell_basis": _check_cell_basis,
    "edge_ideal": _check_edge_ideal,
    "normal_form": _check_normal_form,
    "arrow_map": _check_arrow_map,
    "arrow_map_count": _check_arrow_map_count,
    "dual_discriminator": _check_dual_discriminator,
    "induced_map": _check_induced_map,
    "graph": _check_graph,
    "two_points": _check_two_points,
}


def iter_fixtures():
    root = resources.files(__package__)
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            yield entry.name, json.loads(entry.read_text())


def run_all(report):
    failures = 0
    for name, data in iter_fixtures():
        problems = _CHECKS[data["kind"]](data)
        if problems:
            failures += 1
            report(f"FAIL {name}: " + "; ".join(problems))
        else:
            report(f"PASS {name}")
    return failures
