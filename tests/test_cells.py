import hashlib
import random
import sys
from fractions import Fraction

import pytest

from tgraph import cells
from tgraph.arrows import oriented_pair
from tgraph.assembly import (PipelineDepth, build_tgraph, coprime_gradings,
                             pair_grading_jobs)
from tgraph.cells import (cell_generators_f, cell_generators_g, edge_ideal,
                          reduce_monomial, significant_arrows,
                          tangent_weight_count)
from tgraph.induced import cell_point, initial_ideal, rref, specialize
from tgraph.monomial import (Grading, enumerate_ideals, format_monomial,
                             hilbert_function, parse_ideal, parse_monomial)
from tgraph.poly import ArrowVar
from tgraph.strolls import edge_ideal_hikes, enumerate_paths, walk_polynomials

from oracles import (extremal_ideals, hook_count_for_grading,
                     hook_tangent_weights, mirrored_significant_arrows,
                     top_first)

G11 = Grading(1, 1)
M21 = parse_ideal("<x^8, x^5*y, x^3*y^3, y^4>")
N21 = parse_ideal("<x^8, x^5*y, x^2*y^2, y^6>")


def poly_str(elem):
    return {format_monomial(m): str(p) for m, p in elem.items()}


def test_significant_arrows_colength21():
    arrows = significant_arrows(M21, G11)
    assert arrows.positive == ((1, 1), (2, 1), (2, 3),
                               (3, 1), (3, 2), (3, 3))


def test_significant_arrows_opposite_side():
    # the y-smaller side of N21 is the x-smaller side of its swap
    arrows = significant_arrows(N21.swap(), G11.swap())
    assert arrows.positive == ((1, 1), (1, 2), (2, 4))


def test_significant_arrows_match_the_mirrored_loops():
    # the negative arrows are the positive rule on the swap; they must be the
    # arrows the mirrored negative loop finds, in the same order
    count = 0
    for d in range(1, 11):
        gradings = coprime_gradings(d + 1)
        for M in enumerate_ideals(d):
            for g in gradings:
                arrows = significant_arrows(M, g)
                assert ((arrows.positive, arrows.negative)
                        == mirrored_significant_arrows(M, g)), (M, g)
                count += 1
    assert count == 7922


def test_each_side_of_an_edge_ideal_finds_its_arrows_once(monkeypatch):
    # a full build reads the positive arrows of each side once per edge
    # ideal and never asks for the negative ones
    calls = {"edge_ideal": 0, "_positive_arrows": 0, "significant_arrows": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        real = getattr(cells, name)
        for module in [m for k, m in sys.modules.items()
                       if k == "tgraph" or k.startswith("tgraph.")]:
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted(name, real))
    build_tgraph(7, PipelineDepth.FULL)
    assert calls["edge_ideal"] == 53
    assert calls["significant_arrows"] == 0
    assert calls["_positive_arrows"] == 2 * calls["edge_ideal"]


def test_arrows_vanish_for_point_stabilizers():
    # when no tangent weight points along the grading line, both sets are
    # empty; the arm/leg statistics provide the independent count
    for d in (3, 5):
        for M in enumerate_ideals(d):
            for g in (Grading(1, 1), Grading(2, 1), Grading(1, 3)):
                arrows = significant_arrows(M, g)
                assert len(arrows.positive) == hook_count_for_grading(M, g, True)
                assert len(arrows.negative) == hook_count_for_grading(M, g, False)


def test_cell_generators_match_display():
    basis = cell_generators_f(M21, G11)
    assert poly_str(basis.elements[0]) == {"x^8": "1"}
    assert poly_str(basis.elements[1]) == {"x^5*y": "1", "x^6": "c1^1"}
    assert poly_str(basis.elements[2]) == {
        "x^3*y^3": "1", "x^4*y^2": "c1^1 + c2^1",
        "x^5*y": "c1^1*c2^1", "x^6": "c2^3"}
    assert poly_str(basis.elements[3]) == {
        "y^4": "1", "x*y^3": "c1^1 + c2^1 + c3^1",
        "x^2*y^2": "c1^1*c2^1 + c1^1*c3^1 + c2^1*c3^1 + c3^2",
        "x^3*y": "c1^1*c2^1*c3^1 + c1^1*c3^2 + c2^3 + c3^3",
        "x^4": "c2^3*c3^1 + c1^1*c3^3"}


def test_monomial_cell_is_rigid_without_arrows():
    M = parse_ideal("<x, y^3>")
    g = Grading(3, 1)
    if significant_arrows(M, g).positive == ():
        basis = cell_generators_f(M, g)
        for lead, elem in zip(basis.ideal.gens, basis.elements):
            assert elem == {lead: basis.ring.one()}


def test_recursion_matches_path_enumeration():
    rng = random.Random(2)
    for d in range(2, 9):
        pool = enumerate_ideals(d)
        for M in rng.sample(pool, min(3, len(pool))):
            for g in (Grading(1, 1), Grading(1, 2)):
                basis = cell_generators_f(M, g)
                paths = enumerate_paths(M, g)
                for i, elem in enumerate(basis.elements):
                    by_len = {}
                    for seq, length in paths[i]:
                        exps = [0] * basis.ring.nvars
                        for (gi, l) in seq:
                            exps[basis.ring.index[ArrowVar(0, gi, l)]] += 1
                        slot = by_len.setdefault(length, {})
                        key = tuple(exps)
                        slot[key] = slot.get(key, 0) + 1
                    expected = {g.shift(M.gens[i], length): basis.ring.poly(t)
                                for length, t in by_len.items()}
                    expected[M.gens[i]] = basis.ring.one()
                    assert elem == expected


def test_reduced_basis_tails_are_standard():
    for d in range(2, 8):
        for M in enumerate_ideals(d):
            basis = cell_generators_g(M, G11)
            for lead, elem in zip(basis.ideal.gens, basis.elements):
                for m in elem:
                    assert m == lead or not basis.ideal.contains(m)


def test_reduced_basis_matches_walk_enumeration():
    rng = random.Random(4)
    for d in range(2, 9):
        pool = enumerate_ideals(d)
        for M in rng.sample(pool, min(3, len(pool))):
            gbasis = cell_generators_g(M, G11)
            walks = walk_polynomials(M, G11, gbasis.ring)
            for i, elem in enumerate(gbasis.elements):
                lead = gbasis.ideal.gens[i]
                expected = {lead: gbasis.ring.one()}
                for length, poly in walks[i].items():
                    target = G11.shift(lead, length)
                    if not M.contains(target):
                        expected[target] = poly
                expected = {m: p for m, p in expected.items() if p}
                assert elem == expected


def test_normal_form_examples():
    gbasis = cell_generators_g(M21, G11)
    nf = reduce_monomial(parse_monomial("x^2*y^4"), gbasis)
    assert {format_monomial(m): str(p) for m, p in nf.items()} == {
        "x^4*y^2": "c1^1**2 + c1^1*c2^1 + c2^1**2 - c3^2",
        "x^6": "-c1^1**3*c2^1 - c1^1**2*c2^1**2 + c1^1**2*c3^2 "
               "+ 2*c1^1*c2^3 + c2^1*c2^3",
    }
    with pytest.raises(ValueError):
        reduce_monomial(parse_monomial("x^4*y^2"), gbasis)


def test_normal_form_by_numeric_specialization():
    # evaluate the cell at rational points and redo the reduction purely by
    # row operations on the weight slice; the symbolic answer must specialize
    rng = random.Random(6)
    gbasis = cell_generators_g(M21, G11)
    fbasis = cell_generators_f(M21, G11)
    mono = parse_monomial("x^2*y^4")
    nf = reduce_monomial(mono, gbasis)
    for _ in range(10):
        values = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for v in gbasis.ring.vars}
        rows = specialize(fbasis, values)
        w = G11.weight(mono)
        slice_rows = []
        for lead, row in zip(fbasis.ideal.gens, rows):
            rw = G11.weight(lead)
            if rw > w:
                continue
            for u in G11.monomials_of_weight(w - rw):
                slice_rows.append({(m[0] + u[0], m[1] + u[1]): c
                                   for m, c in row.items()})
        columns = G11.monomials_of_weight(w)[::-1]
        piv = rref(slice_rows, columns)
        vec = {mono: Fraction(1)}
        for col in columns:
            if col in piv and vec.get(col):
                factor = vec[col]
                for c2, v2 in piv[col].items():
                    new = vec.get(c2, Fraction(0)) - factor * v2
                    if new:
                        vec[c2] = new
                    else:
                        vec.pop(c2, None)
        expected = {}
        for s, poly in nf.items():
            total = Fraction(0)
            for exps, coeff in poly.terms.items():
                term = Fraction(coeff)
                for var, e in zip(poly.ring.vars, exps):
                    term *= values[var] ** e
                total += term
            if total:
                expected[s] = total
        assert vec == expected


def test_edge_ideal_small_pair_exact():
    E = edge_ideal(top_first(parse_ideal("<x^5, y^2>"),
                             parse_ideal("<x^2, y^5>"), G11))
    generators = {(format_monomial(n), format_monomial(s)): str(p)
                  for n, s, p in E.generators}
    assert generators == {
        ("y^5", "x^4*y"): "c1^1**4 - 3*c1^1**2*c1^2 + c1^2**2",
        ("x^2", "x*y"): "-c1^1*ct1^2 + ct1^1",
        ("x^2", "x^2"): "-c1^2*ct1^2 + 1",
    }
    assert [v.label() for v in E.ring.vars] == ["c1^1", "c1^2",
                                                "ct1^1", "ct1^2"]


def test_edge_ideal_rejects_bad_input():
    # the order comes with the pair; a pair of one ideal has no equations,
    # and a pair with different Hilbert functions is never oriented
    M = parse_ideal("<y^5, x^2>")
    with pytest.raises(ValueError, match="the two ideals must differ"):
        edge_ideal(oriented_pair(M, M, G11))
    with pytest.raises(ValueError, match="different Hilbert functions"):
        oriented_pair(parse_ideal("<x^2, y^2>"), parse_ideal("<x^4, y>"), G11)


def test_edge_ideal_coefficients_are_integers():
    for d in (4, 5, 6):
        pool = enumerate_ideals(d)
        for i, M in enumerate(pool):
            for N in pool[i + 1:]:
                for g in (Grading(1, 1), Grading(2, 1)):
                    if hilbert_function(M, g) != hilbert_function(N, g):
                        continue
                    pair = oriented_pair(M, N, g)
                    if pair is None:
                        continue
                    E = edge_ideal(pair)
                    for _, _, p in E.generators:
                        assert all(isinstance(c, int)
                                   for c in p.terms.values())


def test_cell_bases_divide_only_by_units():
    # Every element has lead coefficient 1 and integer coefficients, on both
    # sides of every ideal, so reducing by a cell basis divides only by
    # units and the edge equations mod p are the equations built over F_p.
    count = 0
    for d in range(1, 11):
        gradings = coprime_gradings(d)
        for M in enumerate_ideals(d):
            for g in gradings:
                for ideal, grading in ((M, g), (M.swap(), g.swap())):
                    for basis in (cell_generators_f(ideal, grading),
                                  cell_generators_g(ideal, grading)):
                        one = basis.ring.one()
                        for lead, elem in zip(ideal.gens, basis.elements):
                            assert elem[lead] == one, (ideal, grading)
                            assert all(type(c) is int
                                       for poly in elem.values()
                                       for c in poly.terms.values())
                            count += 1
    assert count == 79176


def test_route_equivalence_small_colengths():
    for d in (3, 4, 5):
        pool = enumerate_ideals(d)
        for i, M in enumerate(pool):
            for N in pool:
                if M == N:
                    continue
                for g in (Grading(1, 1), Grading(1, 2), Grading(3, 1)):
                    if hilbert_function(M, g) != hilbert_function(N, g):
                        continue
                    pair = top_first(M, N, g)
                    if pair is None:
                        continue
                    A = edge_ideal(pair)
                    B = edge_ideal_hikes(M, N, g)
                    assert len(A.generators) == len(B.generators)
                    for (n1, s1, p), (n2, s2, q) in zip(A.generators,
                                                        B.generators):
                        assert (n1, s1) == (n2, s2)
                        assert p.terms == q.terms


def test_route_equivalence_highlighted_pair():
    A = edge_ideal(top_first(M21, N21, G11))
    B = edge_ideal_hikes(M21, N21, G11)
    for (n1, s1, p), (n2, s2, q) in zip(A.generators, B.generators):
        assert (n1, s1) == (n2, s2) and p.terms == q.terms


# every comparable pair under every grading a graph of its colength
# examines; the first digest was recorded before N's opposite-side family
# moved into edge_ideal, the second before the negative arrows were read off
# the swap, so any change in a variable or term shows
@pytest.mark.parametrize("low, high, pairs, sha256", [
    pytest.param(2, 6, 64, "21abea5f477cead583676fcc1b555d9e"
                           "2c995c0ba3b5a635c35f542604b6e5ea", id="2-6"),
    pytest.param(7, 9, 323, "b781fde7793bf11b5ed006e68f2a5373"
                            "0053241f0f3b120d5d799d2f06b30250", id="7-9"),
])
def test_edge_equations_are_pinned(low, high, pairs, sha256):
    digest = hashlib.sha256()
    count = 0
    for d in range(low, high + 1):
        vertices = enumerate_ideals(d)
        for (i, j), g in pair_grading_jobs(vertices):
            pair = oriented_pair(vertices[i - 1], vertices[j - 1], g)
            if pair is None:
                continue
            E = edge_ideal(pair)
            count += 1
            digest.update(repr((
                str(pair.big), str(pair.small), g.alpha, g.beta,
                [v.label() for v in E.ring.vars],
                [(format_monomial(n), format_monomial(s), str(p))
                 for n, s, p in E.generators])).encode())
    assert count == pairs
    assert digest.hexdigest() == sha256


def test_cell_layer_through_colength_7_is_pinned():
    # every ideal under every grading a graph of its colength examines:
    # both cell bases and the normal forms of x*m and y*m for each minimal
    # generator m; recorded before the cell layer moved onto Poly arithmetic
    def printed(elem):
        return [(format_monomial(m), str(p)) for m, p in sorted(elem.items())]

    digest = hashlib.sha256()
    count = 0
    for d in range(2, 8):
        for M in enumerate_ideals(d):
            for g in coprime_gradings(d):
                f = cell_generators_f(M, g)
                gb = cell_generators_g(M, g)
                count += 1
                digest.update(repr((
                    str(M), g.alpha, g.beta, [v.label() for v in f.ring.vars],
                    [printed(e) for e in f.elements],
                    [printed(e) for e in gb.elements],
                    [printed(reduce_monomial(u, gb)) for a, b in M.gens
                     for u in ((a + 1, b), (a, b + 1))])).encode())
    assert count == 993
    assert digest.hexdigest() == (
        "b999ebb5b084261212a8ca23f8840f0e17afdaa9722ebab4cbebc0d711e0dff3")


def test_specializations_keep_initial_ideal_and_colength():
    rng = random.Random(12)
    seen = 0
    for d in range(2, 9):
        pool = enumerate_ideals(d)
        for M in rng.sample(pool, min(3, len(pool))):
            g = Grading(1, 1) if rng.random() < 0.7 else Grading(2, 1)
            arrows = significant_arrows(M, g).positive
            if not arrows:
                continue
            for _ in range(4):
                values = {arrow: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for arrow in arrows}
                rows = cell_point(M, g, values)
                assert initial_ideal(rows, g, d) == M
                seen += 1
    assert seen >= 30


def test_extremal_ideals_examples():
    H = hilbert_function(parse_ideal("<x^2, y^2>"), G11)
    top, bottom = extremal_ideals(H, G11)
    assert top == parse_ideal("<x^3, x*y, y^2>")
    assert bottom == parse_ideal("<x^2, x*y, y^3>")
    lone = hilbert_function(parse_ideal("<x, y^4>"), Grading(5, 1))
    top, bottom = extremal_ideals(lone, Grading(5, 1))
    assert top == bottom == parse_ideal("<x, y^4>")
    with pytest.raises(ValueError):
        extremal_ideals(((0, 1), (1, 3)), G11)


def test_extremal_ideals_exist_for_all_small_hilbert_functions():
    for d in range(2, 9):
        pool = enumerate_ideals(d)
        for g in (Grading(1, 1), Grading(1, 2), Grading(2, 3)):
            groups = {}
            for M in pool:
                groups.setdefault(hilbert_function(M, g), []).append(M)
            for H, members in groups.items():
                top, bottom = extremal_ideals(H, g)
                for M in members:
                    assert top_first(top, M, g)
                    assert top_first(M, bottom, g)


def test_cell_dimensions_match_at_the_extremes():
    for d in range(2, 9):
        pool = enumerate_ideals(d)
        for g in (Grading(1, 1), Grading(2, 1)):
            groups = {}
            for M in pool:
                groups.setdefault(hilbert_function(M, g), []).append(M)
            for H in groups:
                top, bottom = extremal_ideals(H, g)
                top_plus = significant_arrows(top, g).positive
                bottom_minus = significant_arrows(bottom, g).negative
                assert significant_arrows(bottom, g).positive == ()
                assert len(top_plus) == len(bottom_minus)


def test_tangent_census():
    assert tangent_weight_count(parse_ideal("<x, y>")) == 2
    for d in range(1, 11):
        for M in enumerate_ideals(d):
            assert tangent_weight_count(M) == 2 * d
    assert tangent_weight_count(M21) == 2 * M21.colength
    # the census decomposes per direction exactly as the arm/leg weights do
    for M in enumerate_ideals(6):
        assert len(hook_tangent_weights(M)) == 12
