import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from tgraph.arrows import oriented_pair
from tgraph.assembly import PipelineDepth, build_tgraph
from tgraph.cells import EdgeIdeal, edge_ideal
from tgraph import edges, groebner
from tgraph.edges import EdgeStatus, _solver_generators, decide_edge
from tgraph.groebner import (BudgetExceeded, GroebnerBasis, _pack, _primitive,
                             _reducer, _spoly, _unpack, buchberger, presolve,
                             quotient_dimension)
from tgraph.monomial import Grading, format_ideal, parse_ideal
from tgraph.poly import ArrowVar, Packing, Ring

from oracles import (brute_normal_form, kernel_normal_form, lead_term,
                     membership_certificate, monic, total_degree)

V = [ArrowVar(0, i, 1) for i in range(1, 5)]


def _solver_inputs(pair):
    """What decide_edge hands buchberger for an oriented pair."""
    ideal = edge_ideal(pair)
    return _solver_generators(ideal.ring, ideal.nonzero_generators())


def ring(n=4):
    return Ring(tuple(V[:n]))


def small_quartic_system(r):
    a, b, c, d = (r.var(v) for v in r.vars)
    return [a * a * a * a - a * a * b * 3 + b * b,
            c - a * d,
            r.one() - b * d]


def test_trivial_ideal():
    r = ring(2)
    b, d = r.var(V[0]), r.var(V[1])
    assert buchberger([r.one() - b * d, b]).is_trivial()


def test_quartic_system_is_consistent():
    r = ring()
    gb = buchberger(small_quartic_system(r))
    assert not gb.is_trivial()
    assert quotient_dimension(gb, nvars=r.nvars) == 1


def test_zero_ideal_dimension():
    assert quotient_dimension(buchberger([]), nvars=3) == 3
    assert quotient_dimension(GroebnerBasis([], []), nvars=2) == 2
    with pytest.raises(ValueError):
        quotient_dimension(buchberger([ring(2).one()]), nvars=2)


def test_determinism():
    r = ring()
    sys1 = small_quartic_system(r)
    out1 = buchberger(sys1)
    out2 = buchberger(list(reversed(sys1)))
    assert [str(p) for p in out1.generators] == [str(p) for p in out2.generators]


def test_budget_exhaustion_reports_unknown():
    r = ring()
    with pytest.raises(BudgetExceeded):
        buchberger(small_quartic_system(r), budget=1)


def packing(r):
    return Packing(r.nvars, groebner.FIELD_BITS)


def primitive(p):
    pk = packing(p.ring)
    return _unpack(_primitive(_pack(p, pk, 0), 0), p.ring, pk)


def random_poly(r, rng, terms, degree):
    return r.poly({tuple(rng.randint(0, degree) for _ in r.vars):
                   rng.choice((-2, -1, 1, 2, 3)) for _ in range(terms)})


def test_normal_form_handles_a_term_that_cancels_and_returns():
    r = ring(3)
    x, y, z = (r.var(v) for v in r.vars)
    f = x * x * x + y * y * y + z * z * z
    basis = [x * x * x + z * z * z, y * y * y - z * z * z]
    stats = {}
    # x^3 cancels z^3 out of the work dict; y^3 brings it back.
    assert kernel_normal_form(f, basis, stats) == z * z * z
    assert stats == {"reduction_steps": 2}
    assert brute_normal_form(f, basis) == (z * z * z, 2, 1)


@pytest.mark.parametrize("char", [0, 5])
def test_normal_form_matches_the_division_loop(char):
    rng = random.Random(20261018 + char)
    r = ring(3)
    recreated = 0
    for trial in range(120):
        gens = [random_poly(r, rng, 3, 2) for _ in range(rng.randint(1, 4))]
        if trial % 4 == 0:
            basis = buchberger(gens, char=char).generators
        else:
            basis = [monic(g) for g in gens if g]
        f = random_poly(r, rng, 8, 4)
        stats = {}
        remainder = kernel_normal_form(f, basis, stats, char=char)
        want, steps, again = brute_normal_form(f, basis, char=char)
        assert remainder == want
        assert stats.get("reduction_steps", 0) == steps
        recreated += again
    assert recreated > 0


# The digests, over the printed generators of every reduced basis of the
# presolved equations in the solver's reversed variable order, were
# recorded when decide_edge moved to the presolved equations.
BASES_SHA256 = {
    7: "bc13432d3ac749630283659a116d482db3ae4300d32245659aa3b23e3d88b13d",
    8: "4fde6ac2497a93afc2b9cef81f242bfc4bb4ade03c52e2319da98cb78e426bc1",
}


# Recorded when decide_edge moved to the presolved equations (the
# unpresolved ones gave 120/123/113 and 402/305/829 in the reversed order,
# 143/123/140 and 605/335/1773 in the printed one): any change in the
# presolve, or in the order of S-pairs or of reduction steps, moves these.
@pytest.mark.parametrize("d, s_pairs, basis_size, reduction_steps",
                         [(7, 66, 86, 61), (8, 255, 207, 590)])
def test_solver_work_on_the_full_graph_is_pinned(d, s_pairs, basis_size,
                                                 reduction_steps):
    graph = build_tgraph(d, PipelineDepth.FULL, with_dimension=True)
    assert sum(rec.s_pairs for rec in graph.records) == s_pairs
    stats = []
    bases = hashlib.sha256()
    for rec in graph.records:
        oriented = oriented_pair(*rec.pair, rec.grading)
        if oriented is not None:
            _, gens = _solver_inputs(oriented)
            gb = buchberger(gens)
            stats.append(gb.stats)
            for g in gb.generators:
                bases.update(f"{g}\n".encode())
    assert sum(st["s_pairs"] for st in stats) == s_pairs
    assert sum(st["basis_size"] for st in stats) == basis_size
    assert sum(st["reduction_steps"] for st in stats) == reduction_steps
    assert bases.hexdigest() == BASES_SHA256[d]


def assert_rational_multiple(got, want):
    """got is a nonzero rational multiple of want (both zero, or neither)."""
    if not want:
        assert not got
        return
    ratio = Fraction(lead_term(got)[1]) / Fraction(lead_term(want)[1])
    assert ratio and want.scale(ratio) == got


def test_pseudo_division_matches_the_division_loop_on_monic_reducers():
    rng = random.Random(20261019)
    r = ring(3)
    steps_seen = 0
    for _ in range(150):
        basis = []
        for _ in range(rng.randint(1, 4)):
            g = random_poly(r, rng, 3, 2)
            if g:
                lead = lead_term(g)[0]
                g = primitive(g + r.poly({lead: rng.choice((1, 2, 5))}))
            if g and lead_term(g)[1] != 1:
                basis.append(g)
        f = random_poly(r, rng, 8, 4)
        stats = {}
        remainder = kernel_normal_form(f, basis, stats)
        want, steps, _ = brute_normal_form(f, [monic(g) for g in basis])
        assert_rational_multiple(remainder, want)
        assert stats.get("reduction_steps", 0) == steps
        steps_seen += steps
    assert steps_seen > 100


def test_pseudo_division_rescales_the_remainder_already_kept():
    r = ring(3)
    x, y, z = (r.var(v) for v in r.vars)
    reducer = y.scale(2) - z
    # x^2 is kept in the remainder before y meets the reducer with lead 2.
    assert kernel_normal_form(x * x + y, [reducer]) == (x * x).scale(2) + z
    assert kernel_normal_form(x * x + y.scale(2), [reducer]) == x * x + z
    # The S-polynomial's cofactors are divided by the gcd of the leads.
    f = (x * x).scale(4) + y
    g = (x * y).scale(6) + z
    pk = packing(r)
    lcm = pk.pack((2, 1, 0))
    s = _spoly(*(_reducer(_pack(p, pk, 0), pk.guards) for p in (f, g)), lcm, 0)
    assert _unpack(s, r, pk) == (y * y).scale(3) - (x * z).scale(2)


def test_rational_and_non_unit_inputs_keep_their_bases():
    r = ring(3)
    x, y, z = (r.var(v) for v in r.vars)
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    gb = buchberger([x.scale(half) - y, (y * y).scale(two_thirds) - z * x])
    assert [str(g) for g in gb.generators] == [
        "c1^1 - 2*c2^1", "c2^1**2 - 3*c2^1*c3^1"]
    gens = [(x * x).scale(2) - y.scale(3), (x * y).scale(4) - z.scale(6),
            y * y - z]
    assert [str(g) for g in buchberger(gens).generators] == [
        "c3^1**2 - 4/9*c3^1", "c2^1*c3^1 - 2/3*c3^1", "c1^1*c3^1 - c3^1",
        "c2^1**2 - c3^1", "c1^1*c2^1 - 3/2*c3^1", "c1^1**2 - 3/2*c2^1"]
    assert [str(g) for g in buchberger(gens, char=5).generators] == [
        "c3^1**2 + 4*c3^1", "c2^1*c3^1 + c3^1", "c1^1*c3^1 + 4*c3^1",
        "c2^1**2 + 4*c3^1", "c1^1*c2^1 + c3^1", "c1^1**2 + c2^1"]


def test_solver_reduces_only_integers_in_characteristic_zero(monkeypatch):
    seen = []
    kernel = groebner._reduce

    def checked(work, reducers, char, guards):
        if not char:
            coeffs = [*work.values()]
            for _, _, a, tail in reducers:
                coeffs += [a, *(c for _, c in tail)]
            assert all(type(c) is int for c in coeffs), coeffs
        seen.append((char, len(reducers)))
        return kernel(work, reducers, char, guards)

    monkeypatch.setattr(groebner, "_reduce", checked)
    build_tgraph(7, PipelineDepth.FULL, with_dimension=True)
    assert len(seen) > 100 and any(n for _, n in seen)
    assert not any(char for char, _ in seen)


def test_prime_characteristic_runs_only_monic_reducers(monkeypatch):
    # Mod p every basis element is kept monic, so the kernel's
    # pseudo-division branch, which rescales, runs only in characteristic 0.
    records = [rec for d in range(2, 8)
               for rec in build_tgraph(d, PipelineDepth.FULL).records]
    reducers = Counter()
    kernel = groebner._reduce

    def checked(work, basis, char, guards):
        assert all(a == 1 for _, _, a, _ in basis), char
        reducers[char] += len(basis)
        return kernel(work, basis, char, guards)

    monkeypatch.setattr(groebner, "_reduce", checked)
    primes = (2, 3, 2 ** 31 - 1)
    for p in primes:
        for rec in records:
            decide_edge(*rec.pair, rec.grading, char=p)
    assert set(reducers) == set(primes) and all(reducers.values())


def test_prime_characteristic_verdicts_match_the_printed_order_oracle():
    # a direct buchberger run mod p on the unpresolved equations, in the
    # printed variable order, is the oracle for every char-p decision
    compared = 0
    for d in range(2, 9):
        for rec in build_tgraph(d, PipelineDepth.FULL).records:
            M, N = rec.pair
            oriented = oriented_pair(M, N, rec.grading)
            for p in (2, 3):
                mod_p = decide_edge(M, N, rec.grading, with_dimension=True,
                                    char=p)
                compared += 1
                if oriented is None:
                    assert mod_p.status is EdgeStatus.NO_EDGE
                    continue
                ideal = edge_ideal(oriented)
                gb = buchberger(ideal.nonzero_generators(), char=p)
                if gb.is_trivial():
                    assert mod_p.status is EdgeStatus.NO_EDGE
                    assert mod_p.dimension is None
                else:
                    assert mod_p.status is EdgeStatus.EDGE
                    assert mod_p.dimension == quotient_dimension(
                        gb, ideal.ring.nvars)
    assert compared == 452


# Recorded when decide_edge moved to the presolved equations; only the
# s_pairs in it moved (the printed-order oracle above checks every status
# and dimension), as when it moved to the reversed variable order.
CHAR_P_SHA256 = (
    "29557ff9cf4b2b290f5cc4ab78840d72596dcb38f179c38121f4a17a02edef63")


def test_prime_characteristic_records_are_pinned():
    records = [rec for d in range(2, 9)
               for rec in build_tgraph(d, PipelineDepth.FULL).records]
    digest = hashlib.sha256()
    for p in (2, 3):
        for rec in records:
            M, N = rec.pair
            g = rec.grading
            mod_p = decide_edge(M, N, g, with_dimension=True, char=p)
            digest.update(f"{p} {format_ideal(M)} {format_ideal(N)} "
                          f"{g.alpha} {g.beta} {mod_p.status.value} "
                          f"{mod_p.dimension} {mod_p.s_pairs}\n".encode())
    assert len(records) == 226
    assert digest.hexdigest() == CHAR_P_SHA256


def test_degree_past_the_field_cap_gives_unknown(monkeypatch):
    # Fields of 2 bits hold degrees up to 3.  The presolved edge equations
    # of this pair have degree 2, and after the first S-pair the lcm of two
    # leads has degree 5.
    M = parse_ideal("<x^3, x^2*y^2, y^3>")
    N = parse_ideal("<x^3, x^2*y, x*y^3, y^4>")
    g = Grading(1, 1)
    _, gens = _solver_inputs(oriented_pair(M, N, g))
    assert decide_edge(M, N, g).status is EdgeStatus.EDGE
    monkeypatch.setattr(groebner, "FIELD_BITS", 2)
    assert max(total_degree(p) for p in gens) <= 3
    with pytest.raises(BudgetExceeded, match="degree 5 exceeds"):
        buchberger(gens)
    assert decide_edge(M, N, g).status is EdgeStatus.UNKNOWN


def test_unknown_records_the_s_pairs_it_reduced(monkeypatch):
    # Over 1-bit fields the degree-2 inputs overflow as they are packed,
    # before any S-pair; over 2-bit fields the guard fires after the first.
    # A run stopped by the S-pair budget has reduced exactly the budget.
    M = parse_ideal("<x^3, x^2*y^2, y^3>")
    N = parse_ideal("<x^3, x^2*y, x*y^3, y^4>")
    g = Grading(1, 1)
    assert decide_edge(M, N, g).s_pairs == 2
    for budget in (0, 1):
        record = decide_edge(M, N, g, budget=budget)
        assert record.status is EdgeStatus.UNKNOWN
        assert record.s_pairs == budget
    for bits, s_pairs in ((1, 0), (2, 1)):
        monkeypatch.setattr(groebner, "FIELD_BITS", bits)
        record = decide_edge(M, N, g)
        assert record.status is EdgeStatus.UNKNOWN
        assert record.s_pairs == s_pairs


def test_verdicts_hold_over_a_large_prime():
    # A verdict over Q is the verdict mod p for all but finitely many p; a
    # disagreement is one of those primes or a bug, and names its record.
    p = 2 ** 31 - 1
    disagree = []
    decided = 0
    for d in range(2, 9):
        for rec in build_tgraph(d, PipelineDepth.FULL).records:
            decided += 1
            mod_p = decide_edge(*rec.pair, rec.grading, char=p)
            if mod_p.status is not rec.status:
                disagree.append(f"{rec.pair} {rec.grading}: {rec.status} "
                                f"over Q, {mod_p.status} mod {p}")
    assert disagree == []
    assert decided == 226


def assert_leads_are_recorded(gb):
    """The solver's recorded leads are the grevlex-largest terms of its
    generators, found afresh, and each of those terms has coefficient 1."""
    found = [lead_term(g) for g in gb.generators]
    assert gb.leads == [e for e, _ in found]
    assert all(c == 1 for _, c in found)


@pytest.mark.parametrize("char", [0, 2 ** 31 - 1])
def test_recorded_leads_match_the_oracle_on_the_exact_graphs(char):
    runs = 0
    for d in range(2, 9):
        for rec in build_tgraph(d, PipelineDepth.FULL).records:
            oriented = oriented_pair(*rec.pair, rec.grading)
            if oriented is not None:
                _, gens = _solver_inputs(oriented)
                assert_leads_are_recorded(buchberger(gens, char=char))
                runs += 1
    assert runs == 217


def test_recorded_leads_match_the_oracle_on_two_points(monkeypatch):
    from tgraph import general

    bases = []

    def recorded(*args, **kwargs):
        bases.append(buchberger(*args, **kwargs))
        return bases[-1]

    monkeypatch.setattr(general, "buchberger", recorded)
    general.two_points_graph(verify_window=True)
    assert len(bases) == 18
    for gb in bases:
        assert_leads_are_recorded(gb)


@pytest.mark.parametrize("char", [0, 7])
def test_recorded_leads_on_random_inputs(char):
    rng = random.Random(11 + char)
    r = ring(3)
    for _ in range(60):
        gens = [random_poly(r, rng, 5, 3) for _ in range(2)]
        gb = buchberger(gens, char=char)
        assert_leads_are_recorded(gb)
        assert len(gb.leads) == gb.stats["basis_size"]


def test_reduced_basis_properties():
    r = ring(3)
    a, b, c = (r.var(v) for v in r.vars)
    gb = buchberger([a * a - b, a * b - c, b * b - a * c])
    for i, g in enumerate(gb.generators):
        assert lead_term(g)[1] == 1
        others = gb.generators[:i] + gb.generators[i + 1:]
        assert kernel_normal_form(g, others) == g
    # every S-pair of the completed basis drops to zero
    for i in range(len(gb.generators)):
        for j in range(i + 1, len(gb.generators)):
            gi, gj = gb.generators[i], gb.generators[j]
            ei, ej = lead_term(gi)[0], lead_term(gj)[0]
            lcm = tuple(max(x, y) for x, y in zip(ei, ej))
            s = (gi * r.poly({tuple(x - y for x, y in zip(lcm, ei)): 1})
                 - gj * r.poly({tuple(x - y for x, y in zip(lcm, ej)): 1}))
            assert not kernel_normal_form(s, gb.generators)


def test_membership_matches_certificate_oracle():
    rng = random.Random(11)
    r = ring(3)
    vars3 = [r.var(v) for v in r.vars]
    for _ in range(12):
        gens = []
        for _ in range(2):
            p = r.zero()
            for _ in range(3):
                term = r.constant(rng.randint(-2, 2))
                for _ in range(rng.randint(0, 2)):
                    term = term * vars3[rng.randrange(3)]
                p = p + term
            if p:
                gens.append(p)
        if not gens:
            continue
        gb = buchberger(gens)
        if gb.is_trivial():
            continue
        # known members must carry a verified certificate
        member = gens[0] * vars3[0] + gens[-1].scale(3)
        assert not kernel_normal_form(member, gb.generators)
        cap = max(total_degree(p) for p in gens) + 3
        assert membership_certificate(member, gens, cap) is not None
        # a nonmember by normal form must have no certificate at the cap
        candidate = vars3[0] + r.one()
        if kernel_normal_form(candidate, gb.generators):
            assert membership_certificate(candidate, gens, cap) is None


def test_specialization_soundness():
    rng = random.Random(3)
    r = ring(3)
    vars3 = [r.var(v) for v in r.vars]
    gens = [vars3[0] * vars3[1] - r.one(), vars3[2] - vars3[0].scale(2)]
    gb = buchberger(gens)
    for _ in range(20):
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(3)]

        def value(p):
            total = Fraction(0)
            for exps, c in p.terms.items():
                term = Fraction(c)
                for x, e in zip(point, exps):
                    term *= x ** e
                total += term
            return total

        if all(value(p) == 0 for p in gens):
            assert all(value(p) == 0 for p in gb.generators)


def test_prime_field_mode():
    r = ring(2)
    a, b = r.var(V[0]), r.var(V[1])
    gb = buchberger([a * a - b.scale(3), a * b - r.one()], char=7)
    assert not gb.is_trivial()
    for g in gb.generators:
        assert all(0 < c < 7 for c in g.terms.values())


def test_prime_field_points_flag_no_discrepancies():
    # randomized corpus: whenever a common zero exists over two small prime
    # fields, the exact engine must not declare the system unsolvable
    rng = random.Random(29)
    r = ring(2)
    a, b = r.var(V[0]), r.var(V[1])
    flagged = []
    for _ in range(25):
        gens = []
        for _ in range(2):
            p = r.zero()
            for _ in range(3):
                term = r.constant(rng.randint(-2, 2))
                for _ in range(rng.randint(0, 2)):
                    term = term * (a if rng.random() < 0.5 else b)
                p = p + term
            gens.append(p)
        gens = [p for p in gens if p]
        if not gens:
            continue
        verdict = buchberger(gens).is_trivial()
        hits = 0
        for q in (5, 7):
            for x in range(q):
                for y in range(q):
                    values = (x, y)
                    ok = True
                    for gp in gens:
                        total = 0
                        for exps, c in gp.terms.items():
                            total += c * values[0] ** exps[0] \
                                       * values[1] ** exps[1]
                        if total % q:
                            ok = False
                            break
                    if ok:
                        hits += 1
                        break
                if hits:
                    break
        if hits == 2 and verdict is True:
            flagged.append([str(g) for g in gens])
    assert flagged == []


def test_one_sided_prime_field_point_check():
    # a point found modulo p on an ideal that stays consistent in
    # characteristic zero; a discrepancy would flag a bug, not a theorem
    r = ring(2)
    a, b = r.var(V[0]), r.var(V[1])
    gens = [a * a - b, b * b - a]
    assert not buchberger(gens).is_trivial()
    found = []
    for p in (3, 5, 7):
        for x in range(p):
            for y in range(p):
                if (x * x - y) % p == 0 and (y * y - x) % p == 0:
                    found.append((p, x, y))
    assert found, "expected points over small prime fields"


def test_presolve_cascades():
    # b = 0 turns a + a*b + c^2 into a + c^2, whose pivot a = -c^2 the next
    # round substitutes; c*d - a*d has no pivot of its own
    r = ring(4)
    a, b, c, d = (r.var(v) for v in r.vars)
    left, gens = presolve([a + a * b + c * c, b, c * d - a * d], r)
    assert left.vars == (V[2], V[3])
    x, y = (left.var(v) for v in left.vars)
    assert gens == [x * y + x * x * y]


def test_presolve_substitutes_into_powers():
    r = ring(4)
    a, b, c, d = (r.var(v) for v in r.vars)
    left, gens = presolve([a - b * c, a * a - b * d], r)
    assert left.vars == (V[1], V[2], V[3])
    x, y, z = (left.var(v) for v in left.vars)
    assert gens == [x * x * y * y - x * z]


def test_presolve_keeps_equations_without_a_unit_pivot():
    # x + x*y has x in another term; 2*x + 1 has x with a coefficient that
    # is not a unit mod 2, where it reads 1 = 0
    r = ring(2)
    x, y = (r.var(v) for v in r.vars)
    for gens in ([x + x * y], [x.scale(2) + r.one()], [x * x - y * y]):
        assert presolve(gens, r) == (r, gens)
    assert buchberger([x.scale(2) + r.one()], char=2).is_trivial()
    assert not buchberger([x.scale(2) + r.one()]).is_trivial()


def test_presolve_reorders_onto_the_given_ring():
    r = ring(3)
    x, y, z = (r.var(v) for v in r.vars)
    back = Ring(reversed(r.vars))
    left, gens = presolve([x * z * z - y.scale(3), x * y + z * z], back)
    assert left is back
    bx, by, bz = (back.var(v) for v in r.vars)
    assert gens == [bx * bz * bz - by.scale(3), bx * by + bz * bz]
    assert [str(g) for g in gens] == ["c3^1**2*c1^1 - 3*c2^1",
                                      "c3^1**2 + c2^1*c1^1"]
    for other in (Ring(r.vars[:2]), Ring((*r.vars, ArrowVar(2, 2, 1)))):
        with pytest.raises(ValueError):
            presolve([x * z * z - y.scale(3)], other)


def test_presolve_to_nothing_is_an_edge_of_the_remaining_dimension(
        monkeypatch):
    # a = b*c and then b = -c*d leave no equation on c, d: the whole plane
    r = ring(4)
    a, b, c, d = (r.var(v) for v in r.vars)
    left, gens = presolve([a - b * c, b + c * d], r)
    assert gens == [] and left.nvars == 2
    M, N = parse_ideal("<x^3, x*y, y^2>"), parse_ideal("<x^2, x*y, y^3>")
    real = edges.edge_ideal

    def planted(pair):
        ideal = real(pair)
        return EdgeIdeal(ideal.M, ideal.N, ideal.grading, r,
                         ((None, None, a - b * c), (None, None, b + c * d)))

    monkeypatch.setattr(edges, "edge_ideal", planted)
    record = decide_edge(M, N, Grading(1, 1), with_dimension=True)
    assert record.status is EdgeStatus.EDGE and record.dimension == 2
    assert record.s_pairs == 0 and record.generator_count == 2


def test_presolve_to_a_constant_is_no_edge():
    r = ring(2)
    x, y = (r.var(v) for v in r.vars)
    left, gens = presolve([x - r.one(), x * y - y - r.one()], r)
    assert left.vars == (V[1],) and gens == [left.constant(-1)]
    assert buchberger(gens).is_trivial()
    # the edge equations ct1, -c1 and 1 - c1*ct1 of this pair
    M, N = parse_ideal("<x^5, x*y, y^3>"), parse_ideal("<x^3, x*y, y^5>")
    g = Grading(1, 1)
    _, gens = _solver_inputs(oriented_pair(M, N, g))
    assert [str(p) for p in gens] == ["1"]
    assert decide_edge(M, N, g).status is EdgeStatus.NO_EDGE


def test_presolved_edge_equations_have_int_coefficients():
    seen = 0
    for d in range(2, 8):
        for rec in build_tgraph(d, PipelineDepth.FULL).records:
            oriented = oriented_pair(*rec.pair, rec.grading)
            if oriented is not None:
                _, gens = _solver_inputs(oriented)
                coeffs = [c for g in gens for c in g.terms.values()]
                assert all(type(c) is int for c in coeffs)
                seen += len(coeffs)
    assert seen > 300


TERMS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3),
                        st.sampled_from((-2, -1, 1, 2, 3)), max_size=3)


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(st.lists(TERMS, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1)), TERMS),
                min_size=1, max_size=3),
       st.sampled_from((0, 7)))
def test_presolve_keeps_triviality_and_dimension(free, planted, char):
    # each planted equation is c*x plus terms free of x
    r = ring(3)
    gens = [r.poly(t) for t in free]
    for i, c, rest in planted:
        pivot = tuple(int(k == i) for k in range(3))
        gens.append(r.poly({**{e: a for e, a in rest.items() if not e[i]},
                            pivot: c}))
    left, solved = presolve(gens, Ring(reversed(r.vars)))
    assert left.nvars < 3
    assert all(type(c) is int for g in solved for c in g.terms.values())
    try:
        want = buchberger(gens, budget=500, char=char)
        got = buchberger(solved, budget=500, char=char)
    except BudgetExceeded:
        return
    assert got.is_trivial() == want.is_trivial()
    if not want.is_trivial():
        assert (quotient_dimension(got, left.nvars)
                == quotient_dimension(want, r.nvars))
