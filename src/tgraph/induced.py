"""Extract the arrow map induced by an explicit homogeneous ideal.

Input is a list of homogeneous generators with exact coefficients (any field
whose elements support Python arithmetic, Fraction by default).  Per degree
class the generators span a slice of the ideal; row reduction against the
x-smaller order reads off the initial monomials, and a second reduction from
the opposite end finds, for each initial monomial m, the largest possible
opposite-side initial monomial among slice members leading with m.  That
assignment is the map the ideal induces between its two initial ideals.

Like the rest of the package this module orders classes the x-smaller way
only; the y-smaller initial ideal is the x-smaller one of the generators with
x and y exchanged, under the swapped grading, exchanged back.
"""
from __future__ import annotations

from fractions import Fraction

from .arrows import ArrowMap, _completed, _is_arrow_map, active_classes
from .cells import cell_generators_f
from .monomial import generated_ideal
from .poly import add_into


def _as_field(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


def _eliminate(work, factor, row):
    """Subtract factor times row from the row being reduced, in place."""
    for c, v in row.items():
        add_into(work, c, -factor * v)


def rref(rows, columns):
    """Reduced row echelon form over an exact field.

    `rows` are dicts column -> coefficient, `columns` the elimination order
    (most significant first).  Returns {pivot column: normalized row}.
    """
    colpos = {c: i for i, c in enumerate(columns)}
    pivots = {}
    for row in rows:
        work = {c: _as_field(v) for c, v in row.items() if v}
        for c in sorted(work, key=lambda c: colpos[c]):
            if c in pivots and work.get(c):
                _eliminate(work, work[c], pivots[c])
        if not work:
            continue
        lead = min(work, key=lambda c: colpos[c])
        inv = work[lead]
        work = {c: v / inv for c, v in work.items()}
        for c2, prow in pivots.items():
            if lead in prow:
                merged = dict(prow)
                _eliminate(merged, prow[lead], work)
                pivots[c2] = merged
        pivots[lead] = work
    return pivots


def specialize(basis, values):
    """Evaluate a cell basis at a coordinate vector; returns monomial rows."""
    out = []
    for elem in basis.elements:
        row = {}
        for m, poly in elem.items():
            total = None
            for exps, coeff in poly.terms.items():
                term = _as_field(coeff)
                for var, e in zip(poly.ring.vars, exps):
                    if e:
                        term = term * (values[var] ** e)
                total = term if total is None else total + term
            if total:
                row[m] = total
        out.append(row)
    return out


def cell_point(M, g, values):
    """Rows of the ideal at a point of the cell of M (values per arrow)."""
    basis = cell_generators_f(M, g)
    assignment = {var: _as_field(values.get((var.index, var.step), 0))
                  for var in basis.ring.vars}
    return specialize(basis, assignment)


def _weight_of_row(row, g):
    weights = {g.weight(m) for m in row}
    if len(weights) != 1:
        raise ValueError("generators must be homogeneous for the grading")
    return weights.pop()


def _slice_rows(gens, g, w):
    rows = []
    for row in gens:
        if not row:
            continue
        rw = _weight_of_row(row, g)
        if rw > w:
            continue
        for u in g.monomials_of_weight(w - rw):
            rows.append({(m[0] + u[0], m[1] + u[1]): c for m, c in row.items()})
    return rows


def _desc(columns):
    return sorted(columns, key=lambda m: m[1], reverse=True)


def _swapped(rows):
    return [{(b, a): c for (a, b), c in row.items()} for row in rows]


def _initial_slices(gens, g, colength_bound):
    """The initial ideal, and the reduced slice of every weight it scanned."""
    wmax = (g.alpha + g.beta) * colength_bound
    slices = {}
    std_total = 0
    for w in range(wmax + 1):
        columns = g.monomials_of_weight(w)
        slices[w] = rref(_slice_rows(gens, g, w), _desc(columns))
        std_total += len(columns) - len(slices[w])
    try:
        M = generated_ideal({m for piv in slices.values() for m in piv})
    except ValueError as exc:
        raise ValueError(f"initial monomials do not form a staircase: {exc}")
    if M.colength != std_total:
        raise ValueError("rank pattern does not match a finite-colength point")
    for w, piv in slices.items():
        if set(piv) != {m for m in g.monomials_of_weight(w) if M.contains(m)}:
            raise ValueError("pivot pattern is not an ideal slice")
    return M, slices


def initial_ideal(gens, g, colength_bound):
    """Initial monomial ideal of the span of the generators, as a staircase.

    Scans degree classes up to a window determined by the colength bound and
    rejects inputs that do not define a finite-colength point (rank deficits
    or pivot patterns that fail to form a monomial staircase).
    """
    return _initial_slices(gens, g, colength_bound)[0]


def induced_arrow_map(gens, g, colength_bound):
    """The arrow map carried by a homogeneous ideal, plus its two limits.

    Returns (M, N, ArrowMap) where M is the x-smaller initial ideal and N the
    opposite one.  The assignment is read off on every member of M in each
    active class, and re-validated against the map conditions; RuntimeError
    is raised if it fails them, including when it moves a member outside the
    stretch the active region keeps.
    """
    M, slices = _initial_slices(gens, g, colength_bound)
    N = initial_ideal(_swapped(gens), g.swap(), colength_bound).swap()
    classes = active_classes(M, N, g)
    assignment = {}
    for w, _, _ in classes:
        columns = _desc(g.monomials_of_weight(w))
        piv = slices[w]
        colpos = {c: i for i, c in enumerate(columns)}
        # the whole class of M, not just the stretch the region keeps: the
        # reduction below m needs every slice member under it
        members = [m for m in columns if M.contains(m)]
        for m in members:
            below = [piv[m2] for m2 in members if m2[1] < m[1]]
            opp_cols = list(reversed(columns))
            opp_piv = rref(below, opp_cols)
            vec = dict(piv[m])
            while True:
                tail = max(vec, key=lambda c: colpos[c])
                if tail not in opp_piv:
                    break
                _eliminate(vec, vec[tail], opp_piv[tail])
            assignment[m] = max(vec, key=lambda c: colpos[c])
    if not _is_arrow_map(M, N, g, classes, assignment):
        raise RuntimeError(
            f"the map induced between {M} and {N} fails the arrow-map checks")
    witness = ArrowMap(M, N, g, _completed(classes, assignment))
    return M, N, witness
