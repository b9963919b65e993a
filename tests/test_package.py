import ast
import inspect
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import tgraph
from tgraph.general import two_points_graph
from tgraph.groebner import BudgetExceeded
from tgraph.poly import Poly, Ring

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tgraph.__file__)))


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's tgraph."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_public_surface_in_a_fresh_interpreter():
    done = run_python(
        "-c",
        "import sys, tgraph\n"
        "assert 'tgraph.strolls' not in sys.modules, 'strolls imported'\n"
        "pools = [m for m in ('concurrent.futures', 'multiprocessing')\n"
        "         if m in sys.modules]\n"
        "assert not pools, pools\n"
        "missing = [n for n in tgraph.__all__ if not hasattr(tgraph, n)]\n"
        "assert not missing, missing\n"
        "print(len(tgraph.__all__))\n")
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == len(tgraph.__all__)


def _foreign_edge_record():
    g = tgraph.Grading(1, 1)
    pair = (tgraph.parse_ideal("<x^2, y>"), tgraph.parse_ideal("<x, y^2>"))
    data = tgraph.EdgeRecord(pair, g, tgraph.EdgeStatus.EDGE).to_json()
    return tgraph.EdgeRecord.from_json(
        dict(data, schema="tgraph.edge-ideal/1"))


@pytest.mark.parametrize("build, message", [
    (lambda: Ring([tgraph.ArrowVar(0, 1, 1)] * 2), "duplicate variables"),
    (lambda: tgraph.MonomialIdeal2(()), "empty generator list"),
    (lambda: tgraph.MonomialIdeal2(((0, 1), (1, 0))),
     "not a sorted minimal staircase"),
    (lambda: tgraph.MonomialIdeal2(((1, -1), (0, 0))), "negative exponent"),
    (lambda: tgraph.parse_ideal("<x^2, y>").j_index((1, 0)),
     "x is not in the ideal"),
    (lambda: tgraph.enumerate_ideals(0), "colength must be at least 1"),
    (lambda: tgraph.count_table(3, 2), "need 1 <= d_min <= d_max"),
    (_foreign_edge_record, "not an edge record"),
    (lambda: tgraph.parse_monomial("x^2y"), "not a monomial: 'x\\^2y'"),
    (lambda: tgraph.parse_ideal("<>"), "empty ideal text"),
], ids=["repeated-variable", "no-generators", "unsorted-generators",
        "negative-exponent", "monomial-outside-ideal", "colength-zero",
        "empty-table-range", "foreign-schema", "factors-without-star",
        "no-ideal-generators"])
def test_out_of_range_plane_inputs_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_exhausted_budget_raises_in_the_plane_engine():
    with pytest.raises(BudgetExceeded):
        two_points_graph(budget=1, verify_window=True)
    # the same under -O, which strips asserts
    done = run_python(
        "-O", "-c",
        "from tgraph.general import two_points_graph\n"
        "from tgraph.groebner import BudgetExceeded\n"
        "try:\n"
        "    out = two_points_graph(budget=1, verify_window=True)\n"
        "except BudgetExceeded:\n"
        "    print('raised')\n"
        "else:\n"
        "    print(len(out[1]), 'edges')\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"


def test_witness_checks_survive_optimization():
    # a search that yields a non-map, and an induced map that fails the
    # checks, must raise even under -O, which strips asserts
    done = run_python(
        "-O", "-c",
        "from fractions import Fraction\n"
        "from tgraph import arrows, induced\n"
        "from tgraph.monomial import Grading, parse_ideal\n"
        "g = Grading(1, 1)\n"
        "pair = arrows.oriented_pair(parse_ideal('<x^5, y^2>'),\n"
        "                            parse_ideal('<x^2, y^5>'), g)\n"
        "arrows._search = lambda pair, limit: iter([{}])\n"
        "induced._is_arrow_map = lambda *args: False\n"
        "pencil = [{(2, 0): Fraction(1), (1, 1): Fraction(2),\n"
        "           (0, 2): Fraction(2)}, {(0, 4): Fraction(1)}]\n"
        "for call in (lambda: arrows.arrow_map_exists(pair),\n"
        "             lambda: induced.induced_arrow_map(pencil, g, 8)):\n"
        "    try:\n"
        "        call()\n"
        "    except RuntimeError:\n"
        "        print('raised')\n"
        "    else:\n"
        "        print('returned')\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised", "raised"]


def test_result_checks_survive_optimization():
    # a normal form with a stray term must not drop out of the edge
    # equations unnoticed, even under -O
    done = run_python(
        "-O", "-c",
        "from tgraph import cells\n"
        "from tgraph.arrows import oriented_pair\n"
        "from tgraph.monomial import Grading, parse_ideal\n"
        "g = Grading(1, 1)\n"
        "pair = oriented_pair(parse_ideal('<x^2, y>'),\n"
        "                     parse_ideal('<x, y^2>'), g)\n"
        "real = cells._tail_reduce\n"
        "def stray(elem, lead, basis):\n"
        "    out = real(elem, lead, basis)\n"
        "    out[(0, 0)] = basis.ring.one()\n"
        "    return out\n"
        "cells._tail_reduce = stray\n"
        "try:\n"
        "    cells.edge_ideal(pair)\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
        "else:\n"
        "    print('returned')\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised stray term"), done.stdout


def test_every_parameter_is_read():
    # the CLI handlers share one signature, whatever each of them reads
    from tgraph.cli import _COMMANDS

    handlers = {f.__name__ for f in _COMMANDS.values()}
    unread = []
    for path in sorted(pathlib.Path(tgraph.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if path.name == "cli.py" and node.name in handlers:
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({p})"
                       for p in params if p not in read]
    assert unread == []


def test_no_memo_decorators():
    # a key memo keeps every key alive for the life of the process; the
    # package recomputes instead
    found = []
    for path in sorted(pathlib.Path(tgraph.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def test_nothing_is_public_just_because_a_test_calls_it():
    # a public module-level function or class, or a public method of a
    # public class, is exported, referenced by the package or the benchmark,
    # or referenced by the acceptance tests
    package = pathlib.Path(tgraph.__file__).parent
    perfbench = package.parent.parent / "perfbench"
    assert perfbench.is_dir()
    trees = {path: ast.parse(path.read_text())
             for path in (*sorted(package.rglob("*.py")),
                          *sorted(perfbench.rglob("*.py")))}

    def references(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.ImportFrom):
                yield from (alias.name for alias in n.names)

    acceptance = pathlib.Path(__file__).with_name("test_acceptance.py")
    allowed = set(tgraph.__all__)
    allowed |= set(references(ast.parse(acceptance.read_text())))
    total = Counter(name for tree in trees.values()
                    for name in references(tree))

    def public(body, prefix):
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{prefix}{node.name}", node
                if isinstance(node, ast.ClassDef) and not prefix:
                    yield from public(node.body, f"{node.name}.")

    unused = [f"{path.relative_to(package)}:{name}"
              for path, tree in trees.items() if package in path.parents
              for name, node in public(tree.body, "")
              if node.name not in allowed
              and total[node.name] == Counter(references(node))[node.name]]
    assert unused == []


def test_coefficient_arithmetic_stays_in_poly_and_the_solver():
    # other modules compute through Poly operations and poly.add_into
    # rather than calling a coeff helper or building Poly terms by hand
    found = []
    for path in sorted(pathlib.Path(tgraph.__file__).parent.rglob("*.py")):
        if path.name in ("poly.py", "groebner.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if ((isinstance(f, ast.Attribute) and f.attr == "coeff")
                    or (isinstance(f, ast.Name) and f.id == "Poly")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_solver_holds_a_characteristic():
    # Polynomials are exact.  A characteristic is an argument of
    # buchberger; decide_edge and the command line may only pass one on, as
    # a call argument, and nothing else may name one.
    assert list(inspect.signature(Ring).parameters) == ["variables"]

    def named(tree):
        for n in ast.walk(tree):
            if ((isinstance(n, ast.Name) and n.id == "char")
                    or (isinstance(n, ast.Attribute) and n.attr == "char")
                    or (isinstance(n, (ast.arg, ast.keyword))
                        and n.arg == "char")):
                yield n

    found = []
    for path in sorted(pathlib.Path(tgraph.__file__).parent.rglob("*.py")):
        if path.name == "groebner.py":
            continue
        tree = ast.parse(path.read_text())
        scopes = [node for node in tree.body
                  if path.name == "cli.py"
                  or (path.name == "edges.py"
                      and getattr(node, "name", None) == "decide_edge")]
        passed = {id(arg) for scope in scopes for call in ast.walk(scope)
                  if isinstance(call, ast.Call)
                  for arg in (*call.args, *(k.value for k in call.keywords))}
        allowed = {id(n) for scope in scopes for n in named(scope)}
        found += [f"{path.name}:{n.lineno}" for n in named(tree)
                  if id(n) not in allowed
                  or (isinstance(getattr(n, "ctx", None), ast.Load)
                      and id(n) not in passed)]
    assert found == []
    # the presolve in front of buchberger works over the integers, so it
    # holds for every characteristic and neither takes nor reads one
    solver = pathlib.Path(tgraph.__file__).parent / "groebner.py"
    presolve = [node for node in ast.parse(solver.read_text()).body
                if getattr(node, "name", None)
                in ("presolve", "_pivot", "_substitute")]
    assert len(presolve) == 3
    assert [n.lineno for scope in presolve for n in named(scope)] == []


def test_solver_orders_monomials_only_in_packed_form():
    # the solver compares packed ints; a Ring.key call there would bring a
    # second, tuple-keyed monomial order back beside the packed one
    package = pathlib.Path(tgraph.__file__).parent
    path = package / "groebner.py"
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "key"]
    assert found == []
    # leads exist only in the solver's packed form: a polynomial keeps no
    # lead, and nothing outside the solver asks one for its lead or its
    # monic multiple
    assert Poly.__slots__ == ("ring", "terms")
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             if path.name != "groebner.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("lead", "monic")]
    assert found == []


def _scopes(tree):
    """Each top-level statement and each method, with its name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '')}", item
        else:
            yield getattr(node, "name", ""), node


def test_only_the_split_forks():
    # os.fork, os._exit, os.pipe and select.select belong to assembly's
    # split of a threaded build: _solve opens the pipes and forks, a forked
    # child leaves through _child alone, and _receive alone waits on the
    # result pipe
    calls = {("os", "fork"), ("os", "_exit"), ("os", "pipe"),
             ("select", "select")}
    found = sorted(f"{path.name}:{name}:{node.value.id}.{node.attr}"
                   for path in pathlib.Path(tgraph.__file__).parent.rglob(
                       "*.py")
                   for name, scope in _scopes(ast.parse(path.read_text()))
                   for node in ast.walk(scope)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and (node.value.id, node.attr) in calls)
    assert found == ["assembly.py:_child:os._exit",
                     "assembly.py:_receive:select.select",
                     "assembly.py:_solve:os.fork",
                     "assembly.py:_solve:os.pipe",
                     "assembly.py:_solve:os.pipe"]


def test_one_sparse_row_update():
    # an entry that cancels is dropped by .pop(key, None) in poly.add_into,
    # and otherwise only when the solver drops a pair from its queue;
    # strolls is the reference route, kept as written
    found = {f"{path.name}:{name}"
             for path in pathlib.Path(tgraph.__file__).parent.rglob("*.py")
             if path.name != "strolls.py"
             for name, scope in _scopes(ast.parse(path.read_text()))
             for node in ast.walk(scope)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "pop" and len(node.args) == 2
             and isinstance(node.args[1], ast.Constant)
             and node.args[1].value is None}
    assert sorted(found) == ["groebner.py:buchberger", "poly.py:add_into"]


def test_one_output_branch_in_the_cli():
    # cli._write alone chooses between a command's JSON document and its
    # text, so an option added later cannot grow a second output branch
    tree = ast.parse((pathlib.Path(tgraph.__file__).parent / "cli.py")
                     .read_text())

    def where(name, attr):
        return [scope_name for scope_name, scope in _scopes(tree)
                for node in ast.walk(scope)
                if isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name)
                and node.value.id == name]

    assert where("json", "dumps") == where("args", "json") == ["_write"]


def test_no_assert_outside_strolls():
    # python -O strips assert statements, so a check the package relies on
    # raises instead, and raises RuntimeError or ValueError rather than
    # AssertionError; strolls is the reference route, kept as written
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = []
    for path in sorted(pathlib.Path(tgraph.__file__).parent.rglob("*.py")):
        if path.name == "strolls.py":
            continue
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Assert)
                  or (isinstance(node, ast.Raise)
                      and raises_assertion_error(node))]
    assert found == []


def test_only_outside_input_meets_the_validating_constructor():
    # derived ideals are built from their rows by MonomialIdeal2._from_rows;
    # the generator-checking constructor runs in generated_ideal alone
    package = pathlib.Path(tgraph.__file__).parent
    found = [f"{path.name}:{name}"
             for path in sorted(package.rglob("*.py"))
             for name, scope in _scopes(ast.parse(path.read_text()))
             for node in ast.walk(scope)
             if isinstance(node, ast.Call)
             and "MonomialIdeal2" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    assert found == ["monomial.py:generated_ideal"]


def _calls_by_scope(name):
    """Where the package calls `name`: "module.py:scope" for each call."""
    package = pathlib.Path(tgraph.__file__).parent
    return sorted(f"{path.name}:{scope_name}"
                  for path in sorted(package.rglob("*.py"))
                  for scope_name, scope in _scopes(ast.parse(path.read_text()))
                  for node in ast.walk(scope)
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None)))


def test_one_place_orients_a_pair():
    # which ideal is on top, and where the two differ, is decided in
    # arrows.oriented_pair; every entry point on a comparable pair takes
    # the value it builds.  The literal checkers and the induced map work on
    # outside input or on limits they found, so they compute their own
    # region.
    assert _calls_by_scope("OrientedPair") == ["arrows.py:oriented_pair"]
    assert _calls_by_scope("active_classes") == [
        "arrows.py:is_arrow_map", "arrows.py:is_system_of_arrows",
        "arrows.py:oriented_pair", "induced.py:induced_arrow_map"]


def test_hot_path_reads_rows_not_standard_monomial_sets():
    # the arrow and assembly layers, the Hilbert function and the box
    # quotient compute from the staircase rows
    package = pathlib.Path(tgraph.__file__).parent
    scopes = [ast.parse((package / name).read_text())
              for name in ("arrows.py", "assembly.py")]
    scopes += [node for node in ast.walk(
                   ast.parse((package / "monomial.py").read_text()))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("hilbert_function", "colon_box")]
    assert len(scopes) == 4
    found = [node.lineno for scope in scopes for node in ast.walk(scope)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "standard_monomials"]
    assert found == []


def test_fixture_replay_without_asserts():
    done = run_python("-O", "-m", "tgraph.cli", "verify-fixtures")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)


def test_the_fixture_replay_solves_the_unpresolved_equations():
    # the fixtures' check is a route independent of decide_edge: it hands
    # the edge ideal's nonzero generators, in the printed variable order,
    # straight to buchberger, and presolves nothing
    path = pathlib.Path(tgraph.__file__).parent / "fixtures" / "__init__.py"
    (check,) = [node for node in ast.parse(path.read_text()).body
                if getattr(node, "name", None) == "_check_edge_ideal"]
    calls = [node for node in ast.walk(check) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "buchberger"]
    assert [ast.unparse(call) for call in calls] == [
        "buchberger(ideal.nonzero_generators())"]
    assert not [node for node in ast.walk(check)
                if "presolve" in (getattr(node, "id", None),
                                  getattr(node, "attr", None))]
