import os
import subprocess
import sys

import pytest

import tgraph
from tgraph.general import two_points_graph
from tgraph.groebner import BudgetExceeded

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
        "missing = [n for n in tgraph.__all__ if not hasattr(tgraph, n)]\n"
        "assert not missing, missing\n"
        "print(len(tgraph.__all__))\n")
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == len(tgraph.__all__)


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
        "M, N = parse_ideal('<x^5, y^2>'), parse_ideal('<x^2, y^5>')\n"
        "arrows._search = lambda M, N, g, classes, limit: iter([{}])\n"
        "induced._is_arrow_map = lambda *args: False\n"
        "pencil = [{(2, 0): Fraction(1), (1, 1): Fraction(2),\n"
        "           (0, 2): Fraction(2)}, {(0, 4): Fraction(1)}]\n"
        "for call in (lambda: arrows.arrow_map_exists(M, N, g),\n"
        "             lambda: induced.induced_arrow_map(pencil, g, 8)):\n"
        "    try:\n"
        "        call()\n"
        "    except RuntimeError:\n"
        "        print('raised')\n"
        "    else:\n"
        "        print('returned')\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised", "raised"]


def test_fixture_replay_without_asserts():
    done = run_python("-O", "-m", "tgraph.cli", "verify-fixtures")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)
