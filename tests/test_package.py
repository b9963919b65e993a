import os
import subprocess
import sys

import pytest

import tgraph
from tgraph.general import two_points_graph
from tgraph.groebner import BudgetExceeded

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tgraph.__file__)))


def run_python(code, *flags):
    """Run code in a fresh interpreter that imports this checkout's tgraph."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_public_surface_in_a_fresh_interpreter():
    done = run_python(
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
        "from tgraph.general import two_points_graph\n"
        "from tgraph.groebner import BudgetExceeded\n"
        "try:\n"
        "    out = two_points_graph(budget=1, verify_window=True)\n"
        "except BudgetExceeded:\n"
        "    print('raised')\n"
        "else:\n"
        "    print(len(out[1]), 'edges')\n", "-O")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised"
