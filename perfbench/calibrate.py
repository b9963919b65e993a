"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark shares its machine with other tenants, and their load slows
every CPU-bound Python program by up to 2x for minutes at a time.  run.py
runs this kernel in its own fresh interpreter before the first sample and
after every sample, and rescales each sample's times by REFERENCE_S over the
mean of the two kernel times around it.  The kernel uses none of tgraph, so
a change to the program cannot move it, and it runs in a separate process,
so nothing the program leaves running can slow it.

The loop mimics the solver's inner loop: tuple keys, dict updates, ``max``
with a key function, small integer arithmetic.
"""
from __future__ import annotations

ROUNDS = 700
# Kernel time on an idle host: Intel Xeon 2.0 GHz VM, Python 3.11.7.
REFERENCE_S = 0.07


def kernel(rounds=ROUNDS):
    acc = 0
    for r in range(rounds):
        work = {(i, j, r % 3): (i * 7 + j * 3 + r) % 11 + 1
                for i in range(6) for j in range(6)}
        while work:
            e = max(work, key=lambda k: (k[0] + k[1], k))
            c = work.pop(e)
            if e[0]:
                t = (e[0] - 1, e[1], e[2])
                v = (work.get(t, 0) + c) % 11
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
            acc += c
    return acc
