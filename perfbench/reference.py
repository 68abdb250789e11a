"""A fixed reference kernel that measures how fast the machine is right now.

The kernel does not use stimex.  It mixes the kinds of work the workloads
do: Python objects linked into a graph, small BLAS calls, JSON round trips
of float lists and a character scan over bracketed text.  Its run time moves
with the machine's speed (shared caches, frequency, neighbouring load) and
not with any change to stimex.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_W = _RNG.normal(size=(300, 400))
_H = _RNG.normal(size=(100, 400))
_FLOATS = _RNG.normal(size=4000).tolist()
_TEXT = " ".join(f"(S (NP (NN w{i})) (VP (VBD v{i})))" for i in range(400))


def _kernel() -> int:
    nodes: list[dict] = []
    x = np.zeros(400)
    for k in range(300):
        x = np.tanh(_W[k] * 0.01 + x @ _H.T @ _H * 1e-3)
        nodes.append({"k": k, "v": x, "p": nodes[-1] if nodes else None})
    floats = json.loads(json.dumps(_FLOATS))
    depth = best = 0
    for ch in _TEXT:
        if ch == "(":
            depth += 1
            best = max(best, depth)
        elif ch == ")":
            depth -= 1
    return len(nodes) + len(floats) + best


def reference_seconds(repeats: int = 4) -> float:
    """Wall seconds of ``repeats`` runs of the kernel."""
    start = perf_counter()
    for _ in range(repeats):
        _kernel()
    return perf_counter() - start
