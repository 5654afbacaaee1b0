"""Reverse-mode differentiation over a short graph of closed-form nodes.

Each node holds its float64 value, its parents and one function from the
upstream gradient array to every parent's gradient array, computed in NumPy.
`backward` calls each function once and returns arrays, so a graph is
differentiated once, not twice; the tests' twice-differentiable reference
tape is in `tests/_oracles.py`. The tape is bookkeeping only: it checks no
value. The code that computes a node's value checks it finite (`models`,
`robustness`), and `train` checks a step's loss and gradient vector once,
before Adam.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A float64 array plus its position in the recorded computation graph.

    A leaf has no parents. Any other node holds `gradients(g)`, which maps the
    upstream gradient array g to one array per parent, in the order of
    `parents`, each with as many entries as its parent. The function holds
    what it needs of the forward, never the node, so no graph is a cycle.
    """

    __slots__ = ("data", "_parents", "_gradients", "__weakref__")

    def __init__(self, data, parents=(), gradients=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._parents = tuple(parents)
        self._gradients = gradients


def _topological_order(root) -> list:
    """Iterative postorder: every node appears after all of its parents."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    return order


def backward(root: Tensor, wrt) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar root with respect to the given leaves.

    Returns {leaf: gradient array}, each of its leaf's shape (a [k] leaf that
    a node read as one [1, k] row gets a [k] gradient). A parent that several
    nodes share gets the sum of their arrays. The graph is not mutated, so
    repeating the call reproduces the same values.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(_topological_order(root)):
        g = grads[id(node)]     # complete: every child has been done
        if node._parents:
            for parent, d in zip(node._parents, node._gradients(g)):
                d = d.reshape(parent.data.shape)
                previous = grads.get(id(parent))
                grads[id(parent)] = d if previous is None else previous + d
    try:
        return {leaf: grads[id(leaf)] for leaf in wrt}
    except KeyError:
        raise ValueError("a requested leaf is not reachable from the root") from None
