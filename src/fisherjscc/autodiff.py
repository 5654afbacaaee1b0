"""Reverse-mode differentiation on a dynamic tape of float64 numpy arrays.

The tape keeps the glue of a training loss: adding, tiling and reshaping
arrays, picking each row's label and summing. The models and the Fisher
trace enter it as `closed_form` nodes, whose value and gradients are
computed in NumPy, so a training step runs one `backward` over a short
tape. A closed-form node's gradients are leaves: it can be differentiated
once, not twice.

Every other backward rule is expressed with the tape's own primitives, so
the gradients `backward` returns through them are tape nodes themselves and
an expression of them can be differentiated again. The tests build their
twice-differentiable reference models from these primitives plus the
elementwise and matrix ops in `tests/_oracles.py`.

Every node checks its value on construction: a non-finite value raises
FloatingPointError the moment it enters the graph.
"""

from __future__ import annotations

import numpy as np


def check_finite(values: np.ndarray) -> np.ndarray:
    """values itself; FloatingPointError if it holds a NaN or an infinity."""
    if not np.isfinite(values).all():
        raise FloatingPointError("non-finite value entered the computation graph")
    return values


class Tensor:
    """A float64 array plus its position in the recorded computation graph.

    Leaves have no parents. `_vjps[i]` maps the upstream gradient node to the
    gradient node for `_parents[i]`; both sides of the mapping live on the
    same tape. A `closed_form` node holds instead one function from the
    upstream gradient array to every parent's gradient array. A rule that
    needs the node's own output holds it through a weak reference: a strong
    one would make every graph a reference cycle that lives until the cyclic
    collector runs.
    """

    __slots__ = ("data", "_parents", "_vjps", "__weakref__")

    def __init__(self, data, parents=(), vjps=()):
        self.data = check_finite(np.asarray(data, dtype=np.float64))
        self._parents = parents
        self._vjps = vjps

    def item(self) -> float:
        return float(self.data)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _sum_to(g: Tensor, shape: tuple) -> Tensor:
    """Reduce a broadcast gradient back to the shape of the original operand."""
    while g.data.ndim > len(shape):
        g = sum_axis(g, 0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.data.shape[axis] != 1:
            g = sum_axis(g, axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data + b.data,
        (a, b),
        (lambda g, s=a.data.shape: _sum_to(g, s), lambda g, s=b.data.shape: _sum_to(g, s)),
    )


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)
    c = float(factor)
    return Tensor(a.data * c, (a,), (lambda g: scale(g, c),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    return Tensor(
        a.data.reshape(shape), (a,), (lambda g, s=a.data.shape: reshape(g, s),)
    )


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    return Tensor(
        np.broadcast_to(a.data, shape).copy(),
        (a,),
        (lambda g, s=a.data.shape: _sum_to(g, s),),
    )


def tile_rows(a, times: int) -> Tensor:
    """Stack `times` copies of a[b, d] into [times*b, d]; row t*b + i is a[i].

    A composite of reshape and broadcast_to, so its gradient sums the copies.
    """
    a = as_tensor(a)
    rows, cols = a.data.shape
    stacked = broadcast_to(reshape(a, (1, rows, cols)), (times, rows, cols))
    return reshape(stacked, (times * rows, cols))


def sum_axis(a, axis: int, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape

    def vjp(g, axis=axis, keepdims=keepdims, in_shape=in_shape):
        if not keepdims:
            kept = list(in_shape)
            kept[axis] = 1
            g = reshape(g, kept)
        return broadcast_to(g, in_shape)

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), (vjp,))


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape

    def vjp(g, in_shape=in_shape):
        return broadcast_to(reshape(g, (1,) * len(in_shape)), in_shape)

    return Tensor(a.data.sum(), (a,), (vjp,))


def gather_labels(a, labels) -> Tensor:
    """Pick a[i, labels[i]] for each row; gradient scatters back to the rows."""
    a = as_tensor(a)
    idx = np.asarray(labels, dtype=np.int64)
    if a.data.ndim != 2 or idx.shape != (a.data.shape[0],):
        raise ValueError("gather_labels expects a[b,C] and one label per row")
    if idx.min() < 0 or idx.max() >= a.data.shape[1]:
        raise ValueError("label index out of range")
    rows = np.arange(a.data.shape[0])

    def vjp(g, idx=idx, shape=a.data.shape):
        return scatter_labels(g, idx, shape[1])

    return Tensor(a.data[rows, idx], (a,), (vjp,))


def scatter_labels(g, labels, num_cols: int) -> Tensor:
    """Adjoint of gather_labels: place g[i] at column labels[i] of row i."""
    g = as_tensor(g)
    idx = np.asarray(labels, dtype=np.int64)
    out_data = np.zeros((g.data.shape[0], num_cols))
    out_data[np.arange(g.data.shape[0]), idx] = g.data

    def vjp(g2, idx=idx):
        return gather_labels(g2, idx)

    return Tensor(out_data, (g,), (vjp,))


def closed_form(value, parents, gradients) -> Tensor:
    """A node whose value and gradients are computed off the tape.

    `gradients(g)` maps the upstream gradient array to one array per parent,
    in the order of `parents`, each with as many entries as its parent;
    `backward` calls it once per node and gives each array its parent's
    shape (a [k] leaf read as one [1, k] row, say). The gradients enter the
    tape as leaves.
    """
    return Tensor(value, tuple(parents), gradients)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Iterative postorder: every node appears after all of its parents."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(root: Tensor, wrt) -> dict[Tensor, Tensor]:
    """Gradients of a scalar root with respect to the given leaves.

    Returns {leaf: gradient node}; gradient shapes equal the leaf shapes.
    The call does not mutate the graph, so repeating it reproduces the same
    values. Only subgraphs that can reach a requested leaf are traversed.
    """
    wrt = list(wrt)
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    order = _topological_order(root)
    in_graph = {id(n) for n in order}
    for leaf in wrt:
        if id(leaf) not in in_graph:
            raise ValueError("a requested leaf is not reachable from the root")

    wanted = {id(leaf) for leaf in wrt}
    needed: dict[int, bool] = {}
    for node in order:  # parents precede children here
        needed[id(node)] = id(node) in wanted or any(
            needed[id(p)] for p in node._parents
        )

    grads: dict[int, Tensor] = {id(root): Tensor(np.ones_like(root.data))}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        if callable(node._vjps):    # closed_form: one call gives every parent's gradient
            contributions = (Tensor(d.reshape(p.data.shape)) if needed[id(p)] else None
                             for p, d in zip(node._parents, node._vjps(g.data)))
        else:
            contributions = (vjp(g) if needed[id(p)] else None
                             for p, vjp in zip(node._parents, node._vjps))
        for parent, contribution in zip(node._parents, contributions):
            if contribution is not None:
                previous = grads.get(id(parent))
                grads[id(parent)] = (contribution if previous is None
                                     else add(previous, contribution))

    result: dict[Tensor, Tensor] = {}
    for leaf in wrt:
        g = grads.get(id(leaf))
        if g is None:
            # Reachable but on a pruned-to-nothing path cannot happen: any
            # reachable leaf receives at least a zero-valued contribution.
            g = Tensor(np.zeros_like(leaf.data))
        if g.data.shape != leaf.data.shape:
            raise AssertionError("gradient shape does not match leaf shape")
        result[leaf] = g
    return result
