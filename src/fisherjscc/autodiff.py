"""Reverse-mode differentiation on a dynamic tape of float64 numpy arrays.

Every backward rule is expressed with the tape's own primitives, so the
gradients returned by `backward` are tape nodes themselves. An expression
assembled from those gradient nodes (for example a squared input-gradient
norm inside a training loss) can therefore be differentiated by one more
ordinary backward pass; no dedicated higher-order machinery exists or is
needed. Non-differentiable factors (the relu mask) enter the tape as
detached constants, whose zero derivative is exact almost everywhere.

relu'(0) is defined as 0. Every node checks its value on construction: a
non-finite value raises FloatingPointError the moment it enters the graph.
"""

from __future__ import annotations

import weakref

import numpy as np


class Tensor:
    """A float64 array plus its position in the recorded computation graph.

    Leaves have no parents. `_vjps[i]` maps the upstream gradient node to the
    gradient node for `_parents[i]`; both sides of the mapping live on the
    same tape. A rule that needs the node's own output holds it through a
    weak reference: a strong one would make every graph a reference cycle
    that lives until the cyclic collector runs.
    """

    __slots__ = ("data", "_parents", "_vjps", "__weakref__")

    def __init__(self, data, parents=(), vjps=()):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise FloatingPointError("non-finite value entered the computation graph")
        self.data = arr
        self._parents = parents
        self._vjps = vjps

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, leaf={not self._parents})"


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


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.data, (a,), (lambda g: neg(g),))


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        (a, b),
        (
            lambda g, o=b, s=a.data.shape: _sum_to(mul(g, o), s),
            lambda g, o=a, s=b.data.shape: _sum_to(mul(g, o), s),
        ),
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data, (a, b))
    out._vjps = (
        lambda g, o=b, s=a.data.shape: _sum_to(div(g, o), s),
        lambda g, o=b, s=b.data.shape, ref=weakref.ref(out):
            _sum_to(neg(div(mul(g, ref()), o)), s),
    )
    return out


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)
    c = float(factor)
    return Tensor(a.data * c, (a,), (lambda g: scale(g, c),))


def square(a) -> Tensor:
    return mul(a, a)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    return Tensor(
        a.data @ b.data,
        (a, b),
        (
            lambda g, o=b: matmul(g, transpose(o)),
            lambda g, o=a: matmul(transpose(o), g),
        ),
    )


def transpose(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.T, (a,), (lambda g: transpose(g),))


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


def relu(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g, src=a):
        # Detached mask: derivative 0 at the kink and w.r.t. everything else.
        return mul(g, Tensor((src.data > 0.0).astype(np.float64)))

    return Tensor(np.maximum(a.data, 0.0), (a,), (vjp,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.tanh(a.data), (a,))
    out._vjps = (lambda g, ref=weakref.ref(out): mul(g, sub(1.0, square(ref()))),)
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data), (a,))
    out._vjps = (lambda g, ref=weakref.ref(out): mul(g, ref()),)
    return out


def activation(a, kind: str) -> Tensor:
    if kind == "relu":
        return relu(a)
    if kind == "tanh":
        return tanh(a)
    raise ValueError(f"unknown activation kind {kind!r}")


def affine(inputs, weight, bias) -> Tensor:
    """inputs[b, d_in] @ weight[d_in, d_out] + bias[d_out], shape-checked up front."""
    inputs, weight, bias = as_tensor(inputs), as_tensor(weight), as_tensor(bias)
    if inputs.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ValueError(
            "affine expects input[b,d_in], weight[d_in,d_out], bias[d_out]; got "
            f"{inputs.data.shape}, {weight.data.shape}, {bias.data.shape}"
        )
    if inputs.data.shape[1] != weight.data.shape[0] or weight.data.shape[1] != bias.data.shape[0]:
        raise ValueError(
            f"affine shapes do not conform: {inputs.data.shape}, "
            f"{weight.data.shape}, {bias.data.shape}"
        )
    return add(matmul(inputs, weight), bias)


def log_softmax(logits) -> Tensor:
    """Row-wise log softmax with max subtraction; rows must have >= 2 entries."""
    x = as_tensor(logits)
    if x.data.ndim != 2:
        raise ValueError(f"log_softmax expects a 2-D batch of logits, got {x.data.shape}")
    if x.data.shape[1] < 2:
        raise ValueError("log_softmax needs at least two classes per row")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor(out_data, (x,))

    def vjp(g, ref=weakref.ref(out)):
        soft = exp(ref())
        return sub(g, mul(soft, sum_axis(g, 1, keepdims=True)))

    out._vjps = (vjp,)
    return out


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


class ParamSet:
    """Named parameter tensors with deterministic iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self._params):
            raise ValueError("parameter names do not match")
        for name, tensor in self._params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != tensor.data.shape:
                raise ValueError(f"shape mismatch for parameter {name!r}")
            tensor.data = arr.copy()


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
        for parent, vjp in zip(node._parents, node._vjps):
            if not needed[id(parent)]:
                continue
            contribution = vjp(g)
            previous = grads.get(id(parent))
            grads[id(parent)] = contribution if previous is None else add(previous, contribution)

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
