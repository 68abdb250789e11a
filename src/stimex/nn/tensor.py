"""Minimal reverse-mode autodiff over dense float64 numpy arrays."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Tensor", "Parameter", "as_tensor", "concat"]


def as_tensor(x) -> "Tensor":
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Sum a gradient back down to `shape` after numpy broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function whose exponent is never positive, so it never overflows."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def _accum(t: "Tensor", g: np.ndarray) -> None:
    if t.grad is None:
        # A copy: `g` may be a read-only broadcast view, or an array another node reads.
        t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=np.float64)
    else:
        t.grad += g


def _used(grad: np.ndarray) -> None:
    raise ValueError("graph node already used by backward(); run the forward pass again")


class Tensor:
    """One node in a reverse-mode computation graph.  ``_backward(grad)`` is
    handed the node's gradient instead of holding the node, so no graph is a
    reference cycle: dropping its output frees it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _attach(self, parents: tuple["Tensor", ...], backward) -> "Tensor":
        if any(p.requires_grad for p in parents):
            self.requires_grad = True
            self._parents = parents
            self._backward = backward
        return self

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data + other.data)

        def backward(grad):
            if self.requires_grad:
                _accum(self, _unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                _accum(other, _unbroadcast(grad, other.data.shape))

        return out._attach((self, other), backward)

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data)

        def backward(grad):
            if self.requires_grad:
                _accum(self, -grad)

        return out._attach((self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data * other.data)

        def backward(grad):
            if self.requires_grad:
                _accum(self, _unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                _accum(other, _unbroadcast(grad * self.data, other.data.shape))

        return out._attach((self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out = Tensor(a @ b)

        def backward(g):
            if a.ndim == 2 and b.ndim == 2:
                ga, gb = g @ b.T, a.T @ g
            elif a.ndim == 1 and b.ndim == 2:
                ga, gb = b @ g, np.outer(a, g)
            elif a.ndim == 2 and b.ndim == 1:
                ga, gb = np.outer(g, b), a.T @ g
            elif a.ndim == 1 and b.ndim == 1:
                ga, gb = g * b, g * a
            else:
                raise ValueError("matmul supports only 1-D and 2-D operands")
            if self.requires_grad:
                _accum(self, ga)
            if other.requires_grad:
                _accum(other, gb)

        return out._attach((self, other), backward)

    # -- shape ------------------------------------------------------------

    def __getitem__(self, idx) -> "Tensor":
        out = Tensor(self.data[idx])

        def backward(grad):
            g = np.zeros_like(self.data)
            if isinstance(idx, (int, np.integer, slice)):
                g[idx] += grad
            else:
                np.add.at(g, idx, grad)
            _accum(self, g)

        return out._attach((self,), backward)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis))

        def backward(grad):
            if not self.requires_grad:
                return
            if axis is None:
                _accum(self, np.broadcast_to(grad, self.data.shape))
            else:
                _accum(self, np.broadcast_to(np.expand_dims(grad, axis), self.data.shape))

        return out._attach((self,), backward)

    def logsumexp(self, axis: int | None = None) -> "Tensor":
        m = np.max(self.data, axis=axis, keepdims=True)
        y_keep = m + np.log(np.sum(np.exp(self.data - m), axis=axis, keepdims=True))
        out = Tensor(y_keep.reshape(()) if axis is None else np.squeeze(y_keep, axis=axis))

        def backward(grad):
            if not self.requires_grad:
                return
            soft = np.exp(self.data - y_keep)
            if axis is None:
                _accum(self, soft * grad)
            else:
                _accum(self, soft * np.expand_dims(grad, axis))

        return out._attach((self,), backward)

    # -- elementwise nonlinearity ---------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = Tensor(np.where(mask, self.data, 0.0))

        def backward(grad):
            if self.requires_grad:
                _accum(self, mask * grad)

        return out._attach((self,), backward)

    # -- backward pass ---------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar loss through the whole graph, consuming it.

        Each node drops its closure, and the arrays that holds, and its parent
        links once it has passed its gradient on, so the graph's memory goes
        during the pass. A second backward through a used node raises
        ``ValueError``.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        # Iterative postorder DFS: recursion depth scales with sequence length.
        order: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, iter]] = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._parents = _used, ()


class Parameter(Tensor):
    """Named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(offset, offset + size)
                _accum(t, grad[tuple(sl)])
            offset += size

    return out._attach(tuple(tensors), backward)
