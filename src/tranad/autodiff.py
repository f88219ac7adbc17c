"""Minimal reverse-mode automatic differentiation over numpy arrays.

A dynamically recorded tape: every operation on a :class:`Tensor` that has
gradient tracking enabled records its parents and a closure that propagates
the upstream gradient.  ``backward()`` on a scalar walks the tape in reverse
topological order.  Gradients accumulate into ``.grad`` until explicitly
zeroed, so calling backward twice doubles them.

Also hosts the parameter store, the AdamW optimizer with a step-based
learning-rate scheduler, and the binary checkpoint format.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from .errors import CorruptCheckpoint, MissingGradient, ShapeMismatch

DEFAULT_DTYPE = np.float64

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward_fn):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        # non-leaf grads are scratch space for this pass; only leaves (no
        # recorded parents) accumulate across backward calls
        for node in topo:
            if node._backward is not None:
                node.grad = None
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        data = a.data + b.data

        def backward_fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._result(data, (a, b), backward_fn)

    __radd__ = __add__

    def __neg__(self):
        a = self
        def backward_fn(g):
            a._accumulate(-g)
        return Tensor._result(-a.data, (a,), backward_fn)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        data = a.data * b.data

        def backward_fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._result(data, (a, b), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other
        data = a.data / b.data

        def backward_fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._result(data, (a, b), backward_fn)

    # -- matrix product -------------------------------------------------------

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.data.shape[-1] != b.data.shape[-2 if b.ndim > 1 else 0]:
            raise ShapeMismatch(
                f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
            )
        data = a.data @ b.data

        def backward_fn(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate(_unbroadcast(gb, b.data.shape))

        return Tensor._result(data, (a, b), backward_fn)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape
        data = a.data.reshape(shape)

        def backward_fn(g):
            a._accumulate(g.reshape(old))

        return Tensor._result(data, (a,), backward_fn)

    def transpose(self, axes):
        a = self
        inv = np.argsort(axes)
        data = np.transpose(a.data, axes)

        def backward_fn(g):
            a._accumulate(np.transpose(g, inv))

        return Tensor._result(data, (a,), backward_fn)

    def __getitem__(self, key):
        a = self
        data = a.data[key]

        def backward_fn(g):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            a._accumulate(full)

        return Tensor._result(data, (a,), backward_fn)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
                return
            gg = g
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._result(data, (a,), backward_fn)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- nonlinearities -------------------------------------------------------

    def relu(self):
        a = self
        data = np.maximum(a.data, 0.0)

        def backward_fn(g):
            a._accumulate(g * (a.data > 0))

        return Tensor._result(data, (a,), backward_fn)

    def sigmoid(self):
        a = self
        data = 1.0 / (1.0 + np.exp(-a.data))

        def backward_fn(g):
            a._accumulate(g * data * (1.0 - data))

        return Tensor._result(data, (a,), backward_fn)

    def sqrt(self):
        a = self
        data = np.sqrt(a.data)

        def backward_fn(g):
            # subgradient guard at exactly zero
            denom = np.where(data > 0, data, np.inf)
            a._accumulate(g * 0.5 / denom)

        return Tensor._result(data, (a,), backward_fn)


# -- composite / functional ops ----------------------------------------------


def concat(tensors, axis):
    parts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])

    return Tensor._result(data, tuple(parts), backward_fn)


def softmax(x, axis=-1):
    """Softmax along `axis`, computed with max-subtraction for stability."""
    a = x if isinstance(x, Tensor) else Tensor(x)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a._accumulate(data * (g - dot))

    return Tensor._result(data, (a,), backward_fn)


def masked_fill(x, mask, value):
    """Replace entries where boolean `mask` is true with the constant `value`.

    The replaced entries are constants: no gradient flows to them and the
    original data there cannot influence the output (exact causality).
    """
    a = x if isinstance(x, Tensor) else Tensor(x)
    data = np.where(mask, value, a.data)

    def backward_fn(g):
        a._accumulate(np.where(mask, 0.0, g))

    return Tensor._result(data, (a,), backward_fn)


def dropout(x, p, training, rng):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    a = x if isinstance(x, Tensor) else Tensor(x)
    if not training or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    data = a.data * mask

    def backward_fn(g):
        a._accumulate(g * mask)

    return Tensor._result(data, (a,), backward_fn)


def layer_norm(x, gain, bias, eps=1e-5):
    """Per-row (last axis) zero-mean unit-variance normalization, then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps).sqrt()
    return centered / inv * gain + bias


def frobenius_norm(diff):
    """Norm over the trailing (row, column) axes; batched over leading axes."""
    sq = (diff * diff).sum(axis=(-2, -1))
    return sq.sqrt()


# -- parameters ---------------------------------------------------------------


class ParamStore:
    """Named map from parameter path to trainable Tensor."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, path, data):
        if path in self._params:
            raise ValueError(f"duplicate parameter path {path!r}")
        t = Tensor(np.asarray(data, dtype=DEFAULT_DTYPE))
        t.requires_grad = True
        self._params[path] = t
        return t

    def __getitem__(self, path):
        return self._params[path]

    def __contains__(self, path):
        return path in self._params

    def __len__(self):
        return len(self._params)

    def items(self):
        return sorted(self._params.items())

    def paths(self):
        return sorted(self._params)

    def zero_grads(self):
        for p in self._params.values():
            p.grad = None

    def snapshot(self):
        return {k: v.data.copy() for k, v in self._params.items()}

    def load(self, arrays):
        for k, v in self._params.items():
            if k not in arrays:
                raise KeyError(f"missing parameter {k!r} in snapshot")
            if arrays[k].shape != v.data.shape:
                raise ShapeMismatch(
                    f"parameter {k!r}: expected {v.data.shape}, got {arrays[k].shape}"
                )
            v.data = arrays[k].astype(DEFAULT_DTYPE).copy()

    def grads(self):
        return {k: (None if v.grad is None else v.grad.copy())
                for k, v in self._params.items()}


class AdamW:
    """Adam with decoupled weight decay and a step-interval halving scheduler."""

    def __init__(self, store, lr=0.01, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=1e-5, scheduler_decay=0.5, scheduler_interval=None):
        self.store = store
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.scheduler_decay = scheduler_decay
        self.scheduler_interval = scheduler_interval
        self.step_count = 0
        self.m = {k: np.zeros_like(v.data) for k, v in store.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in store.items()}

    def zero_grad(self):
        self.store.zero_grads()

    def step(self):
        self.step_count += 1
        t = self.step_count
        for k, p in self.store.items():
            if p.grad is None:
                raise MissingGradient(f"parameter {k!r} has no gradient")
            g = p.grad
            p.data -= self.lr * self.weight_decay * p.data
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            mhat = self.m[k] / (1 - self.beta1 ** t)
            vhat = self.v[k] / (1 - self.beta2 ** t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
        if self.scheduler_interval and self.step_count % self.scheduler_interval == 0:
            self.lr *= self.scheduler_decay


# -- checkpoint io ------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_arrays(path, arrays, extra=None):
    """Write named float arrays: a JSON header line, then little-endian data
    in path-sorted order."""
    names = sorted(arrays)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "dtype": "float64",
        "params": [{"path": n, "shape": list(arrays[n].shape)} for n in names],
        "extra": extra or {},
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for n in names:
            f.write(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())


def load_arrays(path):
    """Inverse of :func:`save_arrays`; returns (arrays, extra).  Raises
    CorruptCheckpoint unless the payload holds exactly the declared arrays."""
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except ValueError as exc:
            raise CorruptCheckpoint(f"undecodable header in {path}: {exc}") from None
        if not isinstance(header, dict) or header.get("format_version") != CHECKPOINT_VERSION:
            raise CorruptCheckpoint(f"unsupported checkpoint version in {path}")
        arrays = {}
        for spec in header["params"]:
            shape = tuple(spec["shape"])
            nbytes = 8 * (int(np.prod(shape)) if shape else 1)
            buf = f.read(nbytes)
            if len(buf) != nbytes:
                raise CorruptCheckpoint(f"{path} is truncated at {spec['path']!r}")
            arrays[spec["path"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise CorruptCheckpoint(f"{path} has bytes after its last array")
    return arrays, header.get("extra", {})
