"""Minimal reverse-mode automatic differentiation over numpy arrays.

A dynamically recorded tape: every operation on a :class:`Tensor` that has
gradient tracking enabled records its parents and a closure that maps the
node's cotangent to one cotangent per parent.  A single reverse walk
(:func:`reverse_walk`) owns accumulation: it visits the nodes of
:func:`tape_order` from the last to the first, stores a parent's first
contribution as is and releases each node's cotangent once the node is
processed.  ``backward()`` on a scalar runs one walk and accumulates into the
leaves' ``.grad`` until explicitly zeroed, so calling it twice doubles them.

Network layers are single nodes with hand-derived backward rules:
:func:`linear`, :func:`layer_norm` and multi-head :func:`attention`.

Also hosts the parameter store, the AdamW optimizer with a step-based
learning-rate scheduler, and the binary checkpoint format.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from .errors import CorruptCheckpoint, MissingGradient, ShapeMismatch

DEFAULT_DTYPE = np.float64
MASK_LOGIT = -1e9

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
    """An array on the tape.  An op node's `_backward(g, need)` returns one
    cotangent per parent, None where `need` is false."""

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

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        seeds = [(self, np.ones_like(self.data))]
        for leaf, g in reverse_walk(seeds, tape_order([self])).items():
            # a cotangent may be shared between parents; each .grad is its own
            leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other
        data = a.data + b.data

        def backward_fn(g, need):
            return (_unbroadcast(g, a.data.shape) if need[0] else None,
                    _unbroadcast(g, b.data.shape) if need[1] else None)

        return Tensor._result(data, (a, b), backward_fn)

    __radd__ = __add__

    def __neg__(self):
        return Tensor._result(-self.data, (self,), lambda g, need: (-g,))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        data = a.data * b.data

        def backward_fn(g, need):
            return (_unbroadcast(g * b.data, a.data.shape) if need[0] else None,
                    _unbroadcast(g * a.data, b.data.shape) if need[1] else None)

        return Tensor._result(data, (a, b), backward_fn)

    __rmul__ = __mul__

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return Tensor._result(self.data.reshape(shape), (self,),
                              lambda g, need: (g.reshape(old),))

    def __getitem__(self, key):
        a = self

        def backward_fn(g, need):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            return (full,)

        return Tensor._result(a.data[key], (a,), backward_fn)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(g, need):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.data.shape).copy(),)

        return Tensor._result(data, (a,), backward_fn)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- nonlinearities -------------------------------------------------------

    def relu(self):
        a = self
        return Tensor._result(np.maximum(a.data, 0.0), (a,),
                              lambda g, need: (g * (a.data > 0),))

    def sigmoid(self):
        data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._result(data, (self,),
                              lambda g, need: (g * data * (1.0 - data),))

    def sqrt(self):
        data = np.sqrt(self.data)

        def backward_fn(g, need):
            # subgradient guard at exactly zero
            denom = np.where(data > 0, data, np.inf)
            return (g * 0.5 / denom,)

        return Tensor._result(data, (self,), backward_fn)


# -- the reverse walk ---------------------------------------------------------


def tape_order(roots):
    """Every recorded node reachable from `roots`, each after its parents."""
    order = []
    seen = set()
    stack = [(r, False) for r in roots]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


def reaching(order, targets):
    """Ids of the nodes of `order` from which a tensor of `targets` is
    reached through parents, the targets included."""
    reach = {id(t) for t in targets}
    for node in order:
        if any(id(p) in reach for p in node._parents):
            reach.add(id(node))
    return reach


def reverse_walk(seeds, order, reach=None):
    """Propagate the (tensor, cotangent) `seeds` back through `order` and
    return {leaf: cotangent} for the leaves reached.

    With `reach` (from :func:`reaching`) a node asks its backward rule only
    for the parents in it; without, for every parent that requires grad.  A
    cotangent summed from several contributions that comes out exactly zero
    is not propagated further."""
    cot = {}
    summed = set()

    def add(node, g):
        key = id(node)
        if key in cot:
            cot[key] = cot[key] + g
            summed.add(key)
        else:
            cot[key] = g

    for node, g in seeds:
        add(node, g)
    leaves = {}
    for node in reversed(order):
        g = cot.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            leaves[node] = g
            continue
        if id(node) in summed and not g.any():
            continue
        parents = node._parents
        if reach is None:
            need = tuple(p.requires_grad for p in parents)
        else:
            need = tuple(id(p) in reach for p in parents)
        for p, wanted, gp in zip(parents, need, node._backward(g, need)):
            if wanted:
                add(p, gp)
    return leaves


# -- composite / functional ops ----------------------------------------------


def concat(tensors, axis):
    parts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    bounds = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def backward_fn(g, need):
        index = [slice(None)] * g.ndim
        out = []
        for wanted, lo, hi in zip(need, bounds[:-1], bounds[1:]):
            index[axis] = slice(lo, hi)
            out.append(g[tuple(index)] if wanted else None)
        return out

    return Tensor._result(data, tuple(parts), backward_fn)


def dropout(x, p, training, rng):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    a = x if isinstance(x, Tensor) else Tensor(x)
    if not training or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return Tensor._result(a.data * mask, (a,), lambda g, need: (g * mask,))


def linear(x, W, b):
    """x @ W + b over the last axis of x, as one node.  The weight cotangent
    is one 2-D product over the flattened rows."""
    if x.shape[-1] != W.shape[0]:
        raise ShapeMismatch(f"linear input width {x.shape[-1]} != weight rows {W.shape[0]}")
    data = x.data @ W.data + b.data

    def backward_fn(g, need):
        rows = g.reshape(-1, g.shape[-1])
        return (g @ W.data.T if need[0] else None,
                x.data.reshape(-1, W.shape[0]).T @ rows if need[1] else None,
                rows.sum(axis=0) if need[2] else None)

    return Tensor._result(data, (x, W, b), backward_fn)


def layer_norm(x, gain, bias, eps=1e-5):
    """Per-row (last axis) zero-mean unit-variance normalization, then
    affine, as one node."""
    inv_n = 1.0 / float(x.shape[-1])
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
    xhat = centered / std
    data = xhat * gain.data + bias.data

    def backward_fn(g, need):
        rows = tuple(range(g.ndim - 1))
        gx = None
        if need[0]:
            gh = g * gain.data
            gx = (gh - gh.mean(axis=-1, keepdims=True)
                  - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) / std
        return (gx,
                (g * xhat).sum(axis=rows) if need[1] else None,
                g.sum(axis=rows) if need[2] else None)

    return Tensor._result(data, (x, gain, bias), backward_fn)


def _heads(x, n_heads):
    """View (..., L, d) as (..., n_heads, L, d / n_heads)."""
    return x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads).swapaxes(-3, -2)


def _merge(x):
    """Inverse of :func:`_heads`: (..., h, L, e) -> (..., L, h * e)."""
    x = x.swapaxes(-3, -2)
    return x.reshape(*x.shape[:-2], -1)


def attention(q, k, v, n_heads, mask=None, want_weights=False):
    """Multi-head scaled dot-product attention as one node: split the last
    axis of the (..., L, d) inputs into heads, softmax(q k^T / sqrt(d / h))
    per head, weight the values and merge the heads.

    `mask` marks logits to suppress (broadcast over the leading axes); they
    get the constant MASK_LOGIT, so their weight is exactly zero and masked
    inputs cannot influence the output or receive gradient.  Returns (output,
    weights), the weights (..., h, Lq, Lk) only when `want_weights`."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeMismatch(f"query width {q.shape[-1]} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(f"key count {k.shape[-2]} != value count {v.shape[-2]}")
    qh, kh, vh = (_heads(t.data, n_heads) for t in (q, k, v))
    inv_scale = 1.0 / np.sqrt(q.shape[-1] // n_heads)
    # the weights are built in one buffer, in place
    w = qh @ kh.swapaxes(-1, -2)
    w *= inv_scale
    if mask is not None:
        np.copyto(w, MASK_LOGIT, where=mask)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    oh = w @ vh
    data = _merge(oh)

    def backward_fn(g, need):
        # softmax backward: the row term sum_j w_ij (g_i . v_j) equals
        # g_i . o_i, a reduction over the head width instead of the keys
        gh = _heads(g, n_heads)
        gs = gh @ vh.swapaxes(-1, -2)
        gs -= (gh * oh).sum(axis=-1, keepdims=True)
        gs *= w
        return (_merge(gs @ kh) * inv_scale if need[0] else None,
                _merge(gs.swapaxes(-1, -2) @ qh) * inv_scale if need[1] else None,
                _merge(w.swapaxes(-1, -2) @ gh) if need[2] else None)

    out = Tensor._result(data, (q, k, v), backward_fn)
    return out, (w.copy() if want_weights else None)


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
