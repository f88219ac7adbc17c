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

Also hosts the parameter store, which lays every weight and gradient out in
flat buffers, the AdamW optimizer with a step-based learning-rate
scheduler, and the binary checkpoint format.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math

import numpy as np

from .errors import CorruptCheckpoint, MissingGradient, ShapeMismatch

DEFAULT_DTYPE = np.float64
MASK_LOGIT = -1e9

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev, _GRAD_ENABLED = _GRAD_ENABLED, False
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
        self.grad, self._parents, self._backward = None, (), None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward_fn):
        out = Tensor.__new__(Tensor)
        out.data, out.grad = data, None
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out._parents, out._backward = ((tuple(parents), backward_fn) if out.requires_grad
                                       else ((), None))
        return out

    shape = property(lambda self: self.data.shape)
    ndim = property(lambda self: self.data.ndim)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        seeds = [(self, np.ones_like(self.data))]
        for leaf, g in reverse_walk(seeds, tape_order([self], {})[0]).items():
            # a cotangent may be shared between parents; each .grad is its own
            leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g

    # -- elementwise arithmetic ----------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        a, b = self, self._coerce(other)
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
        a, b = self, self._coerce(other)
        data = a.data * b.data

        def backward_fn(g, need):
            return (_unbroadcast(g * b.data, a.data.shape) if need[0] else None,
                    _unbroadcast(g * a.data, b.data.shape) if need[1] else None)

        return Tensor._result(data, (a, b), backward_fn)

    __rmul__ = __mul__

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return Tensor._result(self.data.reshape(*shape), (self,),
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
        n = self.data.size if axis is None else math.prod(
            self.data.shape[ax] for ax in np.atleast_1d(axis))
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


def tape_order(roots, tags):
    """Every recorded node reachable from `roots`, each after its parents,
    and {id(node): mask}: a node's tag in `tags` ({id: bits}) ORed with its
    parents' masks, so bit b is set where a node leads to a tensor tagged b."""
    order, masks = [], {}
    stack = [(r, False) for r in roots]
    while stack:
        node, processed = stack.pop()
        key = id(node)
        if processed:
            mask = masks[key]
            for p in node._parents:
                mask |= masks.get(id(p), 0)
            masks[key] = mask
            order.append(node)
        elif key not in masks:
            masks[key] = tags.get(key, 0)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in masks:
                    stack.append((p, False))
    return order, masks


def reverse_walk(seeds, order, masks=None, bit=0):
    """Propagate the (tensor, cotangent) `seeds` back through `order` and
    return {leaf: cotangent} for the leaves reached.

    With `masks` (from :func:`tape_order`) a node asks its backward rule only
    for the parents whose mask has `bit`; without, for every parent that
    requires grad.  A cotangent summed from several contributions that comes
    out exactly zero is not propagated further."""
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
        if masks is None:
            need = tuple(p.requires_grad for p in parents)
        else:
            need = tuple(masks.get(id(p), 0) & bit for p in parents)
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
    return (diff * diff).sum(axis=(-2, -1)).sqrt()


# -- parameters ---------------------------------------------------------------


def _cut(shapes):
    """[(path, lo, hi, shape)]: where each (path, shape) of `shapes` lies
    when the arrays are laid end to end in one flat buffer."""
    bounds = np.cumsum([0] + [math.prod(shape) for _, shape in shapes]).tolist()
    return [(k, lo, hi, tuple(shape)) for (k, shape), lo, hi in zip(shapes, bounds, bounds[1:])]


class Parameter(Tensor):
    """A trainable leaf whose data and gradient are views into the flat
    buffers of its :class:`ParamStore`; `grad` reads None until it is set."""

    __slots__ = ("_store", "_index")

    @property
    def grad(self):
        store = self._store
        return store._grad_views[self._index] if store.has_grad[self._index] else None

    @grad.setter
    def grad(self, value):
        store = self._store
        if value is not None:
            np.copyto(store._grad_views[self._index], value)
        store.has_grad[self._index] = value is not None


class ParamStore:
    """Named map from parameter path to trainable Tensor.

    The weights lie in one contiguous float64 buffer, `flat`, in path-sorted
    order, and each parameter's `.data` is a view into it; the gradients lie
    the same way in `grad`, with `has_grad` flagging the ones that are set.
    Loading writes into the views and never rebinds them.  The buffers are
    laid out on first use after the last `add`."""

    _LAID_OUT = ("flat", "grad", "has_grad", "_grad_views", "_layout", "_tags")

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def __getattr__(self, name):
        if name not in ParamStore._LAID_OUT:
            raise AttributeError(name)
        self._lay_out()
        return getattr(self, name)

    def add(self, path, data):
        if path in self._params:
            raise ValueError(f"duplicate parameter path {path!r}")
        p = Parameter.__new__(Parameter)
        p.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        p.requires_grad, p._parents, p._backward, p._store = True, (), None, self
        self._params[path] = p
        for name in ParamStore._LAID_OUT:
            self.__dict__.pop(name, None)
        return p

    def _lay_out(self):
        """Copy the weights into new flat buffers in path order and point
        each parameter at its slice.  Gradients are cleared."""
        items = self.items()
        self._layout = _cut([(k, p.data.shape) for k, p in items])
        self.flat = np.concatenate([p.data.ravel() for _, p in items] + [np.empty(0)])
        self.grad = np.zeros_like(self.flat)
        self.has_grad = np.zeros(len(items), dtype=bool)
        self._grad_views = list(self.views(self.grad).values())
        for i, (view, (_, p)) in enumerate(zip(self.views(self.flat).values(), items)):
            p.data, p._index = view, i
        self._tags = {}

    def __getitem__(self, path):
        return self._params[path]

    def items(self):
        return sorted(self._params.items())

    def paths(self):
        return sorted(self._params)

    def views(self, flat):
        """{path: array}: views into a buffer laid out like `flat`."""
        return {k: flat[lo:hi].reshape(shape) for k, lo, hi, shape in self._layout}

    def flatten(self, arrays):
        """One buffer holding {path: array} in this store's layout; raises
        ShapeMismatch unless the paths and shapes are the parameters'."""
        bad = sorted(set(arrays) ^ set(self._params)) or [
            k for k, *_, shape in self._layout if np.shape(arrays[k]) != shape]
        if bad:
            raise ShapeMismatch(f"arrays differ from the parameters at {', '.join(bad)}")
        return np.concatenate([np.ravel(arrays[k]) for k, *_ in self._layout] + [np.empty(0)])

    def tags(self, group):
        """{id(parameter): group(path)}, built once per `group` function."""
        if group not in self._tags:
            self._tags[group] = {id(p): group(k) for k, p in self._params.items()}
        return self._tags[group]

    def zero_grads(self):
        self.has_grad[:] = False

    def snapshot(self):
        return self.views(self.flat.copy())

    def load(self, arrays):
        self.flat[:] = self.flatten(arrays)

    def grads(self):
        return {k: (None if v.grad is None else v.grad.copy())
                for k, v in self._params.items()}


class AdamW:
    """Adam with decoupled weight decay and a step-interval halving scheduler.

    Moments are flat buffers laid out like the store's weights, and a step
    is one in-place pass over them: per element the same operations, in the
    same order, as an update parameter by parameter."""

    def __init__(self, store, lr=0.01, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=1e-5, scheduler_decay=0.5, scheduler_interval=None):
        self.store, self.lr, self.eps = store, lr, eps
        self.beta1, self.beta2 = betas
        self.weight_decay, self.scheduler_decay = weight_decay, scheduler_decay
        self.scheduler_interval, self.step_count = scheduler_interval, 0
        self.m, self.v, self._a, self._b = (np.zeros_like(store.flat) for _ in range(4))

    def zero_grad(self):
        self.store.zero_grads()

    def step(self):
        store = self.store
        if not store.has_grad.all():
            raise MissingGradient(f"parameter {store.paths()[np.argmin(store.has_grad)]!r} "
                                  f"has no gradient")
        self.step_count += 1
        t = self.step_count
        w, g, m, v, a, b = store.flat, store.grad, self.m, self.v, self._a, self._b
        w -= np.multiply(w, self.lr * self.weight_decay, out=a)
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(g, 1 - self.beta2, out=a), g, out=a)
        np.multiply(np.divide(m, 1 - self.beta1 ** t, out=a), self.lr, out=a)   # lr * m-hat
        np.sqrt(np.divide(v, 1 - self.beta2 ** t, out=b), out=b)              # sqrt(v-hat)
        b += self.eps
        w -= np.divide(a, b, out=a)
        if self.scheduler_interval and self.step_count % self.scheduler_interval == 0:
            self.lr *= self.scheduler_decay


# -- checkpoint io ------------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_arrays(path, arrays, extra=None):
    """Write named float arrays: a JSON header line, then one little-endian
    payload of every array in path-sorted order.  The header gives each
    array's path and shape, and the payload's length and sha256."""
    names = sorted(arrays)
    payload = np.concatenate([np.ravel(arrays[n]) for n in names]
                             + [np.empty(0)]).astype("<f8", copy=False).tobytes()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "dtype": "float64",
        "params": [{"path": n, "shape": list(np.shape(arrays[n]))} for n in names],
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "extra": extra or {},
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


def load_arrays(path):
    """Inverse of :func:`save_arrays`; returns (arrays, extra).  Raises
    CorruptCheckpoint unless the header is well formed and the payload holds
    exactly the declared bytes with the declared checksum."""
    with open(path, "rb") as f:
        header_line, payload = f.readline(), f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError as exc:
        raise CorruptCheckpoint(f"undecodable header in {path}: {exc}") from None
    if not isinstance(header, dict) or header.get("format_version") != CHECKPOINT_VERSION:
        raise CorruptCheckpoint(f"unsupported checkpoint version in {path}; retrain to "
                                f"write format {CHECKPOINT_VERSION}")
    specs = header.get("params")
    if not (isinstance(specs, list) and all(
            isinstance(s, dict) and isinstance(s.get("path"), str)
            and isinstance(s.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in s["shape"]) for s in specs)
            and len({s["path"] for s in specs}) == len(specs)):
        raise CorruptCheckpoint(f"{path} does not list distinct arrays with integer shapes")
    layout = _cut([(s["path"], s["shape"]) for s in specs])
    nbytes = 8 * (layout[-1][2] if layout else 0)
    if (header.get("payload_bytes") != nbytes or not isinstance(header.get("sha256"), str)
            or not isinstance(header.get("extra", {}), dict)):
        raise CorruptCheckpoint(f"{path} has a header that does not describe its payload")
    if len(payload) != nbytes:
        raise CorruptCheckpoint(f"{path} is truncated" if len(payload) < nbytes
                                else f"{path} has bytes after its last array")
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise CorruptCheckpoint(f"{path} fails its sha256 check")
    flat = np.frombuffer(payload, dtype="<f8").astype(DEFAULT_DTYPE)
    return ({k: flat[lo:hi].reshape(shape) for k, lo, hi, shape in layout},
            header.get("extra", {}))
