"""Minimal reverse-mode automatic differentiation over numpy arrays.

A dynamically recorded tape of network blocks: each block that has
gradient tracking enabled records its parents and a closure that maps the
node's cotangent to one cotangent per parent.  A single reverse walk
(:func:`reverse_walk`) owns accumulation: it visits the nodes of
:func:`tape_order` from the last to the first, stores a parent's first
contribution as is and releases each node's cotangent once the node is
processed.  ``backward()`` on a scalar runs one walk and returns the
gradients as values, {leaf: array}; no tensor stores a gradient.

Every op on the tape is a block with a hand-derived backward rule; a
:class:`Tensor` has no arithmetic of its own.  The blocks are the encoder
inputs with their position table, :func:`concat_aligned` (context beside
focus) and :func:`embed` (the window); :func:`add_norm` (residual sum and
LayerNorm); :func:`feed_forward` (with its ReLU, and the decoder's
sigmoid); multi-head :func:`attention` (with its four projections);
:func:`dropout`; the focus :func:`squared_deviation`; the loss term
:func:`mean_frobenius`; and :func:`mix`, which weights the loss terms into
L1 or L2.  A rule adds its cotangents in the order the walk would add them
over the block's op-by-op graph, so gradients are bit-equal to it.

Also hosts the parameter store, which lays every weight and gradient out in
flat buffers, the AdamW optimizer, and the binary checkpoint format.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import json
import math
import operator

import numpy as np

from .errors import CorruptCheckpoint, ShapeMismatch

DEFAULT_DTYPE = np.float64
MASK_LOGIT = -1e9
NORM_EPS = 1e-5    # added to the variance in `add_norm`
ADAM_BETAS = (0.9, 0.999)    # AdamW's decay rates of the two moments
ADAM_EPS = 1e-8              # added to AdamW's sqrt(v-hat)
# The blocks read weights through a C getter and sum with np.add.reduce, the
# reduction ndarray.sum makes through a Python wrapper: no Python frame per call.
_data = operator.attrgetter("data")

_GRAD_ENABLED = True
_ARENA = contextvars.ContextVar("arena", default=None)    # this thread's open WeightArena


class no_grad:
    """Disable tape recording inside the `with` block.  The flag is
    process-wide, so `detection.map_chunks` holds it off on the caller while
    its pool runs.  A class, not a generator, to keep a scored row cheap."""

    def __enter__(self):
        global _GRAD_ENABLED
        self.prev, _GRAD_ENABLED = _GRAD_ENABLED, False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self.prev


class WeightArena(dict):
    """Attention-weight buffers by call position, reused across `with` blocks
    (training steps, scored chunks).  A block is open on its own thread only:
    the i-th :func:`attention` call there, taped or not, writes its weights into
    buffer i, replaced where the shape differs: valid until the next block."""

    def __enter__(self):
        self.token = _ARENA.set(self)
        self.pos = 0

    def __exit__(self, *exc):
        _ARENA.reset(self.token)

    def take(self, shape):
        self.pos += 1
        if self.pos not in self or self[self.pos].shape != shape:
            self[self.pos] = np.empty(shape)
        return self[self.pos]


class Tensor:
    """An array on the tape.  An op node's `_backward(g, need)` returns one
    cotangent per parent, None where `need` is false."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents, self._backward = (), None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward_fn):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out._parents, out._backward = ((tuple(parents), backward_fn) if out.requires_grad
                                       else ((), None))
        return out

    shape = property(operator.attrgetter("data.shape"))

    def backward(self):
        """{leaf: gradient of this scalar} for every leaf it reaches."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        seeds = [(self, np.ones_like(self.data))]
        order = tape_order([self], {})[0]
        # every recorded node carries bit 1; a cotangent may be shared between
        # parents, so each gradient is its own
        return {leaf: g.copy() for leaf, g in
                reverse_walk(seeds, order, dict.fromkeys(map(id, order), 1), 1).items()}


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


def reverse_walk(seeds, order, masks, bit):
    """Propagate the (tensor, cotangent) `seeds` back through `order` and
    return {leaf: cotangent} for the leaves reached.

    A node asks its backward rule only for the parents whose mask in `masks`
    ({id: bits}, as from :func:`tape_order`) has `bit`.  A cotangent summed
    from several contributions that comes out exactly zero is not propagated
    further."""
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
        need = tuple(masks.get(id(p), 0) & bit for p in parents)
        for p, wanted, gp in zip(parents, need, node._backward(g, need)):
            if wanted:
                add(p, gp)
    return leaves


# -- network blocks as single nodes ---------------------------------------------


@functools.cache
def position_encoding(length, width):
    """Sinusoidal position table: PE[p, 2i] = sin(p / 10000^(2i/d)),
    PE[p, 2i+1] = cos of the same argument.  Built once per shape and
    returned read-only, since every caller shares it."""
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(0, width, 2).astype(np.float64)
    angle = pos / np.power(10000.0, i / width)
    pe = np.empty((length, width))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def concat_aligned(a, b):
    """a and b side by side along the last axis plus the position table, as
    one node: the context encoder's input.  The rows of b are aligned to the
    last rows of a: a surplus of leading rows of b is dropped, and a
    shortfall is filled with zeros."""
    (L, da), (Lb, db) = a.shape[-2:], b.shape[-2:]
    n = min(L, Lb)
    data = np.zeros(a.shape[:-1] + (da + db,))
    data[..., :da] = a.data
    data[..., L - n:, da:] = b.data[..., Lb - n:, :]
    data += position_encoding(L, da + db)

    def backward_fn(g, need):
        gb = None
        if need[1]:
            gb = np.zeros_like(b.data)
            gb[..., Lb - n:, :] = g[..., L - n:, da:]
        return g[..., :da] if need[0] else None, gb

    return Tensor._result(data, (a, b), backward_fn)


def dropout(x, p, rng):
    """Inverted dropout: zero with probability p (in [0, 1), as ModelConfig
    checks), scale survivors by 1/(1-p).  With rng None (validation and
    scoring) x passes through unchanged."""
    if rng is None or p == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return Tensor._result(x.data * mask, (x,), lambda g, need: (g * mask,))


def _linear_grads(g, x, W, need):
    """Cotangents of x @ W + b for (x, W, b) given the output's `g`, None
    where `need` is false.  The weight cotangent is one 2-D product over the
    flattened rows."""
    rows = g.reshape(-1, g.shape[-1])
    return (g @ W.T if need[0] else None,
            x.reshape(-1, W.shape[0]).T @ rows if need[1] else None,
            rows.sum(axis=0) if need[2] else None)


def embed(x, W, b):
    """(x @ W + b) + PE over the last axis of a (..., L, d) x, as one node:
    the window encoder's input, with the position table of its shape."""
    if x.shape[-1] != W.shape[0]:
        raise ShapeMismatch(f"embedding input width {x.shape[-1]} != weight rows {W.shape[0]}")
    data = x.data @ W.data + b.data
    data += position_encoding(*data.shape[-2:])
    return Tensor._result(data, (x, W, b),
                          lambda g, need: _linear_grads(g, x.data, W.data, need))


def add_norm(x, r, weights):
    """LayerNorm(x + r) as one node: the residual sum normalized per row
    (last axis) to zero mean and unit variance, then scaled and shifted by
    `weights`, (gain, bias)."""
    gain, bias = weights
    s = x.data + r.data
    inv_n = 1.0 / float(s.shape[-1])
    centered = s - np.add.reduce(s, axis=-1, keepdims=True) * inv_n
    std = np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) * inv_n + NORM_EPS)
    xhat = centered / std

    def backward_fn(g, need):
        rows = tuple(range(g.ndim - 1))
        gs = None
        if need[0] or need[1]:
            gh = g * gain.data
            gs = (gh - gh.mean(axis=-1, keepdims=True)
                  - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) / std
        return (gs, gs, (g * xhat).sum(axis=rows) if need[2] else None,
                g.sum(axis=rows) if need[3] else None)

    return Tensor._result(xhat * gain.data + bias.data, (x, r, gain, bias), backward_fn)


def feed_forward(x, weights, sigmoid=False):
    """relu(x @ W1 + b1) @ W2 + b2 as one node, through a sigmoid if
    `sigmoid`; `weights` is (W1, b1, W2, b2)."""
    W1, b1, W2, b2 = map(_data, weights)
    h = np.maximum(x.data @ W1 + b1, 0.0)
    data = h @ W2 + b2
    if sigmoid:
        data = 1.0 / (1.0 + np.exp(-data))

    def backward_fn(g, need):
        if sigmoid:
            g = g * data * (1.0 - data)
        # gh is set: one gradient group holds a block's weights, so needing W2 means needing W1
        gh, gW2, gb2 = _linear_grads(g, h, W2, (any(need[:3]),) + need[3:])
        return (*_linear_grads(gh * (h > 0), x.data, W1, need[:3]), gW2, gb2)

    return Tensor._result(data, (x, *weights), backward_fn)


def _heads(x, n_heads):
    """View (..., L, d) as (..., n_heads, L, d / n_heads)."""
    return x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads).swapaxes(-3, -2)


def _merge(x):
    """Inverse of :func:`_heads`: (..., h, L, e) -> (..., L, h * e)."""
    x = x.swapaxes(-3, -2)
    return x.reshape(*x.shape[:-2], -1)


@functools.cache
def _row_starts(size, width):
    """The flat index of each `width` row of `size` values; read-only."""
    starts = np.arange(0, size, width)
    starts.flags.writeable = False
    return starts


def attention(Q, K, V, weights, n_heads, mask=None):
    """Multi-head scaled dot-product attention with its projections as one
    node: the (..., L, d) inputs are projected by `weights`, (Wq, bq, Wk, bk,
    Wv, bv, Wo, bo), to q, k and v, whose last axis splits into heads; each
    head weights the values by softmax(q k^T / sqrt(d / h)), and the merged
    heads go through the output projection.

    `mask` marks logits to suppress (broadcast over the leading axes); they
    get the constant MASK_LOGIT, so their weight is exactly zero and masked
    inputs cannot influence the output or receive gradient.  Returns (output,
    weights), the weights (..., h, Lq, Lk) being the buffer the backward reads
    (the thread's open WeightArena's, taped or not): callers must not write to it."""
    Wq, bq, Wk, bk, Wv, bv, Wo, bo = map(_data, weights)
    ins = (Q.data, K.data, V.data)
    q, k, v = ins[0] @ Wq + bq, ins[1] @ Wk + bk, ins[2] @ Wv + bv
    if q.shape[-1] != k.shape[-1]:
        raise ShapeMismatch(f"query width {q.shape[-1]} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(f"key count {k.shape[-2]} != value count {v.shape[-2]}")
    qh, kh, vh = _heads(q, n_heads), _heads(k, n_heads), _heads(v, n_heads)
    inv_scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    # the weights are built in one buffer, in place (the open WeightArena's, if any)
    arena = _ARENA.get()
    w = (qh @ kh.swapaxes(-1, -2) if arena is None else
         np.matmul(qh, kh.swapaxes(-1, -2), out=arena.take(qh.shape[:-1] + kh.shape[-2:-1])))
    w *= inv_scale
    if mask is not None:
        np.copyto(w, MASK_LOGIT, where=mask)
    # the row max in one segmented pass: exact in any order, and without the
    # fixed cost `max(axis=-1)` pays per short row
    rows = _row_starts(w.size, w.shape[-1])
    w -= np.maximum.reduceat(w.reshape(-1), rows).reshape(*w.shape[:-1], 1)
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True)
    oh = w @ vh
    merged = _merge(oh)

    def backward_fn(g, need):
        # the parents come in threes, each input with its projection's W and b
        branch = [any(need[i:i + 3]) for i in (0, 3, 6)]
        go, gWo, gbo = _linear_grads(g, merged, Wo, (any(branch),) + need[9:])
        out = [None] * 9 + [gWo, gbo]
        # go is set: one gradient group holds a block's weights, so needing Wo means needing Wq
        # softmax backward: the row term sum_j w_ij (g_i . v_j) equals
        # g_i . o_i, a reduction over the head width instead of the keys
        gh = _heads(go, n_heads)
        if branch[0] or branch[1]:
            gs = gh @ vh.swapaxes(-1, -2)
            gs -= (gh * oh).sum(axis=-1, keepdims=True)
            gs *= w
        cots = (_merge(gs @ kh) * inv_scale if branch[0] else None,
                _merge(gs.swapaxes(-1, -2) @ qh) * inv_scale if branch[1] else None,
                _merge(w.swapaxes(-1, -2) @ gh) if branch[2] else None)
        for i, gp, x, W in zip((0, 3, 6), cots, ins, (Wq, Wk, Wv)):
            if gp is not None:
                out[i:i + 3] = _linear_grads(gp, x, W, need[i:i + 3])
        return out

    parents = (Q, *weights[:2], K, *weights[2:4], V, *weights[4:])
    return Tensor._result(merged @ Wo + bo, parents, backward_fn), w


def mean_frobenius(x, target):
    """The Frobenius norm of x - target over the trailing (row, column)
    axes, averaged over the leading axes, as one node; `target` is an
    array of x's shape."""
    if x.shape != target.shape:
        raise ShapeMismatch(f"reconstruction shape {x.shape} != window shape {target.shape}")
    diff = x.data - target
    norm = np.sqrt((diff * diff).sum(axis=(-2, -1)))
    inv_n = 1.0 / float(norm.size)

    def backward_fn(g, need):
        # the mean, the square root (zero where the norm is), then diff * diff,
        # whose two factors get the same term, added
        t = np.broadcast_to(g * inv_n, norm.shape) * 0.5 / np.where(norm > 0, norm, np.inf)
        gd = t[..., None, None] * diff
        return (gd + gd,)

    return Tensor._result(norm.sum() * inv_n, (x,), backward_fn)


def squared_deviation(x, target):
    """(x - target)^2 elementwise, as one node: the focus score; `target` is
    an array.  The rule adds the two factors' equal cotangents, g * diff
    twice, in the order of the walk over diff * diff, so it is bit-equal."""
    diff = x.data - target
    return Tensor._result(diff * diff, (x,), lambda g, need: (g * diff + g * diff,))


def mix(p, d, w, sign):
    """p * w + (sign * d) * (1 - w) as one node, for a weight w and a sign
    of +-1: L1 (+) or L2 (-) of the schedule.  In the shared walk d receives
    x from L1 and -x from L2, which cancel exactly."""
    def backward_fn(g, need):
        return g * w, sign * (g * (1.0 - w))

    return Tensor._result(p.data * w + (sign * d.data) * (1.0 - w), (p, d), backward_fn)


# -- parameters ---------------------------------------------------------------


def _cut(shapes):
    """[(path, lo, hi, shape)]: where each (path, shape) of `shapes` lies
    when the arrays are laid end to end in one flat buffer."""
    bounds = np.cumsum([0] + [math.prod(shape) for _, shape in shapes]).tolist()
    return [(k, lo, hi, tuple(shape)) for (k, shape), lo, hi in zip(shapes, bounds, bounds[1:])]


class ParamStore:
    """Named map from parameter path to trainable leaf Tensor.

    The weights lie in one contiguous float64 buffer, `flat`, in path-sorted
    order, and each parameter's `.data` is a view into it.  The gradients lie
    the same way in `grad`, the only place a gradient is stored, and
    `grad_slice` maps each parameter to its view into `grad`.  Loading writes
    into the views and never rebinds them.  The buffers are laid out on first
    use after the last `add`."""

    _LAID_OUT = ("flat", "grad", "grad_slice", "_layout", "_tags")

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def __getattr__(self, name):
        if name not in ParamStore._LAID_OUT:
            raise AttributeError(name)
        self._lay_out()
        return getattr(self, name)

    def add(self, path, data):
        if path in self._params:
            raise ValueError(f"duplicate parameter path {path!r}")
        # built directly, so a model built inside no_grad still trains
        p = Tensor.__new__(Tensor)
        p.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        p.requires_grad, p._parents, p._backward = True, (), None
        self._params[path] = p
        for name in ParamStore._LAID_OUT:
            self.__dict__.pop(name, None)
        return p

    def _lay_out(self):
        """Copy the weights into new flat buffers in path order and point
        each parameter at its slice.  Gradients are zeroed."""
        items = self.items()
        self._layout = _cut([(k, p.data.shape) for k, p in items])
        self.flat = np.concatenate([p.data.ravel() for _, p in items] + [np.empty(0)])
        self.grad = np.zeros_like(self.flat)
        for view, (_, p) in zip(self.views(self.flat).values(), items):
            p.data = view
        self.grad_slice = {p: view for (_, p), view in
                           zip(items, self.views(self.grad).values())}
        self._tags = {}

    def __getitem__(self, path):
        return self._params[path]

    def items(self):
        return sorted(self._params.items())

    def views(self, flat):
        """{path: array}: views into a buffer laid out like `flat`."""
        return {k: flat[lo:hi].reshape(shape) for k, lo, hi, shape in self._layout}

    def tags(self, group):
        """{id(parameter): group(path)}, built once per `group` function."""
        if group not in self._tags:
            self._tags[group] = {id(p): group(k) for k, p in self._params.items()}
        return self._tags[group]

    def snapshot(self):
        return self.views(self.flat.copy())

    def load(self, arrays):
        """Write {path: array} into the weights; raises ShapeMismatch unless
        the paths and shapes are the parameters'."""
        bad = sorted(set(arrays) ^ set(self._params)) or [
            k for k, *_, shape in self._layout if np.shape(arrays[k]) != shape]
        if bad:
            raise ShapeMismatch(f"arrays differ from the parameters at {', '.join(bad)}")
        self.flat[:] = np.concatenate([np.ravel(arrays[k]) for k, *_ in self._layout]
                                      + [np.empty(0)])


class AdamW:
    """Adam with decoupled weight decay, stepping on the store's `grad`.

    Moments are flat buffers laid out like the store's weights, and a step
    is one in-place pass over them: per element the same operations, in the
    same order, as an update parameter by parameter."""

    def __init__(self, store, lr=0.01, weight_decay=1e-5):
        self.store, self.lr, self.weight_decay, self.step_count = store, lr, weight_decay, 0
        self.m, self.v, self._a, self._b = (np.zeros_like(store.flat) for _ in range(4))

    def step(self):
        store, (beta1, beta2) = self.store, ADAM_BETAS
        self.step_count += 1
        t = self.step_count
        w, g, m, v, a, b = store.flat, store.grad, self.m, self.v, self._a, self._b
        w -= np.multiply(w, self.lr * self.weight_decay, out=a)
        m *= beta1
        m += np.multiply(g, 1 - beta1, out=a)
        v *= beta2
        v += np.multiply(np.multiply(g, 1 - beta2, out=a), g, out=a)
        np.multiply(np.divide(m, 1 - beta1 ** t, out=a), self.lr, out=a)   # lr * m-hat
        np.sqrt(np.divide(v, 1 - beta2 ** t, out=b), out=b)              # sqrt(v-hat)
        b += ADAM_EPS
        w -= np.divide(a, b, out=a)


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
