"""Reverse-mode automatic differentiation over float64 numpy arrays.

A small tape-based engine: each operation returns a new :class:`Tensor`
holding the forward value, references to its parent tensors, and a
closure that maps the output gradient back onto the parents. Calling
``backward()`` on a scalar tensor walks the recorded tape in reverse
topological order and accumulates gradients into every reachable
:class:`Parameter`.

Backward consumes the tape as it walks it. Once a node's closure has run,
the node drops its gradient, closure and parents, so each forward array
and each interior gradient is freed as soon as its last consumer is done.
Only leaf gradients (:class:`Parameter` and tracked leaf tensors) survive
the call, and a second ``backward()`` through a consumed node raises
:class:`StateError`. Gradient arrays are shared, not copied: a node keeps
the first gradient it receives by reference, and later contributions
accumulate out of place, so an array handed to several parents is never
written. Only a :class:`Parameter` accumulates in place, into its own
buffer, or inside a :class:`grad_lane` into that lane's buffer for it, so
backward passes on several threads never write one array.

Everything is computed in 64-bit floats so that central finite
differences with step 1e-5 resolve analytic gradients to relative
errors well below 1e-4. Forward evaluation is bitwise deterministic for
fixed inputs; no operation draws randomness.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ConfigError, StateError

__all__ = [
    "Tensor",
    "Parameter",
    "Linear",
    "no_grad",
    "grad_lane",
    "recording",
    "rsqrt_or_zero_array",
    "sigmoid_array",
    "softmax_array",
    "softmax_grad",
]


class _GradMode(threading.local):
    """Grad mode of the calling thread; every thread starts with recording on."""

    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables tape recording (cheap eval passes) in the calling thread.

    Threads evaluating under ``no_grad`` leave every other thread's mode alone.
    """

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


class _Lane(threading.local):
    """The calling thread's lane buffers, {Parameter: gradient}, or None: accumulate into ``grad``."""

    grads = None


_LANE = _Lane()


class grad_lane:
    """Context manager: in the calling thread, Parameters accumulate gradients into this lane's buffers.

    A Parameter's ``grad`` is one buffer that every backward adds into, so two
    backward passes on two threads would race on it. Inside a lane a Parameter
    adds into ``grads[parameter]`` instead, a buffer made at its first gradient;
    ``merge`` adds them into the parameters' ``grad`` once the lane is done.
    """

    def __init__(self):
        self.grads = {}

    def __enter__(self):
        self._prev = _LANE.grads
        _LANE.grads = self.grads
        return self

    def __exit__(self, *exc):
        _LANE.grads = self._prev
        return False

    def merge(self):
        for p, g in self.grads.items():
            p.grad += g


def recording(parents):
    """True when an op over ``parents`` goes on the tape: grad mode is on and a parent is tracked."""
    return _GRAD_MODE.enabled and any(p._track for p in parents)


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


def _ensure_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(grad.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _consumed(g):
    raise StateError("backward through a tape node that an earlier backward() consumed")


def _take_grad(node):
    """``node``'s gradient, unlinked from it: the backward it is passed to holds the only reference."""
    g, node.grad = node.grad, None
    return g


def _check_broadcast(op, a_shape, b_shape):
    if a_shape == b_shape:
        return a_shape
    try:
        return np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ConfigError(f"{op}: shapes {a_shape} and {b_shape} are not broadcastable") from None


class Tensor:
    """A float64 array plus the tape bookkeeping needed for backward()."""

    __slots__ = ("data", "grad", "_parents", "_bwd", "_track")

    def __init__(self, data):
        self.data = _as_array(data)
        self.grad = None
        self._parents = ()
        self._bwd = None
        self._track = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, bwd):
        out = Tensor(data)
        if recording(parents):
            out._parents = tuple(parents)
            out._bwd = bwd
            out._track = True
        return out

    @staticmethod
    def _from_op_parts(data, parts, parents, bwd):
        """One op with several outputs: a tensor per array of ``parts``, views into ``data``.

        ``bwd`` gets the parts' gradients as its arguments, None for a part that
        no gradient reached, so no zero-filled buffer of the whole is made per
        part. The parts hang from one node that holds ``data`` and runs ``bwd``:
        each part is a consumer of that node, so backward reaches it after every
        part has handed over its gradient, and it has no gradient of its own.
        A single part is that node itself.
        """
        if len(parts) == 1:
            return (Tensor._from_op(parts[0], parents, bwd),)
        grads = [None] * len(parts)
        node = Tensor._from_op(data, parents, lambda _: bwd(*grads))

        def part(i):
            def collect(g):
                grads[i] = g if grads[i] is None else grads[i] + g

            return Tensor._from_op(parts[i], (node,), collect)

        return tuple(part(i) for i in range(len(parts)))

    def _acc(self, g):
        if not self._track:
            return
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, track={self._track})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _ensure_tensor(other)
        _check_broadcast("add", self.shape, other.shape)
        a, b = self, other

        def bwd(g):
            if a._track:
                a._acc(_unbroadcast(g, a.shape))
            if b._track:
                b._acc(_unbroadcast(g, b.shape))

        return Tensor._from_op(a.data + b.data, (a, b), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = _ensure_tensor(other)
        _check_broadcast("mul", self.shape, other.shape)
        a, b = self, other

        def bwd(g):
            if a._track:
                a._acc(_unbroadcast(g * b.data, a.shape))
            if b._track:
                b._acc(_unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(a.data * b.data, (a, b), bwd)

    __rmul__ = __mul__

    # -- backward pass ----------------------------------------------------------

    def backward(self):
        """Populate gradients of every tracked leaf reachable from this scalar.

        Consumes the tape: afterwards every interior node reachable from here
        holds no gradient, closure or parents.
        """
        if self.data.size != 1:
            raise StateError("backward requires a scalar loss tensor")
        if self._bwd is _consumed:
            raise StateError("backward twice: an earlier backward() already consumed this tape")
        if not self._track:
            raise StateError("backward before forward: no gradient tape recorded for this tensor")

        topo = []
        visited = set()
        todo = [(self, False)]
        while todo:
            node, processed = todo.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            todo.append((node, True))
            for p in node._parents:
                if p._track and id(p) not in visited:
                    todo.append((p, False))
        del visited  # one boxed id per node: freed before the closures allocate

        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._bwd is not None:
                # A closure that rebinds its gradient frees the one it was handed.
                node._bwd(_take_grad(node))
                node._bwd = _consumed
                node._parents = ()


class Parameter(Tensor):
    """A learnable tensor with a persistent gradient buffer and a unique name."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data)
        self._track = True
        self.grad = np.zeros_like(self.data)
        self.name = name

    def _acc(self, g):
        lane = _LANE.grads
        if lane is None:
            self.grad += g
            return
        buf = lane.get(self)
        if buf is None:
            buf = lane[self] = np.zeros_like(self.data)
        buf += g

    def zero_grad(self):
        self.grad.fill(0.0)

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


# -- free functions ------------------------------------------------------------


def sigmoid_array(x):
    """Logistic function on a plain array, stable for large |x|.

    With z = exp(-|x|) it is 1 / (1 + z) where x >= 0 and z / (1 + z) elsewhere:
    one divide of the two numerators by the shared denominator. The numerator
    is max(x >= 0, z), as 1.0 or 0.0 against z in [0, 1]: the value of
    ``np.where(x < 0, z, 1.0)`` without a branch per entry on the sign.
    """
    z = np.abs(x, out=np.empty(np.shape(x)))
    np.negative(z, out=z)
    np.exp(z, out=z)
    s = np.greater_equal(x, 0.0, out=np.empty(np.shape(x)))
    np.maximum(s, z, out=s)
    z += 1.0
    s /= z
    return s


def softmax_array(x):
    """Softmax over the last axis of a plain array, shifted by the row maximum."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(y, g):
    """The gradient at the input of a last-axis softmax whose output is ``y`` and output gradient ``g``."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def rsqrt_or_zero_array(x):
    """x**-0.5 where x > 0, 0 elsewhere."""
    live = x > 0.0
    return np.where(live, 1.0 / np.sqrt(np.where(live, x, 1.0)), 0.0)


class Linear:
    """Affine map on the last axis: x @ w + b, Glorot-uniform initialized.

    A call is one tape node that keeps only its parents. ``apply`` and
    ``acc_grads`` are its forward and parameter gradients over plain arrays,
    for the fused nodes that hold a Linear inside them.
    """

    def __init__(self, in_dim, out_dim, rng):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.w = Parameter(rng.uniform(-limit, limit, size=(in_dim, out_dim)))
        self.b = Parameter(np.zeros(out_dim))
        self.in_dim = in_dim
        self.out_dim = out_dim

    def __call__(self, x):
        x = _ensure_tensor(x)
        w = self.w

        def bwd(g):
            self.acc_grads(x.data, g)
            if x._track:
                x._acc(g @ w.data.T)

        return Tensor._from_op(self.apply(x.data), (x, w, self.b), bwd)

    def apply(self, x):
        """x @ w + b for a plain (..., in_dim) array."""
        if x.shape[-1] != self.in_dim:
            raise ConfigError(
                f"linear: input feature size {x.shape[-1]} does not match weight {self.in_dim}"
            )
        out = x @ self.w.data
        out += self.b.data
        return out

    def acc_grads(self, x, g):
        """Add w's and b's gradients of ``apply(x)``, given its gradient ``g``, summed over the rows."""
        rows = g.reshape(-1, self.out_dim)
        self.b._acc(rows.sum(axis=0))
        self.w._acc(x.reshape(-1, self.in_dim).T @ rows)

    def params(self):
        return [("w", self.w), ("b", self.b)]
