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
    "softmax",
    "rsqrt_or_zero_array",
    "sigmoid_array",
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


def _is_basic_index(idx):
    """True for indices made only of ints, slices, Ellipsis and None (no copies, no repeats)."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(
        i is None
        or i is Ellipsis
        or isinstance(i, slice)
        or (isinstance(i, (int, np.integer)) and not isinstance(i, (bool, np.bool_)))
        for i in items
    )


def _consumed(g):
    raise StateError("backward through a tape node that an earlier backward() consumed")


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

    def __sub__(self, other):
        other = _ensure_tensor(other)
        _check_broadcast("sub", self.shape, other.shape)
        a, b = self, other

        def bwd(g):
            if a._track:
                a._acc(_unbroadcast(g, a.shape))
            if b._track:
                b._acc(-_unbroadcast(g, b.shape))

        return Tensor._from_op(a.data - b.data, (a, b), bwd)

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

    def __matmul__(self, other):
        other = _ensure_tensor(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ConfigError("matmul: operands must have at least 2 dimensions")
        if a.shape[-1] != b.shape[-2]:
            raise ConfigError(f"matmul: inner dimensions {a.shape} @ {b.shape} do not match")
        _check_broadcast("matmul", a.shape[:-2], b.shape[:-2])

        def bwd(g):
            if a._track:
                a._acc(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
            if b._track:
                b._acc(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

        return Tensor._from_op(a.data @ b.data, (a, b), bwd)

    # -- shape ops ------------------------------------------------------------

    def __getitem__(self, idx):
        a = self
        out_data = a.data[idx]
        basic = _is_basic_index(idx)

        def bwd(g):
            buf = np.zeros_like(a.data)
            if basic:
                buf[idx] += g  # each element is hit at most once: equals np.add.at bitwise
            else:
                np.add.at(buf, idx, g)
            a._acc(buf)

        return Tensor._from_op(out_data, (a,), bwd)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def bwd(g):
            if axis is None:
                a._acc(np.broadcast_to(g, a.shape).copy())
                return
            gg = g
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            a._acc(np.broadcast_to(gg, a.shape).copy())

        return Tensor._from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.size
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            n = 1
            for i in ax:
                n *= self.shape[i]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities --------------------------------------------

    def sigmoid(self):
        a = self
        out_data = sigmoid_array(a.data)

        def bwd(g):
            a._acc(g * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (a,), bwd)

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)

        def bwd(g):
            a._acc(g * (1.0 - out_data * out_data))

        return Tensor._from_op(out_data, (a,), bwd)

    def log(self):
        a = self

        def bwd(g):
            a._acc(g / a.data)

        return Tensor._from_op(np.log(a.data), (a,), bwd)

    def abs(self):
        a = self

        def bwd(g):
            a._acc(g * np.sign(a.data))

        return Tensor._from_op(np.abs(a.data), (a,), bwd)

    def clamp(self, lo, hi):
        a = self
        inside = (a.data > lo) & (a.data < hi)

        def bwd(g):
            a._acc(g * inside)

        return Tensor._from_op(np.clip(a.data, lo, hi), (a,), bwd)

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
                node._bwd(node.grad)
                node.grad = None
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
    """Logistic function on a plain array, stable for large |x| (forward of ``Tensor.sigmoid``).

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


def softmax(x, axis=-1):
    a = _ensure_tensor(x)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        a._acc(out_data * (g - inner))

    return Tensor._from_op(out_data, (a,), bwd)


def rsqrt_or_zero_array(x):
    """x**-0.5 where x > 0, 0 elsewhere."""
    live = x > 0.0
    return np.where(live, 1.0 / np.sqrt(np.where(live, x, 1.0)), 0.0)


class Linear:
    """Affine map on the last axis: x @ w + b, Glorot-uniform initialized."""

    def __init__(self, in_dim, out_dim, rng):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.w = Parameter(rng.uniform(-limit, limit, size=(in_dim, out_dim)))
        self.b = Parameter(np.zeros(out_dim))
        self.in_dim = in_dim
        self.out_dim = out_dim

    def __call__(self, x):
        x = _ensure_tensor(x)
        if x.shape[-1] != self.in_dim:
            raise ConfigError(
                f"linear: input feature size {x.shape[-1]} does not match weight {self.in_dim}"
            )
        return x @ self.w + self.b

    def params(self):
        return [("w", self.w), ("b", self.b)]
