"""Tensor ops that only the tests' per-op oracles use, as free functions over diffcore tensors.

The model path never calls them, so they are not part of ``diffcore``; each
records an ordinary tape node through ``Tensor._from_op`` and is checked by
finite differences in ``test_diffcore``.
"""

import numpy as np

from tglrn import diffcore as dc
from tglrn.diffcore import Tensor
from tglrn.errors import ConfigError


def neg(x):
    a = dc._ensure_tensor(x)
    return Tensor._from_op(-a.data, (a,), lambda g: a._acc(-g))


def power(x, exponent):
    """x ** exponent for a scalar exponent."""
    if not isinstance(exponent, (int, float)):
        raise ConfigError("power: only scalar exponents are supported")
    a, c = dc._ensure_tensor(x), float(exponent)

    def bwd(g):
        a._acc(g * c * a.data ** (c - 1.0))

    return Tensor._from_op(a.data**c, (a,), bwd)


def div(x, y):
    """x / y with broadcasting; either operand may be a plain number or array."""
    a, b = dc._ensure_tensor(x), dc._ensure_tensor(y)
    dc._check_broadcast("div", a.shape, b.shape)
    out_data = a.data / b.data

    def bwd(g):
        if a._track:
            a._acc(dc._unbroadcast(g / b.data, a.shape))
        if b._track:
            b._acc(dc._unbroadcast(-g * out_data / b.data, b.shape))

    return Tensor._from_op(out_data, (a, b), bwd)


def rsub(c, x):
    """c - x for a plain number or array c."""
    return Tensor(c) - x


def exp(x):
    a = dc._ensure_tensor(x)
    out_data = np.exp(a.data)
    return Tensor._from_op(out_data, (a,), lambda g: a._acc(g * out_data))


def relu(x):
    a = dc._ensure_tensor(x)
    return Tensor._from_op(np.maximum(a.data, 0.0), (a,), lambda g: a._acc(g * (a.data > 0)))


def sqrt(x):
    a = dc._ensure_tensor(x)
    out_data = np.sqrt(a.data)
    return Tensor._from_op(out_data, (a,), lambda g: a._acc(g * 0.5 / out_data))


def transpose(x, axes):
    a, axes = dc._ensure_tensor(x), tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor._from_op(a.data.transpose(axes), (a,), lambda g: a._acc(g.transpose(inv)))


def broadcast_to(x, shape):
    """A copy of x broadcast to ``shape``; the gradient sums back over the broadcast axes."""
    a, shape = dc._ensure_tensor(x), tuple(shape)
    out_data = np.broadcast_to(a.data, shape).copy()
    return Tensor._from_op(out_data, (a,), lambda g: a._acc(dc._unbroadcast(g, a.shape)))


def concat(tensors, axis=-1):
    """np.concatenate along ``axis``; each input's gradient is its slice of the output's."""
    tensors = [dc._ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._acc(g[tuple(idx)])

    return Tensor._from_op(out_data, tuple(tensors), bwd)


def reshape(x, shape):
    """x.data reshaped to ``shape``; the gradient is reshaped back."""
    a = dc._ensure_tensor(x)
    return Tensor._from_op(a.data.reshape(shape), (a,), lambda g: a._acc(g.reshape(a.shape)))


def stack(tensors, axis=0):
    """np.stack of equally shaped tensors along a new ``axis``; each input's gradient is a view."""
    tensors = [dc._ensure_tensor(t) for t in tensors]
    try:
        out_data = np.stack([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ConfigError(f"stack: cannot stack shapes {shapes} on axis {axis}") from None
    ax = axis % out_data.ndim

    def bwd(g):
        lead = (slice(None),) * ax
        for i, t in enumerate(tensors):
            t._acc(g[lead + (i,)])

    return Tensor._from_op(out_data, tuple(tensors), bwd)


def einsum2(subscripts, a, b):
    """Two-operand einsum with exact reverse-mode gradients.

    Restricted to subscripts where no index repeats within an operand and
    every input index appears in the output or in the other operand, which
    makes both gradients expressible as einsums themselves.
    """
    a, b = dc._ensure_tensor(a), dc._ensure_tensor(b)
    try:
        inputs, out_sub = subscripts.split("->")
        sub_a, sub_b = inputs.split(",")
    except ValueError:
        raise ConfigError(f"einsum2: malformed subscripts {subscripts!r}") from None
    for sub in (sub_a, sub_b, out_sub):
        if len(set(sub)) != len(sub):
            raise ConfigError(f"einsum2: repeated index within one operand in {subscripts!r}")
    if not set(sub_a) <= set(sub_b) | set(out_sub) or not set(sub_b) <= set(sub_a) | set(out_sub):
        raise ConfigError(f"einsum2: {subscripts!r} sums an index visible in only one operand")
    if len(sub_a) != a.ndim or len(sub_b) != b.ndim:
        raise ConfigError(f"einsum2: operand ranks do not match {subscripts!r}")

    out_data = np.einsum(subscripts, a.data, b.data)

    def bwd(g):
        if a._track:
            a._acc(np.einsum(f"{out_sub},{sub_b}->{sub_a}", g, b.data))
        if b._track:
            b._acc(np.einsum(f"{sub_a},{out_sub}->{sub_b}", a.data, g))

    return Tensor._from_op(out_data, (a, b), bwd)


def rsqrt_or_zero(x):
    """x**-0.5 where x > 0, 0 (and gradient 0) elsewhere."""
    a = dc._ensure_tensor(x)
    out_data = dc.rsqrt_or_zero_array(a.data)

    def bwd(g):
        a._acc(-0.5 * g * out_data**3)

    return Tensor._from_op(out_data, (a,), bwd)


def safe_recip(x):
    """1/x where x is nonzero, 0 where x is exactly zero."""
    a = dc._ensure_tensor(x)
    out_data = np.divide(1.0, a.data, out=np.zeros_like(a.data), where=a.data != 0)

    def bwd(g):
        a._acc(-g * out_data * out_data)

    return Tensor._from_op(out_data, (a,), bwd)
