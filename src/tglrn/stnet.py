"""Spatial and temporal processing layers and their block composition.

The spatial layer is a bidirectional diffusion convolution (powers of
the out-degree-normalized adjacency and of the in-degree-normalized
transpose, applied without forming either matrix) followed by a
residual ReLU. The temporal layer is a valid 1-D convolution along time
whose channels split into a tanh/sigmoid gate pair, plus a residual over
the surviving time slices and a LayerNorm over channels. Each block
applies [spatial -> temporal] twice, then taps the block output through
a time-compressing convolution whose kernel spans the remaining time
axis.

Each layer call is one tape node over plain-array kernels. A node keeps
its parents, its output and, for the temporal layer, the per-row
LayerNorm statistics and the dropout keep pattern; its backward
recomputes every other intermediate (Chen et al., arXiv 1604.06174).
The spatial node covers the whole stream and loops over time slices
inside, so no per-slice tensors and no time-stacked copies exist.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import Parameter, Tensor
from .errors import ConfigError

__all__ = [
    "diffusion_conv",
    "spl",
    "gtu_conv",
    "tpl",
    "layer_norm",
    "OutputLayer",
    "SpatioTemporalBlock",
    "block_schedule",
]

LN_EPS = 1e-8
TPL_PER_BLOCK = 2  # temporal convs per block, each shrinking the time axis by Ks - 1


# -- diffusion kernels (plain arrays) ----------------------------------------------


def _check_diffusion(op, x_shape, a_shape, theta_shape, num_steps):
    if theta_shape[0] < num_steps:
        raise ConfigError(f"{op}: theta holds {theta_shape[0]} steps, need {num_steps}")
    if theta_shape[-2] != x_shape[-1]:
        raise ConfigError(f"{op}: theta maps width {theta_shape[-2]}, features have {x_shape[-1]}")
    if tuple(a_shape) != tuple(x_shape[:-1]) + (x_shape[-2],):
        raise ConfigError(f"{op}: adjacency {tuple(a_shape)} does not match features {tuple(x_shape)}")


def _inverse(degree):
    """1 / degree, and 0 where the degree is 0."""
    return np.divide(1.0, degree, out=np.zeros_like(degree), where=degree != 0)


def _degrees(a):
    """The inverse out- and in-degrees of the (..., N, N) adjacency ``a``, as (..., N, 1) columns."""
    out_deg = a.sum(axis=-1, keepdims=True)
    in_deg = np.swapaxes(a, -1, -2).sum(axis=-1, keepdims=True)
    return _inverse(out_deg), _inverse(in_deg)


def _diffuse(x, a, inv_out, inv_in, theta, num_steps):
    """sum_k (P_fwd^k x) theta[k, 0] + (P_rev^k x) theta[k, 1] for k < num_steps.

    ``inv_out`` and ``inv_in`` are ``a``'s inverse degrees, as ``_degrees`` gives them.
    """
    a_rev = np.swapaxes(a, -1, -2)
    z_fwd, z_rev = x, x
    out = x @ theta[0, 0] + x @ theta[0, 1]
    for k in range(1, num_steps):
        z_fwd = (a @ z_fwd) * inv_out
        z_rev = (a_rev @ z_rev) * inv_in
        out += z_fwd @ theta[k, 0]
        out += z_rev @ theta[k, 1]
    return out


def _diffuse_grad(g, x, a, inv_out, inv_in, theta, theta_t, num_steps):
    """(dx, da, dtheta, d_out, d_in) of ``_diffuse`` for output gradient ``g``; recomputes every power.

    ``theta_t`` is ``_transposed(theta)``, made once per layer call. ``da`` is
    the gradient through the products alone; ``d_out`` and ``d_in`` are the
    (..., N) gradients of the out- and in-degrees, which add to every entry of
    a's rows and columns respectively.
    """
    a_rev = np.swapaxes(a, -1, -2)
    # zs[k] = (P_fwd^k x, P_rev^k x); ys[k] the same before the degree scaling.
    zs, ys = [(x, x)], [None]
    for k in range(1, num_steps):
        y_fwd, y_rev = a @ zs[-1][0], a_rev @ zs[-1][1]
        ys.append((y_fwd, y_rev))
        zs.append((y_fwd * inv_out, y_rev * inv_in))

    # Each dtheta entry is z^T g over every leading index: one product of (rows, D) views.
    d = x.shape[-1]
    g_rows = g.reshape(-1, g.shape[-1])
    dtheta = np.zeros_like(theta)
    dtheta[0] = x.reshape(-1, d).T @ g_rows  # both directions: zs[0] is (x, x)
    for k, (z_fwd, z_rev) in enumerate(zs[1:], 1):
        dtheta[k, 0] = z_fwd.reshape(-1, d).T @ g_rows
        dtheta[k, 1] = z_rev.reshape(-1, d).T @ g_rows

    da = np.zeros(a.shape)
    d_out = np.zeros(inv_out.shape[:-1])
    d_in = np.zeros(inv_in.shape[:-1])
    dz_fwd = g @ theta_t[num_steps - 1, 0]
    dz_rev = g @ theta_t[num_steps - 1, 1]
    for k in range(num_steps - 1, 0, -1):
        (y_fwd, y_rev), (z_fwd, z_rev) = ys[k], zs[k - 1]
        dy_fwd = dz_fwd * inv_out
        dy_rev = dz_rev * inv_in
        d_out -= np.einsum("...nd,...nd->...n", dz_fwd, y_fwd)
        d_in -= np.einsum("...nd,...nd->...n", dz_rev, y_rev)
        da += dy_fwd @ np.swapaxes(z_fwd, -1, -2)
        da += z_rev @ np.swapaxes(dy_rev, -1, -2)
        dz_fwd = a_rev @ dy_fwd + g @ theta_t[k - 1, 0]
        dz_rev = a @ dy_rev + g @ theta_t[k - 1, 1]
    # inv = 1 / degree where the degree is nonzero: d degree = -d inv * inv^2.
    d_out *= inv_out[..., 0] ** 2
    d_in *= inv_in[..., 0] ** 2
    return dz_fwd + dz_rev, da, dtheta, d_out, d_in


def _transposed(theta):
    """``theta`` with its last two axes swapped, as one contiguous array: ``_diffuse_grad``'s operand."""
    return np.ascontiguousarray(np.swapaxes(theta, -1, -2))


def diffusion_conv(x, a, theta, num_steps):
    """Graph diffusion filtering of node features.

    ``x`` is (..., N, D), ``a`` is (..., N, N) with the same leading shape
    and non-negative entries, and ``theta`` holds one (D, D') matrix per
    (step k, direction) pair, stored as (K, 2, D, D'). Step k applies the
    k-th power of the forward transition (rows of ``a`` divided by
    out-degree) and of the reverse transition (rows of the transpose
    divided by in-degree); rows with zero degree give zero transition rows
    rather than NaNs.

    The transitions are never formed: P_fwd @ z is (a @ z) scaled per row
    by 1/out-degree, and P_rev @ z is (a^T @ z) scaled by 1/in-degree. One
    tape node; its backward recomputes the powers.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    x = x if isinstance(x, Tensor) else Tensor(x)
    _check_diffusion("diffusion_conv", x.shape, a.shape, theta.shape, num_steps)
    out = _diffuse(x.data, a.data, *_degrees(a.data), theta.data, num_steps)

    def bwd(g):
        inv = _degrees(a.data)
        dx, da, dtheta, d_out, d_in = _diffuse_grad(
            g, x.data, a.data, *inv, theta.data, _transposed(theta.data), num_steps
        )
        da += d_out[..., :, None]
        da += d_in[..., None, :]
        x._acc(dx)
        a._acc(da)
        theta._acc(dtheta)

    return Tensor._from_op(out, (x, a, theta), bwd)


def spl(x, graphs, theta, num_steps):
    """Spatial processing of a stream: ReLU(diffusion_conv(x_t, A_t) + x_t) for every step t.

    ``x`` is (B, T, N, D); ``graphs`` is a ``GraphSequence`` whose (B, T_in,
    nnz) ``values`` hold the adjacency weights on its ``pattern``. The stream
    is end-aligned with the window, because every temporal conv before this
    layer is valid and keeps the last steps: slice j uses graph step
    T_in - T + j. The residual needs D == D'. One tape node whose parents are
    ``x``, ``theta`` and the values: each slice's weights are written into
    one reused dense (B, N, N) scratch, whose entries off the pattern stay 0,
    because dense products beat products on the pattern at every measured
    shape. Every slice's inverse degrees come at once from sums of the
    values on the pattern, not from dense rows and columns. Backward
    recomputes the degrees and the diffusion powers, gathers each slice's
    adjacency gradient back onto the pattern, and adds the degree terms
    there, row i's and column j's to pair (i, j).
    """
    if theta.shape[-2] != theta.shape[-1]:
        raise ConfigError(
            f"spl: residual needs equal in/out widths, theta maps {theta.shape[-2]} -> {theta.shape[-1]}"
        )
    values, pattern = graphs.values, graphs.pattern
    if x.ndim != 4:
        raise ConfigError(f"spl: stream of shape {x.shape}; need (B, T, N, D)")
    b, t_len, n = x.shape[:3]
    if (
        values.ndim != 3
        or values.shape[0] != b
        or values.shape[2] != pattern.nnz
        or pattern.n != n
        or t_len > values.shape[1]
    ):
        raise ConfigError(
            f"spl: graph values {values.shape} on a {pattern.n}-node pattern with {pattern.nnz} "
            f"pairs do not cover the {t_len} steps of a stream of shape {x.shape}"
        )
    _check_diffusion("spl", (b, n, x.shape[3]), (b, n, n), theta.shape, num_steps)
    first = values.shape[1] - t_len

    def dense_steps():
        """(t, the dense adjacency of step first + t) per slice, all in one (B, N, N) scratch."""
        scratch = np.zeros((b, n * n))
        a = scratch.reshape(b, n, n)
        for t in range(t_len):
            scratch[:, pattern.flat] = values.data[:, first + t]
            yield t, a

    def inverse_degrees():
        """The (B, T, N, 1) inverse out- and in-degrees of every slice, from sums on the pattern."""
        return tuple(_inverse(deg)[..., None] for deg in pattern.degrees(values.data[:, first:]))

    inv_out, inv_in = inverse_degrees()
    out = np.empty(x.shape)
    for t, a in dense_steps():
        pre = _diffuse(x.data[:, t], a, inv_out[:, t], inv_in[:, t], theta.data, num_steps)
        pre += x.data[:, t]
        np.maximum(pre, 0.0, out=out[:, t])
    del inv_out, inv_in

    def bwd(g):
        g = g * (out > 0)
        inv_out, inv_in = inverse_degrees()
        theta_t = _transposed(theta.data)
        dtheta = np.zeros_like(theta.data)
        dvalues = np.zeros(values.shape)
        d_out = np.empty((b, t_len, n))
        d_in = np.empty((b, t_len, n))
        for t, a in dense_steps():
            dx_t, da, dth, d_out[:, t], d_in[:, t] = _diffuse_grad(
                g[:, t], x.data[:, t], a, inv_out[:, t], inv_in[:, t], theta.data, theta_t, num_steps
            )
            dx_t += g[:, t]
            g[:, t] = dx_t  # slice t of g is spent: it now holds slice t of dx
            dvalues[:, first + t] = pattern.gather(da)
            dtheta += dth
        # The degree terms, on the pattern: pair (i, j) gets row i's and column j's.
        dvalues[:, first:] += d_out[..., pattern.rows]
        dvalues[:, first:] += d_in[..., pattern.cols]
        x._acc(g)
        theta._acc(dtheta)
        values._acc(dvalues)

    return Tensor._from_op(out, (x, theta, values), bwd)


# -- temporal kernels (plain arrays) -------------------------------------------------


def _check_temporal(op, x_shape, kernel_shape, ks):
    if x_shape[-3] < ks:
        raise ConfigError(f"{op}: time length {x_shape[-3]} shorter than kernel {ks}")
    if kernel_shape[0] != ks:
        raise ConfigError(f"{op}: kernel has width {kernel_shape[0]}, expected {ks}")


def _rows(v):
    """(..., T, N, C) as (..., T*N, C): a view for the contiguous streams the layers make."""
    return v.reshape(v.shape[:-3] + (-1, v.shape[-1]))


def _conv(x, kernel, ks):
    """Valid convolution along axis -3: sum_s x[..., s:s+T', :, :] @ kernel[s], shaped (..., T', N, C).

    Accumulates one shift at a time, so no (..., T', N, Ks*D) window copy exists.
    """
    t_out = x.shape[-3] - ks + 1
    acc = _rows(x[..., 0:t_out, :, :]) @ kernel[0]
    for s in range(1, ks):
        acc += _rows(x[..., s : s + t_out, :, :]) @ kernel[s]
    return acc.reshape(x.shape[:-3] + (t_out, x.shape[-2], kernel.shape[-1]))


def _conv_grad(douts, x, kernel, ks, dx):
    """dkernel of ``_conv``, given the output gradient as consecutive channel blocks ``douts``.

    Also adds the input gradient into ``dx``.
    """
    dkernel = np.empty_like(kernel)
    # dx is added to one (T, N, D) block per leading index: contiguous memory, where
    # numpy needs no iteration buffers.
    dx_blocks = dx.reshape((-1,) + dx.shape[-3:])
    lo = 0
    for dout in douts:
        hi = lo + dout.shape[-1]
        t_out = dout.shape[-3]
        rows = _rows(dout)
        lead = tuple(range(rows.ndim - 2))
        for s in range(ks):
            window = x[..., s : s + t_out, :, :]
            # window_rows^T @ rows summed over the leading axes: the window is not copied
            dkernel[s, :, lo:hi] = (np.swapaxes(_rows(window), -1, -2) @ rows).sum(axis=lead)
            part = (rows @ kernel[s, :, lo:hi].T).reshape((-1, t_out) + dx.shape[-2:])
            for block, add in zip(dx_blocks, part):
                block[s : s + t_out] += add
        lo = hi
    return dkernel


def _gates(x, kernel, ks):
    """tanh and sigmoid of the conv's first and last D output channels, as two arrays."""
    d = kernel.shape[-1] // 2
    sg = dc.sigmoid_array(_conv(x, kernel[..., d:], ks))
    th = _conv(x, kernel[..., :d], ks)
    np.tanh(th, out=th)
    return th, sg


def _glu_grad(g, th, sg):
    """Gradients of th * sg with respect to the two conv halves, written over ``th`` and ``sg``."""
    dv = g * th
    dv *= sg
    th *= th
    np.subtract(1.0, th, out=th)
    th *= sg
    th *= g
    np.subtract(1.0, sg, out=sg)
    sg *= dv
    return th, sg


def gtu_conv(x, kernel, ks):
    """Gated temporal convolution along the time axis (axis -3).

    ``x`` is (..., T, N, D) and ``kernel`` is (Ks, D, 2D). A valid
    convolution produces 2D channels per surviving time step; the first D
    pass through tanh, the last D through a sigmoid, and the output is
    their product, shaped (..., T - Ks + 1, N, D). One tape node; its
    backward recomputes the convolution.
    """
    _check_temporal("gtu_conv", x.shape, kernel.shape, ks)
    out, sg = _gates(x.data, kernel.data, ks)
    out *= sg

    def bwd(g):
        douts = _glu_grad(g, *_gates(x.data, kernel.data, ks))
        dx = np.zeros(x.shape)
        kernel._acc(_conv_grad(douts, x.data, kernel.data, ks, dx))
        x._acc(dx)

    return Tensor._from_op(out, (x, kernel), bwd)


def layer_norm(x, scale, shift):
    """LayerNorm over the channel axis, then a learnable affine, on plain arrays.

    Returns ``(out, mean, rstd)``; ``mean`` and ``rstd`` are the per-row
    statistics, shaped like ``x`` with a last axis of 1.
    """
    inv_n = 1.0 / x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * inv_n
    centered = x - mean
    rstd = ((centered**2.0).sum(axis=-1, keepdims=True) * inv_n + LN_EPS) ** -0.5
    return centered * rstd * scale + shift, mean, rstd


def tpl(x, kernel, ks, scale, shift, keep=None, rate=0.0):
    """Temporal processing: LayerNorm(gated conv + residual of the last slices), then dropout.

    ``keep`` is None, or the boolean (..., T - Ks + 1, N, D) pattern of an
    inverted dropout with drop probability ``rate``: kept entries are
    scaled by 1 / (1 - rate), the others zeroed. One tape node that keeps
    its parents, its output, the LayerNorm mean and rstd and ``keep``; its
    backward recomputes the convolution and the gate.
    """
    _check_temporal("tpl", x.shape, kernel.shape, ks)
    y, sg = _gates(x.data, kernel.data, ks)
    y *= sg
    del sg
    y += x.data[..., ks - 1 :, :, :]
    out, mean, rstd = layer_norm(y, scale.data, shift.data)
    if keep is not None:
        if keep.shape != out.shape:
            raise ConfigError(f"tpl: dropout pattern {keep.shape} does not match output {out.shape}")
        out *= keep
        out *= 1.0 / (1.0 - rate)

    def bwd(g):
        # Buffers are reused in place: backward holds at most about four output-sized arrays.
        th, sg = _gates(x.data, kernel.data, ks)
        normed = th * sg
        normed += x.data[..., ks - 1 :, :, :]
        normed -= mean
        normed *= rstd
        if keep is not None:
            g = np.where(keep, g, 0.0)
            g *= 1.0 / (1.0 - rate)
        width = g.shape[-1]
        shift._acc(g.sum(axis=tuple(range(g.ndim - 1))))
        scale._acc(np.einsum("rd,rd->d", g.reshape(-1, width), normed.reshape(-1, width)))
        # Through normed = (y - mean) * rstd, with mean and rstd functions of y.
        dy = np.multiply(g, scale.data, out=None if keep is None else g)
        del g
        dot = np.einsum("rd,rd->r", dy.reshape(-1, width), normed.reshape(-1, width))
        normed *= dot.reshape(mean.shape) * (1.0 / width)
        dy -= normed
        dy *= rstd
        del normed
        dy -= dy.mean(axis=-1, keepdims=True)
        douts = _glu_grad(dy, th, sg)
        del th, sg
        dx = np.zeros(x.shape)
        dx[..., ks - 1 :, :, :] = dy
        del dy
        kernel._acc(_conv_grad(douts, x.data, kernel.data, ks, dx))
        x._acc(dx)

    return Tensor._from_op(out, (x, kernel, scale, shift), bwd)


class OutputLayer:
    """Compress the whole remaining time axis with a full-width temporal kernel."""

    def __init__(self, t_in, width, rng):
        limit = np.sqrt(6.0 / (width + width)) / max(1, t_in)
        self.kernel = Parameter(rng.uniform(-limit, limit, size=(t_in, width, width)))
        self.bias = Parameter(np.zeros(width))
        self.t_in = t_in

    def __call__(self, x):
        """(..., T, N, D) to (..., N, D'): one contraction over (time, channel), plus the bias."""
        if x.shape[-3] != self.t_in:
            raise ConfigError(f"output layer: time length {x.shape[-3]} != kernel span {self.t_in}")
        kernel, bias = self.kernel, self.bias
        out = np.tensordot(x.data, kernel.data, axes=([-3, -1], [0, 1]))
        out += bias.data

        def bwd(g):
            lead = tuple(range(g.ndim - 1))
            bias._acc(g.sum(axis=lead))
            kernel._acc(np.tensordot(x.data, g, axes=(lead[:-1] + (x.ndim - 2,), lead)))
            x._acc(g[..., None, :, :] @ np.swapaxes(kernel.data, -1, -2))

        return Tensor._from_op(out, (x, kernel, bias), bwd)

    def params(self):
        return [("kernel", self.kernel), ("bias", self.bias)]


def block_schedule(t_in, n_blocks, ks):
    """Stream lengths left after each block, lazily; raises at once if a temporal conv underflows.

    Every temporal conv shrinks the time axis by Ks - 1, so conv k (from 0)
    sees t_in - k * (Ks - 1) steps and the last conv sees the fewest. The
    check is closed-form: its cost does not grow with the counts.
    """
    shrink = ks - 1
    if n_blocks > 0 and t_in - (n_blocks * TPL_PER_BLOCK - 1) * shrink < ks:
        k = 0 if t_in < ks else (t_in - ks) // shrink + 1
        raise ConfigError(
            f"temporal schedule underflow: block {k // TPL_PER_BLOCK} sees time length "
            f"{t_in - k * shrink} < kernel {ks} (t_in={t_in}, n_blocks={n_blocks}, ks={ks})"
        )
    return (t_in - (b + 1) * TPL_PER_BLOCK * shrink for b in range(n_blocks))


class SpatioTemporalBlock:
    """[spatial -> temporal] twice, then a block output tap.

    Each temporal conv is valid and keeps the last steps, so the stream
    stays end-aligned with the window: slice j of a length-T stream covers
    window positions up to T_in - T + j, and ``spl`` uses that step's graph.
    """

    def __init__(self, width, diff_steps, ks, t_out, rng):
        """``t_out`` is the stream length the block leaves, as ``block_schedule`` gives it."""
        self.diff_steps = diff_steps
        self.ks = ks
        shape = (diff_steps, 2, width, width)
        limit = np.sqrt(6.0 / (2 * width)) / (2 * diff_steps)
        self.thetas = [Parameter(rng.uniform(-limit, limit, size=shape)) for _ in range(TPL_PER_BLOCK)]
        klim = np.sqrt(6.0 / (3 * width)) / ks
        self.lams = [
            Parameter(rng.uniform(-klim, klim, size=(ks, width, 2 * width))) for _ in range(TPL_PER_BLOCK)
        ]
        self.ln_scales = [Parameter(np.ones(width)) for _ in range(TPL_PER_BLOCK)]
        self.ln_shifts = [Parameter(np.zeros(width)) for _ in range(TPL_PER_BLOCK)]
        self.output = OutputLayer(t_out, width, rng)

    def forward(self, stream, graphs, keeps=None, rate=0.0):
        """Returns (next stream, block output).

        ``graphs`` is the window's ``GraphSequence``. ``keeps`` is None at
        eval, or one inverted-dropout keep pattern per temporal conv, each
        shaped like that conv's output (None where nothing is dropped), for
        the drop probability ``rate``.
        """
        layers = zip(self.thetas, self.lams, self.ln_scales, self.ln_shifts, keeps or (None,) * TPL_PER_BLOCK)
        for theta, lam, scale, shift, keep in layers:
            stream = spl(stream, graphs, theta, self.diff_steps)
            stream = tpl(stream, lam, self.ks, scale, shift, keep, rate)
        return stream, self.output(stream)

    def params(self):
        out = [(f"spl{i}.theta", theta) for i, theta in enumerate(self.thetas)]
        for i, (lam, scale, shift) in enumerate(zip(self.lams, self.ln_scales, self.ln_shifts)):
            out += [(f"tpl{i}.kernel", lam), (f"tpl{i}.ln_scale", scale), (f"tpl{i}.ln_shift", shift)]
        out.extend((f"out.{k}", p) for k, p in self.output.params())
        return out
