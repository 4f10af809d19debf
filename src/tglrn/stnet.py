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


def diffusion_conv(x, a, theta, num_steps):
    """Graph diffusion filtering of node features.

    ``x`` is (..., N, D), ``a`` is (..., N, N) with non-negative entries,
    and ``theta`` holds one (D, D') matrix per (step k, direction) pair,
    stored as (K, 2, D, D'). Step k applies the k-th power of the forward
    transition (rows of ``a`` divided by out-degree) and of the reverse
    transition (rows of the transpose divided by in-degree); rows with
    zero degree give zero transition rows rather than NaNs.

    The transitions are never formed: P_fwd @ z is (a @ z) scaled per row
    by 1/out-degree, and P_rev @ z is (a^T @ z) scaled by 1/in-degree, so
    only the two degree vectors join ``a`` on the tape.
    """
    if theta.shape[0] < num_steps:
        raise ConfigError(f"diffusion_conv: theta holds {theta.shape[0]} steps, need {num_steps}")
    a = a if isinstance(a, Tensor) else Tensor(a)
    x = x if isinstance(x, Tensor) else Tensor(x)

    a_rev = dc.swap_last2(a)
    inv_out = dc.safe_recip(a.sum(axis=-1, keepdims=True))
    inv_in = dc.safe_recip(a_rev.sum(axis=-1, keepdims=True))

    z_fwd, z_rev = x, x
    out = z_fwd @ theta[0, 0] + z_rev @ theta[0, 1]
    for k in range(1, num_steps):
        z_fwd = (a @ z_fwd) * inv_out
        z_rev = (a_rev @ z_rev) * inv_in
        out = out + z_fwd @ theta[k, 0] + z_rev @ theta[k, 1]
    return out


def spl(x, a, theta, num_steps):
    """Spatial processing: ReLU(diffusion_conv(x) + x); needs D == D'."""
    if theta.shape[-2] != theta.shape[-1]:
        raise ConfigError(
            f"spl: residual needs equal in/out widths, theta maps {theta.shape[-2]} -> {theta.shape[-1]}"
        )
    return (diffusion_conv(x, a, theta, num_steps) + x).relu()


def gtu_conv(x, kernel, ks):
    """Gated temporal convolution along the time axis (axis -3).

    ``x`` is (..., T, N, D) and ``kernel`` is (Ks, D, 2D). A valid
    convolution produces 2D channels per surviving time step; the first D
    pass through tanh, the last D through a sigmoid, and the output is
    their product, shaped (..., T - Ks + 1, N, D).
    """
    t_in = x.shape[-3]
    if t_in < ks:
        raise ConfigError(f"gtu_conv: time length {t_in} shorter than kernel {ks}")
    if kernel.shape[0] != ks:
        raise ConfigError(f"gtu_conv: kernel has width {kernel.shape[0]}, expected {ks}")
    t_out = t_in - ks + 1
    acc = None
    for s in range(ks):
        term = x[..., s : s + t_out, :, :] @ kernel[s]
        acc = term if acc is None else acc + term
    d = x.shape[-1]
    u = acc[..., :d]
    v = acc[..., d:]
    return u.tanh() * v.sigmoid()


def layer_norm(x, scale, shift):
    """Normalize over the channel axis, then apply a learnable affine."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) * ((var + LN_EPS) ** -0.5) * scale + shift


def tpl(x, kernel, ks, scale, shift):
    """Temporal processing: LayerNorm(gated conv + residual of the last slices)."""
    t_in = x.shape[-3]
    gated = gtu_conv(x, kernel, ks)
    residual = x[..., ks - 1 : t_in, :, :]
    return layer_norm(gated + residual, scale, shift)


class OutputLayer:
    """Compress the whole remaining time axis with a full-width temporal kernel."""

    def __init__(self, t_in, width, rng):
        limit = np.sqrt(6.0 / (width + width)) / max(1, t_in)
        self.kernel = Parameter(rng.uniform(-limit, limit, size=(t_in, width, width)))
        self.bias = Parameter(np.zeros(width))
        self.t_in = t_in

    def __call__(self, x):
        if x.shape[-3] != self.t_in:
            raise ConfigError(f"output layer: time length {x.shape[-3]} != kernel span {self.t_in}")
        acc = None
        for s in range(self.t_in):
            term = x[..., s, :, :] @ self.kernel[s]
            acc = term if acc is None else acc + term
        return acc + self.bias

    def params(self):
        return [("kernel", self.kernel), ("bias", self.bias)]


def block_schedule(t_in, n_blocks, ks, tpl_per_block=2):
    """Stream length left after each block; raises if a temporal conv underflows.

    Every temporal conv shrinks the time axis by Ks - 1, so conv k (from 0)
    sees t_in - k * (Ks - 1) steps and the last conv sees the fewest. The
    check is closed-form: its cost does not grow with the counts.
    """
    shrink = ks - 1
    if n_blocks > 0 and t_in - (n_blocks * tpl_per_block - 1) * shrink < ks:
        k = 0 if t_in < ks else (t_in - ks) // shrink + 1
        raise ConfigError(
            f"temporal schedule underflow: block {k // tpl_per_block} sees time length "
            f"{t_in - k * shrink} < kernel {ks} (t_in={t_in}, n_blocks={n_blocks}, ks={ks})"
        )
    return [t_in - (b + 1) * tpl_per_block * shrink for b in range(n_blocks)]


class SpatioTemporalBlock:
    """[spatial -> temporal] twice, then a block output tap.

    Keeps track of the alignment between the shrinking stream and the
    original window positions: the spatial layer at stream index j uses
    the graph of original position offset + j, and each temporal conv
    advances the offset by Ks - 1 (its output at index j covers original
    positions up to offset + j + Ks - 1).
    """

    def __init__(self, width, diff_steps, ks, t_in_block, rng):
        self.width = width
        self.diff_steps = diff_steps
        self.ks = ks
        shape = (diff_steps, 2, width, width)
        limit = np.sqrt(6.0 / (2 * width)) / (2 * diff_steps)
        self.theta1 = Parameter(rng.uniform(-limit, limit, size=shape))
        self.theta2 = Parameter(rng.uniform(-limit, limit, size=shape))
        klim = np.sqrt(6.0 / (3 * width)) / ks
        self.lam1 = Parameter(rng.uniform(-klim, klim, size=(ks, width, 2 * width)))
        self.lam2 = Parameter(rng.uniform(-klim, klim, size=(ks, width, 2 * width)))
        self.ln1_scale = Parameter(np.ones(width))
        self.ln1_shift = Parameter(np.zeros(width))
        self.ln2_scale = Parameter(np.ones(width))
        self.ln2_shift = Parameter(np.zeros(width))
        t_out_block = t_in_block - 2 * (ks - 1)
        if t_out_block < 1:
            raise ConfigError(f"block construction: output time length {t_out_block} < 1")
        self.output = OutputLayer(t_out_block, width, rng)

    def forward(self, stream, graphs, offset, dropout=None):
        """Returns (next stream, block output, next offset).

        ``dropout`` is None at eval, or a (rate, generator) pair; inverted
        dropout masks are drawn after each temporal conv.
        """
        for theta, lam, scale, shift in (
            (self.theta1, self.lam1, self.ln1_scale, self.ln1_shift),
            (self.theta2, self.lam2, self.ln2_scale, self.ln2_shift),
        ):
            t_cur = stream.shape[1]
            slices = []
            for j in range(t_cur):
                slices.append(spl(stream[:, j], graphs[offset + j], theta, self.diff_steps))
            stream = dc.stack(slices, axis=1)
            stream = tpl(stream, lam, self.ks, scale, shift)
            offset += self.ks - 1
            if dropout is not None:
                rate, rng = dropout
                if rate > 0.0:
                    mask = (rng.uniform(size=stream.shape) >= rate) / (1.0 - rate)
                    stream = stream * Tensor(mask)
        return stream, self.output(stream), offset

    def params(self):
        out = [
            ("spl0.theta", self.theta1),
            ("spl1.theta", self.theta2),
            ("tpl0.kernel", self.lam1),
            ("tpl0.ln_scale", self.ln1_scale),
            ("tpl0.ln_shift", self.ln1_shift),
            ("tpl1.kernel", self.lam2),
            ("tpl1.ln_scale", self.ln2_scale),
            ("tpl1.ln_shift", self.ln2_shift),
        ]
        out.extend((f"out.{k}", p) for k, p in self.output.params())
        return out
