"""Central finite-difference verification of analytic gradients.

``finite_diff_check`` re-evaluates a user-supplied loss builder while
perturbing each parameter element by +/- ``EPS``, and compares the resulting
central-difference slope against the gradient produced by one backward
pass. Callers are responsible for freezing any stochastic draws inside
the loss builder (e.g. by reseeding a generator on every call) so that
the function being differenced is the same function every time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Scaler
from .diffcore import Linear, Parameter, Tensor
from .dyngraph import (
    EmbeddingChain,
    GraphConstruction,
    GraphSequence,
    SupportPattern,
    edge_adjacency,
    edge_logits,
    gate,
    hop_probs,
    keep_pattern,
    logistic_noise,
)
from .errors import ConfigError
from .model import ModelConfig, PredictionHead
from .roadnet import build_asp, hop_distances, structure_group
from .stnet import OutputLayer, diffusion_conv, gtu_conv, spl, tpl
from .trainer import build_model, lane_backward, mae_loss

__all__ = ["GradCheckReport", "finite_diff_check", "max_relative_error"]

EPS = 1e-5  # central-difference step
TOLERANCE = 1e-4  # largest relative error a parameter passes with
FLOOR = 1e-4  # gradient magnitude below which the comparison turns absolute


@dataclass
class GradCheckReport:
    name: str
    max_rel_err: float

    @property
    def passed(self):
        return bool(self.max_rel_err < TOLERANCE)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<32s} max_rel_err={self.max_rel_err:.3e} (tol {TOLERANCE:g})"


def max_relative_error(analytic, numeric):
    """Elementwise |a - n| / max(|a|, |n|, FLOOR), reduced to the maximum.

    The floor turns the comparison absolute for elements below it: a
    central difference of an O(1) function at step 1e-5 carries roundoff
    noise near 1e-10, so demanding relative agreement on 1e-7-sized
    gradient entries would reject correct derivatives. With the floor,
    sub-floor entries must still agree to FLOOR * TOLERANCE absolutely.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), FLOOR)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


def _numeric_grad(build_loss, param):
    # Perturbs param.data itself, index by index: a ravel() of a non-contiguous
    # array would be a copy the loss never reads.
    data = param.data
    grad = np.zeros_like(data)
    for i in np.ndindex(data.shape):
        orig = data[i]
        data[i] = orig + EPS
        f_plus = float(build_loss().data)
        data[i] = orig - EPS
        f_minus = float(build_loss().data)
        data[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * EPS)
    return grad


def finite_diff_check(build_loss, params):
    """Compare analytic and central-difference gradients per parameter.

    ``build_loss`` must take no arguments and return a scalar Tensor built
    from the current values of ``params`` (a list of Parameters, or of
    (name, Parameter) pairs). Returns one GradCheckReport per parameter.
    """
    named = []
    for i, p in enumerate(params):
        if isinstance(p, tuple):
            named.append(p)
        else:
            named.append((p.name or f"param{i}", p))

    for _, p in named:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in named}

    reports = []
    for name, p in named:
        numeric = _numeric_grad(build_loss, p)
        reports.append(GradCheckReport(name, max_relative_error(analytic[name], numeric)))
    return reports


# -- layer-by-layer verification suite -------------------------------------------


def _weighted_sum(*pairs):
    """The probe a check differentiates: sum(out * weights) over (out, weights) pairs, one tape node.

    Each ``out`` is a Tensor and its ``weights`` an array of its shape, which is its gradient.
    """
    for out, weights in pairs:
        if out.shape != weights.shape:
            raise ConfigError(f"gradcheck probe: weights {weights.shape} for an output of shape {out.shape}")
    total = sum((out.data * weights).sum() for out, weights in pairs)

    def bwd(g):
        for out, weights in pairs:
            out._acc(g * weights)

    return Tensor._from_op(total, [out for out, _ in pairs], bwd)


def _check_linear_input_layer(seed):
    rng = np.random.default_rng([seed, 1])
    lin = Linear(1, 8, rng)
    x = Parameter(rng.standard_normal((4, 1)), "x")
    r = rng.standard_normal((4, 8))
    params = [("w", lin.w), ("b", lin.b), ("x", x)]
    return finite_diff_check(lambda: _weighted_sum((lin(x), r)), params)


def _check_gru_step(seed):
    # Two chains run as one node over three window positions (two GRU steps) and a
    # batch of two, with a two-feature window whose gradient is checked too.
    rng = np.random.default_rng([seed, 17])
    chains = [EmbeddingChain(num_nodes=3, embed_dim=3, in_features=2, proj_dim=4, rng=rng) for _ in "ab"]
    window = Parameter(rng.standard_normal((2, 3, 3, 2)), "window")
    r = [rng.standard_normal((3, 2, 3, 3)).swapaxes(0, 1) for _ in chains]

    def loss():
        a, b = chains[0].run(window, chains[1])
        return _weighted_sum((a, r[0]), (b, r[1]))

    params = [("window", window)]
    for label, chain in zip("ab", chains):
        params += [(f"{label}.{k}", p) for k, p in chain.params()]
    return finite_diff_check(loss, params)


def _check_gating(seed):
    rng = np.random.default_rng([seed, 3])
    lin = Linear(4, 4, rng)
    e = Parameter(rng.standard_normal((3, 4)), "e")
    base = Parameter(rng.standard_normal((3, 4)), "base")
    r = rng.standard_normal((3, 4))
    params = [("e", e), ("base", base)] + lin.params()
    return finite_diff_check(lambda: _weighted_sum((gate(e, base, lin), r)), params)


def _check_edge_logits(seed):
    # Through the graph node: the logits only reach the output normalized.
    rng = np.random.default_rng([seed, 4])
    e_st = Parameter(rng.standard_normal((3, 4)), "e_st")
    e_ed = Parameter(rng.standard_normal((3, 4)), "e_ed")
    w = Parameter(rng.standard_normal((8, 1)), "w")
    pattern = SupportPattern(np.ones((1, 3, 3)))
    r = pattern.gather(rng.standard_normal((3, 3)))
    mixing = Tensor(np.ones((3, 1)))
    draws = np.zeros(pattern.nnz), np.ones(pattern.nnz, dtype=bool)  # no noise, nothing thinned

    def build():
        u, v = edge_logits(e_st, e_ed, w)
        return _weighted_sum((edge_adjacency(u, v, mixing, pattern, 1.0, 1.0, draws), r))

    return finite_diff_check(build, [("e_st", e_st), ("e_ed", e_ed), ("w", w)])


def _check_normalize_sigmoid(seed):
    rng = np.random.default_rng([seed, 5])
    u = Parameter(rng.standard_normal((4, 1)), "u")
    v = Parameter(rng.standard_normal((4, 1)), "v")
    pattern = SupportPattern(np.ones((1, 4, 4)))
    r = pattern.gather(rng.standard_normal((4, 4)))
    mixing = Tensor(np.ones((4, 1)))
    draws = np.zeros(pattern.nnz), np.ones(pattern.nnz, dtype=bool)  # no noise, nothing thinned

    def build():
        return _weighted_sum((edge_adjacency(u, v, mixing, pattern, 1.0, 1.0, draws), r))

    return finite_diff_check(build, [("u", u), ("v", v)])


def _chain_masks(n, levels):
    """Nested hop masks of the directed chain 0 -> 1 -> ... -> N-1."""
    net = build_asp([(i, i + 1) for i in range(n - 1)], n)
    return structure_group(hop_distances(net), levels)


def _check_gumbel_path(seed):
    # Soft hop mixing, so the mixing gradient is checked along with u and v.
    rng = np.random.default_rng([seed, 6])
    pattern = SupportPattern(_chain_masks(4, 2))
    u = Parameter(rng.standard_normal((2, 4, 1)), "u")
    v = Parameter(rng.standard_normal((2, 4, 1)), "v")
    mixing = Parameter(rng.uniform(size=(2, 4, 2)), "mixing")
    noise = logistic_noise(rng.uniform(size=(2, pattern.nnz)))
    keep = keep_pattern(rng.uniform(size=(2, pattern.nnz)), 0.7)
    r = pattern.gather(rng.standard_normal((2, 4, 4)))

    def build():
        return _weighted_sum((edge_adjacency(u, v, mixing, pattern, 1.0, 1.0, (noise, keep)), r))

    return finite_diff_check(build, [("u", u), ("v", v), ("mixing", mixing)])


def _check_graph_build(seed):
    # Train-mode build: through the relaxation, the thinning and the soft hop mixing.
    rng = np.random.default_rng([seed, 18])
    cfg = ModelConfig(
        num_nodes=3, t_in=2, embed_dim=2, hop_dim=2, hidden_dim=2, levels=2, gamma=0.6
    )
    block = GraphConstruction(cfg, _chain_masks(3, 2), rng)
    window = Parameter(rng.standard_normal((2, 2, 3, 1)), "window")
    # One (B, N, N) weight per step, as (T, B, N, N), read on the pattern.
    r = block.pattern.gather(rng.standard_normal((2, 2, 3, 3)).swapaxes(0, 1))

    draws = block.draw(np.random.default_rng([seed, 19]), 2)  # frozen: the same every call

    def build():
        seq = block.build(window, "train", draws, hop_mode="soft")
        return _weighted_sum((seq.values, r))

    return finite_diff_check(build, [("window", window)] + block.params())


def _check_hop_selector(seed):
    rng = np.random.default_rng([seed, 7])
    lin1 = Linear(4, 4, rng)
    lin2 = Linear(4, 3, rng)
    e = Parameter(rng.standard_normal((5, 4)), "e_h")
    r = rng.standard_normal((5, 3))
    params = [("e_h", e)] + [(f"l1.{k}", p) for k, p in lin1.params()] + [
        (f"l2.{k}", p) for k, p in lin2.params()
    ]
    return finite_diff_check(lambda: _weighted_sum((hop_probs(e, lin1, lin2), r)), params)


def _check_diffusion_conv(seed):
    rng = np.random.default_rng([seed, 8])
    x = Parameter(rng.standard_normal((5, 4)), "x")
    a = Parameter(rng.uniform(0.1, 1.0, size=(5, 5)), "a")  # positive edge weights
    theta = Parameter(rng.standard_normal((2, 2, 4, 4)) * 0.3, "theta")
    r = rng.standard_normal((5, 4))

    def build():
        return _weighted_sum((diffusion_conv(x, a, theta, 2), r))

    return finite_diff_check(build, [("x", x), ("a", a), ("theta", theta)])


def _check_spl(seed):
    rng = np.random.default_rng([seed, 15])
    x = Parameter(rng.standard_normal((1, 3, 5, 3)), "x")
    # node 1 has no out-edges and node 3 no in-edges: zero degrees on both sides
    support = np.ones((1, 5, 5))
    support[:, 1, :] = 0.0
    support[:, :, 3] = 0.0
    pattern = SupportPattern(support)
    a = Parameter(rng.uniform(0.1, 1.0, size=(1, 3, pattern.nnz)), "a")  # positive edge weights
    theta = Parameter(rng.standard_normal((2, 2, 3, 3)) * 0.4, "theta")
    r = rng.standard_normal((1, 3, 5, 3))
    hops = np.ones((1, 3, 5), dtype=int)

    def build():
        graphs = GraphSequence(a, pattern, hops)
        return _weighted_sum((spl(x, graphs, theta, 2), r))

    return finite_diff_check(build, [("x", x), ("theta", theta), ("a", a)])


def _check_gtu(seed):
    rng = np.random.default_rng([seed, 9])
    x = Parameter(rng.standard_normal((4, 3, 2)), "x")
    lam = Parameter(rng.standard_normal((2, 2, 4)) * 0.5, "lam")
    r = rng.standard_normal((3, 3, 2))
    return finite_diff_check(lambda: _weighted_sum((gtu_conv(x, lam, 2), r)), [("x", x), ("lam", lam)])


def _check_tpl(seed):
    rng = np.random.default_rng([seed, 10])
    x = Parameter(rng.standard_normal((4, 3, 2)), "x")
    lam = Parameter(rng.standard_normal((2, 2, 4)) * 0.5, "lam")
    scale = Parameter(rng.standard_normal(2), "scale")
    shift = Parameter(rng.standard_normal(2), "shift")
    r = rng.standard_normal((3, 3, 2))
    params = [("x", x), ("lam", lam), ("ln_scale", scale), ("ln_shift", shift)]
    return finite_diff_check(lambda: _weighted_sum((tpl(x, lam, 2, scale, shift), r)), params)


def _check_tpl_dropout(seed):
    rng = np.random.default_rng([seed, 16])
    x = Parameter(rng.standard_normal((2, 4, 3, 2)), "x")
    lam = Parameter(rng.standard_normal((2, 2, 4)) * 0.5, "lam")
    scale = Parameter(rng.standard_normal(2), "scale")
    shift = Parameter(rng.standard_normal(2), "shift")
    keep = rng.uniform(size=(2, 3, 3, 2)) >= 0.3
    r = rng.standard_normal((2, 3, 3, 2))
    params = [("x", x), ("lam", lam), ("ln_scale", scale), ("ln_shift", shift)]
    return finite_diff_check(lambda: _weighted_sum((tpl(x, lam, 2, scale, shift, keep, 0.3), r)), params)


def _check_output_layer(seed):
    rng = np.random.default_rng([seed, 11])
    layer = OutputLayer(3, 4, rng)
    x = Parameter(rng.standard_normal((3, 2, 4)), "x")
    r = rng.standard_normal((2, 4))
    params = [("x", x)] + layer.params()
    return finite_diff_check(lambda: _weighted_sum((layer(x), r)), params)


def _check_prediction_head(seed):
    rng = np.random.default_rng([seed, 12])
    head = PredictionHead(8, 2, 1, rng)
    outputs = [Parameter(rng.standard_normal((2, 3, 4)), f"out{i}") for i in range(2)]
    r = rng.standard_normal((2, 2, 3, 1))
    params = [(o.name, o) for o in outputs] + head.params()
    return finite_diff_check(lambda: _weighted_sum((head(outputs), r)), params)


def toy_model(seed=0):
    """4-node chain model small enough for exhaustive finite differencing."""
    cfg = ModelConfig(
        num_nodes=4,
        t_in=6,
        t_out=2,
        embed_dim=4,
        hop_dim=4,
        hidden_dim=8,
        levels=2,
        diff_steps=2,
        kernel_size=2,
        n_blocks=1,
        gamma=0.3,
        dropout_rate=0.1,
    )
    scaler = Scaler(mean=np.full((4, 1), 5.0), std=np.full((4, 1), 2.0))
    return build_model(cfg, edges=[(0, 1), (1, 2), (2, 3)], scaler=scaler, seed=seed)


def _check_end_to_end(seed):
    # The train step's path at B=2: the analytic gradient summed over one-window shards
    # on two lanes, each in its own gradient buffers, against differences of the batch.
    model = toy_model(seed)
    data_rng = np.random.default_rng([seed, 13])
    window = data_rng.normal(5.0, 2.0, size=(2, 6, 4, 1))
    target = data_rng.normal(5.0, 2.0, size=(2, 2, 4, 1))
    draws = model.draw(np.random.default_rng([seed, 14]), 2)  # frozen: the same every call
    std, mean = model.scaler.std, model.scaler.mean

    def loss(part):
        pred = model.forward(window[part], mode="train", hop_mode="soft", draws=draws.rows(part))
        return mae_loss(pred * std + mean, target[part], target.size)

    named = model.parameters()
    for _, p in named:
        p.zero_grad()
    lane_backward(loss, [[slice(0, 1)], [slice(1, 2)]])
    batch = slice(0, 2)
    return [
        GradCheckReport(name, max_relative_error(p.grad, _numeric_grad(lambda: loss(batch), p)))
        for name, p in named
    ]


_SUITE = [
    ("input_layer", _check_linear_input_layer),
    ("gru_step", _check_gru_step),
    ("gating", _check_gating),
    ("edge_logits", _check_edge_logits),
    ("normalize_sigmoid", _check_normalize_sigmoid),
    ("gumbel_path", _check_gumbel_path),
    ("graph_build", _check_graph_build),
    ("hop_selector", _check_hop_selector),
    ("diffusion_conv", _check_diffusion_conv),
    ("spl", _check_spl),
    ("gtu", _check_gtu),
    ("tpl_layernorm", _check_tpl),
    ("tpl_dropout", _check_tpl_dropout),
    ("output_layer", _check_output_layer),
    ("prediction_head", _check_prediction_head),
    ("end_to_end", _check_end_to_end),
]


def run_gradcheck_suite(seed=0, quick=False):
    """Finite-difference reports for every layer and the end-to-end toy model."""
    reports = []
    for label, fn in _SUITE:
        if quick and label == "end_to_end":
            continue
        for rep in fn(seed):
            reports.append(GradCheckReport(f"{label}/{rep.name}", rep.max_rel_err))
    return reports
