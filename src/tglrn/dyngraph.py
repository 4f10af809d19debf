"""Dynamic graph construction: one weighted adjacency per input time step.

Recurrent chains evolve three node-embedding streams backwards through
the input window (start-of-edge, end-of-edge, and hop-selection
embeddings); the chains of one width are one tape node per window. Only
the chains are recurrent: gating by per-step base embeddings, edge
scoring, hop selection and the adjacency itself then run once per window over
(B, T_in, ...) arrays, on random draws made beforehand in step order
(``GraphConstruction.draw``). Per step, the scores are normalized to mean
0 / std alpha, squashed by a sigmoid, relaxed with logistic-Gumbel noise
(training only), randomly thinned with keep probability gamma (training
only), and finally masked so that node i only keeps weights toward nodes
within its selected hop radius.

The hop masks are nested, so every adjacency is zero outside the widest
mask S^L. The adjacencies live only on S^L's index pattern
(``SupportPattern``): the stretch from the two edge projections to the
masked weights is one tape node per window (``edge_adjacency``) whose
output holds the (B, T_in, nnz) weights on the pattern, and whose
backward recomputes the stages it does not store.

Hard decisions (hop argmax) use a straight-through estimator: forward
sees the hard one-hot, backward sees the relaxed softmax gradient.
Below ``build`` the draws are the only train/eval switch: without them
the hop choice and the adjacency record nothing, as evaluation needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Linear, Parameter, Tensor
from .errors import ConfigError

__all__ = [
    "EmbeddingChain",
    "GraphConstruction",
    "GraphSequence",
    "GraphDiagnostics",
    "gate",
    "edge_logits",
    "normalize_logits",
    "bernoulli_means",
    "logistic_noise",
    "gumbel_relax",
    "keep_pattern",
    "edge_sample",
    "SupportPattern",
    "edge_adjacency",
    "hop_probs",
    "select_hops",
]

OMEGA_CLAMP = 1e-6


class EmbeddingChain:
    """A learnable initial embedding evolved backwards through the window by a GRU.

    Each step consumes one flow reading. The update gate z and the reset gate
    r are sigmoids of linear maps over the concatenated [embedding ; projected
    input]; the candidate is a tanh of a linear map over [r * embedding ;
    projected input]; the new embedding is (1 - z) * candidate + z * embedding.

    ``run`` evolves several chains of one width as one tape node per window, one
    recurrence over their weights stacked on a leading axis (Appleyard et al.,
    arXiv 1604.01946). The projection u = x P + b feeds only linear maps, so
    [e ; u] W = e W_e + x (P W_u) + b W_u: every step's input term is one product
    per run, and a step only multiplies the embedding, by W_z and W_r in one
    batched product and then by W_g. When the node is recorded it keeps every
    position's embedding and each step's gates and candidate; backward
    recomputes the rest (Chen et al., arXiv 1604.06174) and adds each
    parameter's gradient, summed over the steps, once.
    """

    def __init__(self, num_nodes, embed_dim, in_features, proj_dim, rng):
        self.e_init = Parameter(rng.standard_normal((num_nodes, embed_dim)))
        self.proj = Linear(in_features, proj_dim, rng)
        self.f_z = Linear(embed_dim + proj_dim, embed_dim, rng)
        self.f_r = Linear(embed_dim + proj_dim, embed_dim, rng)
        self.g = Linear(embed_dim + proj_dim, embed_dim, rng)

    def shapes(self):
        """(N, d), F and the projection width: what chains run together must share."""
        return self.e_init.shape, self.proj.in_dim, self.proj.out_dim

    def run(self, window, *more):
        """The (B, T_in, N, d) embeddings of every window position, in window order.

        Runs this chain and the chains ``more``, which must have its shapes,
        as one node: returns this chain's embeddings alone, or with ``more`` a
        tuple of every chain's, this one first. ``window`` is (B, T_in, N, F);
        position T_in-1 holds the initial embedding, and position j is one
        recurrence step from position j+1 consuming the flow reading at
        position j.
        """
        chains = (self,) + more
        (n, d), f, _ = self.shapes()
        if any(c.shapes() != self.shapes() for c in more):
            raise ConfigError("embedding chain: chains run together must share their shapes")
        if window.ndim != 4 or window.shape[1] < 1 or window.shape[2:] != (n, f):
            raise ConfigError(f"embedding chain: window {window.shape} does not fit N={n}, F={f}")
        b, t_in = window.shape[:2]
        k, rows, steps = len(chains), b * n, t_in - 1
        parents = (window,) + tuple(p for c in chains for _, p in c.params())
        keep = dc.recording(parents)

        # Arrays hold the gates z, r, g in blocks on axis 1, each block (..., B*N, d) rows
        # in window-row order, so every elementwise op runs over whole contiguous blocks.
        w_e, _, m_in, c_in = _stacked_gru(chains)
        inputs = _step_rows(window) @ m_in  # every step's input term: (k, 3, steps * B*N, d)
        inputs += c_in
        inputs = inputs.reshape(k, 3, steps, rows, d)
        w_zr, w_g = w_e[:, :2], w_e[:, 2]
        # Every position's embedding, step-major: each step reads and writes contiguous rows.
        states = np.empty((k, t_in, rows, d))
        e_init = np.stack([c.e_init.data for c in chains])[:, None]
        states[:, -1] = np.broadcast_to(e_init, (k, b, n, d)).reshape(k, rows, d)
        gates = [None] * steps  # step j's (k, 2, B*N, d) [z ; r] and candidate, kept only on the tape
        for j in range(steps - 1, -1, -1):
            e = states[:, j + 1]
            zr = e[:, None] @ w_zr
            zr += inputs[:, :2, j]
            zr = dc.sigmoid_array(zr)
            z, r = zr[:, 0], zr[:, 1]
            cand = (r * e) @ w_g
            cand += inputs[:, 2, j]
            np.tanh(cand, out=cand)
            new = np.subtract(1.0, z, out=states[:, j])
            new *= cand
            new += z * e
            if keep:
                gates[j] = (zr, cand)
        del inputs

        def bwd(*grads):
            w_e, w_u, m_in, _ = _stacked_gru(chains)
            w_zr_t, w_g_t = np.swapaxes(w_e[:, :2], -1, -2), np.swapaxes(w_e[:, 2], -1, -2)
            # The chains' output gradients, step-major like ``states``.
            grad = np.empty((k, t_in, b, n, d))
            for i, g in enumerate(grads):
                grad[i] = 0.0 if g is None else np.swapaxes(g, 0, 1)
            grad = grad.reshape(k, t_in, rows, d)
            d_in = np.empty((k, 3, steps, rows, d))  # each step's dz, dr and dg before the squashing
            re = np.empty((k, steps, rows, d))  # each step's r * e
            for j, (zr, cand) in enumerate(gates):
                # Step j's output gets the node's own gradient plus step j-1's through it.
                g = grad[:, j]
                if j:
                    g += de
                e, z, r = states[:, j + 1], zr[:, 0], zr[:, 1]
                dz, dr, dg = d_in[:, 0, j], d_in[:, 1, j], d_in[:, 2, j]
                dsig = np.subtract(1.0, zr)
                dsig *= zr
                np.subtract(e, cand, out=dz)
                dz *= g
                dz *= dsig[:, 0]
                np.subtract(1.0, z, out=dg)
                dg *= g
                cand2 = np.multiply(cand, cand)
                np.subtract(1.0, cand2, out=cand2)
                dg *= cand2
                dre = dg @ w_g_t
                np.multiply(dre, e, out=dr)
                dr *= dsig[:, 1]
                np.multiply(r, e, out=re[:, j])
                de = g * z
                dre *= r
                de += dre
                de += (d_in[:, :2, j] @ w_zr_t).sum(axis=1)
            g_init = grad[:, -1]
            if steps:
                g_init += de
            d_init = g_init.reshape(k, b, n, d).sum(axis=1)

            # Every parameter's gradient summed over the steps, in one product each.
            d_rows = d_in.reshape(k, 3, -1, d)
            dw_e = np.empty((k, 3, d, d))  # of W_e: e^T dz, e^T dr and (r * e)^T dg
            dw_e[:, :2] = np.swapaxes(states[:, 1:].reshape(k, 1, -1, d), -1, -2) @ d_rows[:, :2]
            dw_e[:, 2] = np.swapaxes(re.reshape(k, -1, d), -1, -2) @ d_rows[:, 2]
            dm = _step_rows(window).T @ d_rows  # (k, 3, F, d): of the input maps M = P W_u
            dc_in = d_rows.sum(axis=2, keepdims=True)  # (k, 3, 1, d): of the input biases c
            proj_w = np.stack([c.proj.w.data for c in chains])[:, None]  # (k, 1, F, H)
            proj_b = np.stack([c.proj.b.data for c in chains])[:, None, :, None]  # (k, 1, H, 1)
            dw = np.concatenate([dw_e, np.swapaxes(proj_w, -1, -2) @ dm + proj_b * dc_in], axis=2)
            d_proj_w = (dm @ np.swapaxes(w_u, -1, -2)).sum(axis=1)
            d_proj_b = (dc_in @ np.swapaxes(w_u, -1, -2)).sum(axis=1)
            for i, c in enumerate(chains):
                c.e_init._acc(d_init[i])
                c.proj.w._acc(d_proj_w[i])
                c.proj.b._acc(d_proj_b[i, 0])
                for q, lin in enumerate((c.f_z, c.f_r, c.g)):
                    lin.w._acc(dw[i, q])
                    lin.b._acc(dc_in[i, q, 0])
            if window._track:
                dx = (d_rows @ np.swapaxes(m_in, -1, -2)).sum(axis=(0, 1))
                dwindow = np.zeros(window.shape)
                dwindow[:, :-1] = np.swapaxes(dx.reshape(steps, b, n, f), 0, 1)
                window._acc(dwindow)

        parts = [np.swapaxes(s.reshape(t_in, b, n, d), 0, 1) for s in states]
        outs = Tensor._from_op_parts(states, parts, parents, bwd)
        return outs if more else outs[0]

    def params(self):
        out = [("e_init", self.e_init)]
        for label in ("proj", "f_z", "f_r", "g"):
            out.extend((f"gru.{label}.{k}", p) for k, p in getattr(self, label).params())
        return out


def _step_rows(window):
    """The (steps * B*N, F) inputs of the recurrence steps, step-major, as its arrays hold them."""
    return np.swapaxes(window.data[:, :-1], 0, 1).reshape(-1, window.shape[-1])


def _stacked_gru(chains):
    """The GRU weights of ``chains``, stacked on a leading axis gate by gate, the projection folded in.

    Returns (W_e, W_u, M, c): the (k, 3, d, d) and (k, 3, H, d) embedding and
    projected-input rows of W_z, W_r and W_g, the (k, 3, F, d) input maps
    M = P W_u and the (k, 3, 1, d) input biases c = b W_u + b_gate.
    """
    d = chains[0].e_init.shape[1]
    w = np.stack([[c.f_z.w.data, c.f_r.w.data, c.g.w.data] for c in chains])
    bias = np.stack([[c.f_z.b.data, c.f_r.b.data, c.g.b.data] for c in chains])[:, :, None]
    w_e, w_u = w[:, :, :d], w[:, :, d:]
    m_in = np.stack([c.proj.w.data for c in chains])[:, None] @ w_u
    c_in = np.stack([c.proj.b.data for c in chains])[:, None, None] @ w_u + bias
    return w_e, w_u, m_in, c_in


def gate(e, e_base, gate_linear):
    """Elementwise gating: embedding * sigmoid(linear(base embedding))."""
    return e * gate_linear(e_base).sigmoid()


def edge_logits(e_st, e_ed, weight):
    """The (..., N, 1) projections u, v of the scores w[i, j] = tanh([e_st_i ; e_ed_j]) @ weight.

    Because tanh acts elementwise and the head is linear, the concatenated
    form splits into w[i, j] = u_i + v_j, so no N^2 concatenation or
    (..., N, N) logit array is ever formed. The head has no bias: one would
    shift every logit of a step alike and cancel under ``normalize_logits``.
    """
    d = e_st.shape[-1]
    return e_st.tanh() @ weight[:d], e_ed.tanh() @ weight[d:]


def normalize_logits(u, v, alpha):
    """Shift/scale the logits w[i, j] = u_i + v_j per step to mean 0 and std alpha over all pairs.

    ``u`` and ``v`` are (..., N) arrays; returns (u_hat, v_hat) with normalized
    w[i, j] = u_hat_i + v_hat_j. The moments over the N^2 pairs have closed
    forms in O(N): mean = mean(u) + mean(v), variance = var(u) + var(v) and
    spread = range(u) + range(v). Degenerate inputs (all pairs identical) map
    to all zeros, so the subsequent sigmoid emits maximally non-committal 0.5
    weights.
    """
    a, e, rstd, scale = _normalize(u, v, alpha)
    c = rstd * scale
    return a * c, e * c


def _normalize(u, v, alpha):
    """normalize_logits' moments: (u - mean(u), v - mean(v), 1/std, alpha * live), per step."""
    a = u - u.mean(axis=-1, keepdims=True)
    e = v - v.mean(axis=-1, keepdims=True)
    var = (a * a).mean(axis=-1, keepdims=True) + (e * e).mean(axis=-1, keepdims=True)
    spread = np.ptp(u, axis=-1, keepdims=True) + np.ptp(v, axis=-1, keepdims=True)
    return a, e, dc.rsqrt_or_zero_array(var), alpha * (spread > 0).astype(np.float64)


def bernoulli_means(w_hat):
    """Sigmoid of normalized logits, clamped away from {0, 1} to keep logits finite."""
    return np.clip(dc.sigmoid_array(w_hat), OMEGA_CLAMP, 1.0 - OMEGA_CLAMP)


def logistic_noise(delta):
    """logit(delta) for uniform draws delta, clipped away from {0, 1}."""
    delta = np.clip(np.asarray(delta, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    return np.log(delta) - np.log1p(-delta)


def gumbel_relax(w_bar, tau, noise):
    """Continuous relaxation of Bernoulli(w_bar) via logistic noise.

    p = sigmoid((logit(w_bar) + noise) / tau) with noise = logistic_noise(U(0, 1)).
    p > 0.5 happens with probability w_bar.
    """
    return dc.sigmoid_array((np.log(w_bar) - np.log(1.0 - w_bar) + noise) * (1.0 / tau))


def keep_pattern(rho, gamma):
    """Edge-thinning decisions for uniform draws rho: True with probability gamma."""
    return np.maximum(np.asarray(rho, dtype=np.float64), 1e-300) <= gamma


def edge_sample(p, keep):
    """Random edge thinning: zero the weights whose ``keep`` entry is False."""
    return p * keep


class SupportPattern:
    """The pairs of the widest hop mask S^L: the only places an adjacency can be nonzero.

    Built once per model from the nested (L, N, N) masks. ``rows``, ``cols``
    and ``flat`` (row * N + col) list S^L's nonzero pairs in row-major order;
    ``first[p]`` is the smallest 0-based radius index whose mask holds pair p,
    so S^l holds it exactly when l >= first[p].
    """

    def __init__(self, masks):
        masks = np.asarray(masks)
        if np.any(masks[:-1] > masks[1:]):
            raise ConfigError("hop masks must be nested: S^1 <= S^2 <= ... <= S^L")
        self.levels, self.n = masks.shape[0], masks.shape[-1]
        self.rows, self.cols = np.nonzero(masks[-1])
        self.flat = self.rows * self.n + self.cols
        self.first = np.argmax(masks[:, self.rows, self.cols] != 0, axis=0)

    @property
    def nnz(self):
        return self.flat.size

    def gather(self, x):
        """The (..., nnz) entries of a (..., N, N) array on the pattern."""
        return x.reshape(x.shape[:-2] + (-1,))[..., self.flat]

    def scatter(self, values):
        """The dense (..., N, N) array that holds (..., nnz) ``values`` on the pattern, 0 elsewhere."""
        out = np.zeros(values.shape[:-1] + (self.n * self.n,))
        out[..., self.flat] = values
        return out.reshape(values.shape[:-1] + (self.n, self.n))

    def degrees(self, values):
        """The (..., N) out- and in-degrees of the adjacencies whose (..., nnz) ``values`` lie on the pattern.

        Each is a segment sum over the pattern in its row-major order: no dense row or column is read.
        """
        shape, flat = values.shape[:-1] + (self.n,), values.reshape(-1, self.nnz)
        return tuple(_slot_sums(flat, ends, self.n).reshape(shape) for ends in (self.rows, self.cols))

    def hop_mask(self, mixing):
        """sum_l mixing[..., i, l] * S^l[i, j] on the pattern, for (..., N, L) radius weights.

        With nested masks the sum over l is the tail sum from ``first`` on; for
        a one-hot ``mixing`` it is exactly 1 inside the chosen radius, 0 outside.
        """
        tail = np.cumsum(mixing[..., ::-1], axis=-1)[..., ::-1]
        return tail[..., self.rows, self.first]

    def hop_mask_grad(self, g):
        """The (M, N, L) gradient of ``hop_mask`` with respect to the mixing, from its (M, nnz) one."""
        tail = _slot_sums(g, self.rows * self.levels + self.first, self.n * self.levels)
        return np.cumsum(tail.reshape(-1, self.n, self.levels), axis=-1)


def _slot_sums(g, slots, width):
    """(M, width) sums of the (M, nnz) array ``g``: entry p of each row adds into ``slots[p]``."""
    m = g.shape[0]
    index = (np.arange(m) * width)[:, None] + slots
    return np.bincount(index.ravel(), weights=g.ravel(), minlength=m * width).reshape(m, width)


def edge_adjacency(u, v, mixing, pattern, alpha, tau, draws=None):
    """The graph steps, from the edge projections to the adjacency weights, as one tape node.

    ``u`` and ``v`` are the (..., N, 1) projections from ``edge_logits`` and
    ``mixing`` the (..., N, L) hop-radius weights; every leading index is
    one graph step. Returns the (..., nnz) values on ``pattern`` of
    ``edge_sample(gumbel_relax(bernoulli_means(w_hat), tau, noise), keep) * mask``,
    where w_hat is ``normalize_logits``' result and mask the hop mask; outside
    the pattern the adjacency is 0 (``SupportPattern.scatter`` forms it).
    ``draws`` is the training pair ``(noise, keep)`` of (..., nnz) arrays on the
    pattern. Without it both the relaxation and the thinning are skipped, as in
    evaluation, and the result is an untracked tensor: evaluation records
    nothing. The training node keeps its parents, ``noise`` and the boolean
    ``keep``: its backward recomputes every other stage, trading compute for
    memory (Chen et al., arXiv 1604.06174).
    """
    lead, n = u.shape[:-2], u.shape[-2]
    u2, v2 = u.data.reshape(-1, n), v.data.reshape(-1, n)
    m = u2.shape[0]
    mix = mixing.data.reshape(m, n, -1)
    rows, cols = pattern.rows, pattern.cols

    u_hat, v_hat = normalize_logits(u2, v2, alpha)
    p = bernoulli_means(u_hat[:, rows] + v_hat[:, cols])
    if draws is None:
        return Tensor((p * pattern.hop_mask(mix)).reshape(lead + (pattern.nnz,)))
    noise, keep = (x.reshape(m, -1) for x in draws)
    p = edge_sample(gumbel_relax(p, tau, noise), keep)
    out = (p * pattern.hop_mask(mix)).reshape(lead + (pattern.nnz,))

    def bwd(g):
        g = g.reshape(m, -1)
        a, e, rstd, scale = _normalize(u2, v2, alpha)
        c = rstd * scale
        w_bar = bernoulli_means((a * c)[:, rows] + (e * c)[:, cols])
        p = gumbel_relax(w_bar, tau, noise)
        mixing._acc(pattern.hop_mask_grad(g * edge_sample(p, keep)).reshape(mixing.shape))
        g = g * pattern.hop_mask(mix)
        g = g * keep * p * (1.0 - p) * (1.0 / tau)
        g = g / w_bar + g / (1.0 - w_bar)
        del p
        # Inside the clamp w_bar is the sigmoid itself; outside it the gradient is zero.
        inside = (w_bar > OMEGA_CLAMP) & (w_bar < 1.0 - OMEGA_CLAMP)
        g = g * inside * w_bar * (1.0 - w_bar)
        # w_hat[i, j] = (a_i + e_j) * c and 1/std depends on a and e too. The gradient of
        # the centered logits is c * g - q * (a_i + e_j); summing it over a row or a
        # column, less the mean, gives u's and v's gradients (a and e each sum to 0).
        dot = (g * (a[:, rows] + e[:, cols])).sum(axis=-1, keepdims=True)
        q = scale * rstd**3 * dot * (1.0 / (n * n))
        total = g.sum(axis=-1, keepdims=True) * (1.0 / n)
        u._acc((c * (_slot_sums(g, rows, n) - total) - q * n * a).reshape(u.shape))
        v._acc((c * (_slot_sums(g, cols, n) - total) - q * n * e).reshape(v.shape))

    return Tensor._from_op(out, (u, v, mixing), bwd)


def hop_probs(e_h, lin1, lin2):
    """Per-node hop-radius distribution: softmax(lin2(tanh(lin1(e_h))))."""
    return dc.softmax(lin2(lin1(e_h).tanh()), axis=-1)


def select_hops(p, tau, uniforms=None, straight_through=True):
    """Choose a hop radius per node; returns (0-based indices, mixing tensor).

    Without ``uniforms`` (evaluation) it takes the plain argmax, ties toward
    the smaller radius, and returns its one-hot mixing untracked. Training
    perturbs log-probabilities with Gumbel noise made from ``uniforms``,
    U(0, 1) draws shaped like ``p``, which samples the categorical exactly;
    the mixing is one straight-through node (hard one-hot forward, backward
    handed to the relaxed softmax) unless ``straight_through`` is False, in
    which case the relaxed softmax itself is returned.
    """
    if uniforms is None:
        h = np.argmax(p.data, axis=-1)
        return h, Tensor(_one_hot(h, p.shape[-1]))
    if np.shape(uniforms) != p.shape:
        raise ConfigError(f"select_hops: uniform draws of shape {np.shape(uniforms)}, need {p.shape}")
    u = np.clip(uniforms, 1e-12, 1.0 - 1e-12)
    gumbel = -np.log(-np.log(u))
    y = dc.softmax((p.clamp(1e-300, 2.0).log() + gumbel) * (1.0 / tau), axis=-1)
    h = np.argmax(y.data, axis=-1)
    if not straight_through:
        return h, y
    return h, Tensor._from_op(_one_hot(h, p.shape[-1]), (y,), lambda g: y._acc(g))


def _one_hot(hop_choices, levels):
    """(..., N, L) one-hot mixing weights of 0-based radius choices, as ``argmax`` gives them."""
    hard = np.zeros(hop_choices.shape + (levels,))
    np.put_along_axis(hard, hop_choices[..., None], 1.0, axis=-1)
    return hard


@dataclass
class GraphSequence:
    """The window's adjacency weights on the support pattern, plus the hop radius chosen per node."""

    values: Tensor  # (B, T_in, nnz) weights in [0, 1] on ``pattern``; 0 off it
    pattern: SupportPattern
    hop_choices: np.ndarray  # (B, T_in, N) of 1-based radii

    @property
    def adjacencies(self):
        """The T_in dense (B, N, N) adjacencies, as untracked tensors, for readers that want them."""
        return [Tensor(self.pattern.scatter(step)) for step in np.swapaxes(self.values.data, 0, 1)]


@dataclass
class GraphDiagnostics:
    """Per-step arrays captured for invariant checks and inspection dumps."""

    prenorm_logits: list  # (B, N, N) normalized pre-sigmoid logits
    omega_bar: list  # (B, N, N) deterministic edge weights after sigmoid
    support_masks: list  # (B, N, N) selected reachability rows in {0, 1}


class GraphConstruction:
    """Everything needed to emit one weighted adjacency per window position."""

    def __init__(self, cfg, masks, rng):
        """Parameters for the ``ModelConfig`` ``cfg`` over the nested (L, N, N) hop ``masks``.

        The GRU input projections are ``hidden_dim`` wide; ``masks`` is kept by reference.
        """
        n, d, m = cfg.num_nodes, cfg.embed_dim, cfg.hop_dim
        self.num_nodes = n
        self.t_in = cfg.t_in
        self.gamma = cfg.gamma
        self.alpha = cfg.alpha
        self.tau = cfg.tau
        self.masks = masks
        self.pattern = SupportPattern(masks)

        self.chain_st = EmbeddingChain(n, d, cfg.in_features, cfg.hidden_dim, rng)
        self.chain_ed = EmbeddingChain(n, d, cfg.in_features, cfg.hidden_dim, rng)
        self.chain_h = EmbeddingChain(n, m, cfg.in_features, cfg.hidden_dim, rng)
        # Chains of one width run as one recurrence: chain_h joins when hop_dim == embed_dim.
        groups = {}
        for chain in (self.chain_st, self.chain_ed, self.chain_h):
            groups.setdefault(chain.shapes(), []).append(chain)
        self.chain_groups = list(groups.values())
        scale = 1.0 / np.sqrt(d)
        self.base_st = Parameter(rng.standard_normal((cfg.t_in, n, d)) * scale)
        self.base_ed = Parameter(rng.standard_normal((cfg.t_in, n, d)) * scale)
        self.gate_st = Linear(d, d, rng)
        self.gate_ed = Linear(d, d, rng)
        limit = np.sqrt(6.0 / (2 * d + 1))
        self.edge_w = Parameter(rng.uniform(-limit, limit, size=(2 * d, 1)))
        self.hop_l1 = Linear(m, m, rng)
        self.hop_l2 = Linear(m, masks.shape[0], rng)

    def draw(self, rng, batch):
        """The graph draws of a train step over ``batch`` windows: (noise, keep, uniforms).

        Each graph step draws delta, then rho, then its hop uniforms, as a
        step-by-step pass does, so every stream stays the same. delta and rho
        are full (B, N, N) draws gathered on the pattern: ``noise`` holds
        logistic_noise(delta) and ``keep`` the thinning decisions, both
        (B, T_in, nnz); ``uniforms`` is (B, T_in, N, L). Row i belongs to window i.
        Each step is written into the preallocated results, and both full draws
        fill one reused (B, N, N) scratch.
        """
        n, pattern, t_in = self.num_nodes, self.pattern, self.t_in
        noise = np.empty((batch, t_in, pattern.nnz))
        keep = np.empty((batch, t_in, pattern.nnz), dtype=bool)
        uniforms = np.empty((batch, t_in, n, pattern.levels))
        full = np.empty((batch, n, n))  # rng.random(out=) draws what rng.uniform(size=) does
        for t in range(t_in):
            noise[:, t] = logistic_noise(pattern.gather(rng.random(out=full)))
            keep[:, t] = keep_pattern(pattern.gather(rng.random(out=full)), self.gamma)
            uniforms[:, t] = rng.uniform(size=(batch, n, pattern.levels))
        return noise, keep, uniforms

    def build(self, window, mode, draws=None, hop_mode="hard", want_diag=False):
        """Compose the per-step pipeline over the whole input window.

        ``mode`` is "train" or "eval". Training relaxes, thins and samples
        hops with ``draws``, the window's rows of ``draw``'s arrays;
        evaluation uses none, and its hop mixing and adjacency record nothing.
        ``hop_mode="soft"`` replaces the straight-through hard hop mask with
        its relaxed value, which makes the full path exactly differentiable
        for gradient checking; "hard" is the default.
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"unknown mode {mode!r}")
        if hop_mode not in ("hard", "soft"):
            raise ConfigError(f"unknown hop_mode {hop_mode!r}: use 'hard' or 'soft'")
        if mode == "train" and draws is None:
            raise ConfigError("train-mode graph construction requires the step's draws")

        embs = {}
        for first, *rest in self.chain_groups:
            outs = first.run(window, *rest)
            embs.update(zip([first, *rest], outs if rest else [outs]))
        emb_st, emb_ed, emb_h = (embs[c] for c in (self.chain_st, self.chain_ed, self.chain_h))
        pattern = self.pattern

        # Only the chains are recurrent: the rest runs once over (B, T_in, ...) arrays.
        e_st = gate(emb_st, self.base_st, self.gate_st)
        e_ed = gate(emb_ed, self.base_ed, self.gate_ed)
        u, v = edge_logits(e_st, e_ed, self.edge_w)
        probs = hop_probs(emb_h, self.hop_l1, self.hop_l2)
        edge_draws, uniforms = (draws[:2], draws[2]) if mode == "train" else (None, None)
        h, mixing = select_hops(probs, self.tau, uniforms, hop_mode == "hard")
        values = edge_adjacency(u, v, mixing, pattern, self.alpha, self.tau, edge_draws)
        seq = GraphSequence(values=values, pattern=pattern, hop_choices=h + 1)
        if not want_diag:
            return seq

        u_hat, v_hat = normalize_logits(u.data[..., 0], v.data[..., 0], self.alpha)
        w_hat = u_hat[..., :, None] + v_hat[..., None, :]
        support = pattern.scatter(pattern.hop_mask(mixing.data))
        steps = [np.swapaxes(x, 0, 1) for x in (w_hat, bernoulli_means(w_hat), support)]
        return seq, GraphDiagnostics(*(list(x) for x in steps))

    def params(self):
        out = []
        parts = "chain_st chain_ed chain_h base_st base_ed gate_st gate_ed edge_w hop_l1 hop_l2"
        for label in parts.split():  # checkpoint order
            part = getattr(self, label)
            if isinstance(part, Parameter):
                out.append((label, part))
            else:
                out.extend((f"{label}.{k}", p) for k, p in part.params())
        return out
