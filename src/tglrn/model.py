"""End-to-end model: graph construction, stacked blocks, prediction head.

The forward pass z-scores the raw input window, builds one weighted
adjacency per input step, lifts features through the input layer, runs
the spatio-temporal blocks over the shrinking stream, and maps the
channel concatenation of the per-block outputs to all horizons at once
through the prediction head. Predictions come back in normalized space;
``predict_raw`` undoes the scaling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import diffcore as dc
from .diffcore import Linear, Parameter, Tensor
from .dyngraph import GraphConstruction
from .errors import ConfigError
from .stnet import TPL_PER_BLOCK, SpatioTemporalBlock, block_schedule

__all__ = ["ModelConfig", "PredictionHead", "StepDraws", "TGLRN"]


def _physical_memory():
    """Bytes of physical memory, or numpy's largest array size where unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return int(np.iinfo(np.intp).max)


@dataclass
class ModelConfig:
    """Shape hyperparameters of one model instance."""

    num_nodes: int  # N, sensor count
    t_in: int = 12  # input window length in 5-minute steps
    t_out: int = 12  # forecast horizon count
    in_features: int = 1  # features per sensor and step
    embed_dim: int = 16  # d, edge-embedding width (tuned in {4,8,16,32,64})
    hop_dim: int = 16  # m, hop-selector embedding width
    hidden_dim: int = 64  # D, block channel width
    levels: int = 5  # L, hop radii available (tuned in {5,7,10,15})
    diff_steps: int = 2  # K, diffusion steps
    kernel_size: int = 2  # Ks, temporal kernel width
    n_blocks: int = 3  # spatio-temporal block count
    gamma: float = 0.3  # edge keep probability during training (tuned in {0.05,0.1,0.2,0.3})
    alpha: float = 1.0  # target std of normalized edge logits
    tau: float = 1.0  # relaxation temperature
    dropout_rate: float = 0.1  # dropout after each temporal layer (tuned in {0.05..0.2})

    def check_fields(self):
        """Range checks that each field passes or fails on its own."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 1:
                raise ConfigError(f"{f.name} must be at least 1, got {value}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if not 0.0 < self.tau < float("inf"):
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 < self.alpha < float("inf"):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")

    def validate(self):
        """``check_fields`` plus the checks that tie fields together."""
        self.check_fields()
        if self.in_features >= self.hidden_dim:
            raise ConfigError(
                f"input layer must lift features: hidden_dim {self.hidden_dim} "
                f"must exceed in_features {self.in_features}"
            )
        block_schedule(self.t_in, self.n_blocks, self.kernel_size)  # checks at once, builds nothing
        # numpy sizes every array in intp bytes; a larger one raises only once the
        # model is built, after the run has started.
        limit = int(np.iinfo(np.intp).max)
        rows = self.param_bytes()
        for name, largest, _ in rows:
            if largest > limit:
                raise ConfigError(
                    f"parameter {name} would need {largest} bytes; numpy sizes arrays up to {limit}"
                )
        # A total the machine cannot hold would only fail, or loop for hours in
        # structure_group, once set-up runs; the (L, N, N) hop masks count too.
        limit = min(limit, _physical_memory())
        total = sum(every for _, _, every in rows) + 8 * self.levels * self.num_nodes**2
        if total > limit:
            raise ConfigError(
                f"parameters would need {total} bytes with the hop masks, over the {limit} "
                f"that fit (the smaller of physical memory and numpy's largest array)"
            )

    def param_bytes(self):
        """(name, bytes of the largest array, bytes of all) per parameter, in Python ints.

        Closed form: its cost does not grow with the sizes. A ``block*`` row
        covers the parameter in all ``n_blocks`` blocks; the output kernel of
        block b spans t_in - TPL_PER_BLOCK (b + 1) (Ks - 1) steps, so block 0's is the largest.
        """
        n, t, f, d, m = self.num_nodes, self.t_in, self.in_features, self.embed_dim, self.hop_dim
        w, nb, shrink = self.hidden_dim, self.n_blocks, self.kernel_size - 1

        def row(name, shape, copies=1):
            one = 8 * math.prod(shape)
            return (name, one, one * copies)

        def linear(name, i, o):
            return [row(f"{name}.w", (i, o)), row(f"{name}.b", (o,))]

        def chain(name, e):
            rows = [row(f"graph.{name}.e_init", (n, e))] + linear(f"graph.{name}.gru.proj", f, w)
            for gate in ("f_z", "f_r", "g"):
                rows += linear(f"graph.{name}.gru.{gate}", e + w, e)
            return rows

        rows = chain("chain_st", d) + chain("chain_ed", d) + chain("chain_h", m)
        rows += [row("graph.base_st", (t, n, d)), row("graph.base_ed", (t, n, d))]
        rows += linear("graph.gate_st", d, d) + linear("graph.gate_ed", d, d)
        rows.append(row("graph.edge_w", (2 * d, 1)))
        rows += linear("graph.hop_l1", m, m) + linear("graph.hop_l2", m, self.levels)
        rows += linear("input", f, w)
        layers = range(TPL_PER_BLOCK)
        rows += [row(f"block*.spl{i}.theta", (self.diff_steps, 2, w, w), nb) for i in layers]
        for i in layers:
            rows.append(row(f"block*.tpl{i}.kernel", (self.kernel_size, w, 2 * w), nb))
            rows += [row(f"block*.tpl{i}.ln_{k}", (w,), nb) for k in ("scale", "shift")]
        # Output-kernel time steps, block 0's and over all blocks: block_schedule's lengths, summed.
        first = t - TPL_PER_BLOCK * shrink
        spans = nb * t - TPL_PER_BLOCK * shrink * nb * (nb + 1) // 2
        rows.append(("block*.out.kernel", 8 * first * w * w, 8 * spans * w * w))
        rows.append(row("block*.out.bias", (w,), nb))
        rows += [row("head.w", (nb * w, self.t_out, f)), row("head.b", (self.t_out, f))]
        return rows


class PredictionHead:
    """Block outputs to every horizon at once: one tape node over the list of outputs."""

    def __init__(self, width, t_out, features, rng):
        """``width`` is the channel count of all block outputs together."""
        limit = np.sqrt(6.0 / (width + t_out * features))
        self.w = Parameter(rng.uniform(-limit, limit, size=(width, t_out, features)))
        self.b = Parameter(np.zeros((t_out, features)))

    def __call__(self, outputs):
        """(B, N, D) block outputs to (B, T_out, N, F): their channel concatenation @ w, plus b."""
        w, b = self.w, self.b
        # (B, N, n_blocks, D) is laid out as the channel concatenation (B, N, n_blocks * D).
        stacked = np.stack([o.data for o in outputs], axis=-2)
        feats = stacked.reshape(stacked.shape[:2] + (-1,))
        out = np.einsum("bic,ctf->btif", feats, w.data)
        out += b.data[:, None, :]

        def bwd(g):
            b._acc(g.sum(axis=(0, 2)))
            w._acc(np.einsum("bic,btif->ctf", feats, g))
            dfeats = np.einsum("btif,ctf->bic", g, w.data).reshape(stacked.shape)
            for i, o in enumerate(outputs):
                o._acc(dfeats[:, :, i])

        return Tensor._from_op(out, (*outputs, w, b), bwd)

    def params(self):
        return [("w", self.w), ("b", self.b)]


@dataclass
class StepDraws:
    """Every random draw of one train step; row i of each array belongs to window i."""

    graph: tuple  # GraphConstruction.draw's (noise, keep, uniforms)
    dropout: list  # per temporal conv, block by block: boolean keep pattern, or None at rate 0

    def rows(self, part):
        """The draws of the windows ``part`` (a slice) selects."""
        return StepDraws(
            tuple(x[part] for x in self.graph), [None if k is None else k[part] for k in self.dropout]
        )


class TGLRN:
    """Traffic forecaster over learned per-step graphs."""

    def __init__(self, cfg, masks, scaler, rng):
        """``cfg`` must have passed ``validate``, as ``trainer.build_model`` ensures.

        ``masks`` holds the nested (levels, N, N) hop masks from ``roadnet.structure_group``.
        """
        want = (cfg.levels, cfg.num_nodes, cfg.num_nodes)
        if masks.shape != want:
            raise ConfigError(f"hop masks have shape {masks.shape}, config wants {want}")
        self.cfg = cfg
        self.scaler = scaler
        self.graph_block = GraphConstruction(cfg, masks, rng)
        self.input_layer = Linear(cfg.in_features, cfg.hidden_dim, rng)
        lengths = block_schedule(cfg.t_in, cfg.n_blocks, cfg.kernel_size)
        self.blocks = [
            SpatioTemporalBlock(cfg.hidden_dim, cfg.diff_steps, cfg.kernel_size, t, rng) for t in lengths
        ]
        self.head = PredictionHead(cfg.n_blocks * cfg.hidden_dim, cfg.t_out, cfg.in_features, rng)
        self._named = self._collect_params()

    def _collect_params(self):
        named = [("graph." + k, p) for k, p in self.graph_block.params()]
        named.extend(("input." + k, p) for k, p in self.input_layer.params())
        for i, block in enumerate(self.blocks):
            named.extend((f"block{i}.{k}", p) for k, p in block.params())
        named.extend(("head." + k, p) for k, p in self.head.params())
        seen = set()
        for name, p in named:
            if name in seen:
                raise ConfigError(f"duplicate parameter name {name}")
            seen.add(name)
            p.name = name
        return named

    def parameters(self):
        """Ordered (name, Parameter) pairs; names are unique paths."""
        return list(self._named)

    def draw(self, rng, batch):
        """Every random draw of a train step over ``batch`` windows, up front, in the order
        the step uses them: each graph step's relaxation noise, thinning draw and hop
        uniforms, then each temporal conv's dropout pattern."""
        cfg = self.cfg
        graph = self.graph_block.draw(rng, batch)
        dropout = []
        for k in range(cfg.n_blocks * TPL_PER_BLOCK):
            shape = (batch, cfg.t_in - (k + 1) * (cfg.kernel_size - 1), cfg.num_nodes, cfg.hidden_dim)
            dropout.append(rng.uniform(size=shape) >= cfg.dropout_rate if cfg.dropout_rate > 0.0 else None)
        return StepDraws(graph, dropout)

    def forward(self, window_raw, mode="eval", rng=None, hop_mode="hard", draws=None):
        """Raw input window (B, T_in, N, F) to normalized predictions (B, T_out, N, F).

        Train mode uses ``draws``, these windows' ``StepDraws``, or else draws
        them from ``rng``; eval mode uses neither.
        """
        cfg = self.cfg
        x = np.asarray(window_raw, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != cfg.t_in or x.shape[2] != cfg.num_nodes:
            raise ConfigError(
                f"forward: expected window of shape (B, {cfg.t_in}, {cfg.num_nodes}, {cfg.in_features}), got {x.shape}"
            )
        if mode != "train":
            draws = None
        elif draws is None:
            if rng is None:
                raise ConfigError("train-mode forward requires a random generator or the step's draws")
            draws = self.draw(rng, x.shape[0])
        window = Tensor(self.scaler.apply(x))
        graph_draws = None if draws is None else draws.graph
        seq = self.graph_block.build(window, mode, draws=graph_draws, hop_mode=hop_mode)

        stream = self.input_layer(window)
        outputs = []
        for i, block in enumerate(self.blocks):
            keeps = None if draws is None else draws.dropout[i * TPL_PER_BLOCK : (i + 1) * TPL_PER_BLOCK]
            stream, block_out = block.forward(stream, seq, keeps, cfg.dropout_rate)
            outputs.append(block_out)
        return self.head(outputs)

    def predict_raw(self, window_raw):
        """Eval-mode predictions in original units (no tape)."""
        with dc.no_grad():
            pred = self.forward(window_raw)
        return self.scaler.invert(pred.data)

    def state_arrays(self):
        """Copy of every parameter array, keyed by name."""
        return {name: p.data.copy() for name, p in self._named}

    def load_state_arrays(self, state):
        for name, p in self._named:
            if name not in state:
                raise ConfigError(f"missing parameter {name} in state")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ConfigError(
                    f"parameter {name}: expected shape {p.data.shape}, got {arr.shape}"
                )
            p.data[...] = arr
