"""Outside-in span tracing: wrappers installed around public tglrn functions.

Each wrapped call records one span (layer name, parent span, start, end) in
memory. A span's self time is its duration minus the durations of its
direct children, so the self times of every span under a root add up to the
root's duration exactly. Nothing inside the package changes; the wrappers
are removed again by the function ``install`` returns.
"""

from __future__ import annotations

import time
from collections import defaultdict


def targets():
    """(owner, attribute, layer) for every wrapped entry point."""
    from tglrn import data, diffcore, dyngraph, model, roadnet, stnet, trainer

    return [
        (diffcore.Tensor, "backward", "diffcore.backward"),
        (dyngraph.EmbeddingChain, "run", "dyngraph.chains"),
        (dyngraph, "gate", "dyngraph.edge"),
        (dyngraph, "edge_logits", "dyngraph.edge"),
        (dyngraph, "normalize_logits", "dyngraph.edge"),
        (dyngraph, "bernoulli_means", "dyngraph.edge"),
        (dyngraph, "gumbel_relax", "dyngraph.relax"),
        (dyngraph, "edge_sample", "dyngraph.relax"),
        (dyngraph, "hop_probs", "dyngraph.hop"),
        (dyngraph, "select_hops", "dyngraph.hop"),
        (dyngraph.GraphConstruction, "build", "dyngraph.build"),
        (stnet, "spl", "stnet.spatial"),
        (stnet, "diffusion_conv", "stnet.spatial"),
        (stnet, "tpl", "stnet.temporal"),
        (stnet, "gtu_conv", "stnet.temporal"),
        (stnet, "layer_norm", "stnet.temporal"),
        (stnet.OutputLayer, "__call__", "stnet.output"),
        (stnet.SpatioTemporalBlock, "forward", "stnet.block"),
        (model.TGLRN, "forward", "model.forward"),
        (trainer, "mae_loss", "trainer.loss"),
        (trainer.Adam, "step", "trainer.optimizer"),
        (trainer, "evaluate", "trainer.evaluate"),
        (trainer, "train", "trainer.train"),
        (trainer, "build_model", "trainer.build_model"),
        (trainer, "checkpoint_load", "trainer.checkpoint_load"),
        (roadnet, "load_edges", "data.load"),
        (data, "load_flows", "data.load"),
        (data, "make_windows", "data.windows"),
        (data, "fit_scaler", "data.windows"),
        (roadnet, "build_asp", "roadnet.hops"),
        (roadnet, "hop_distances", "roadnet.hops"),
        (roadnet, "structure_group", "roadnet.hops"),
    ]


class Tracer:
    """In-memory span log; ``spans`` rows are [layer, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def install(self):
        """Wrap every target; returns a function that restores the originals."""
        saved = []
        for owner, attr, layer in targets():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer))

        def restore():
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

        return restore

    def clear(self):
        self.spans.clear()
        self._stack.clear()

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_table(self):
        """layer -> (self seconds, calls); a call is a span whose parent is another layer."""
        own = self.self_times()
        table = defaultdict(lambda: [0.0, 0])
        for (layer, parent, _, _), s in zip(self.spans, own):
            row = table[layer]
            row[0] += s
            if parent < 0 or self.spans[parent][0] != layer:
                row[1] += 1
        return {k: tuple(v) for k, v in table.items()}

    def durations(self, layer, parent_layer=None):
        """Durations of the spans of ``layer``.

        With ``parent_layer`` only spans directly under a span of that layer
        count; ``""`` selects top-level spans.
        """
        out = []
        for name, parent, start, end in self.spans:
            if name != layer:
                continue
            if parent_layer is not None:
                above = self.spans[parent][0] if parent >= 0 else ""
                if above != parent_layer:
                    continue
            out.append(end - start)
        return out

    def train_steps(self):
        """Train-step times: start of a training forward to the end of the next optimizer step."""
        steps, start = [], None
        for name, parent, t0, t1 in self.spans:
            under_train = parent >= 0 and self.spans[parent][0] == "trainer.train"
            if name == "model.forward" and under_train and start is None:
                start = t0
            elif name == "trainer.optimizer" and start is not None:
                steps.append(t1 - start)
                start = None
        return steps

    def dump(self, path):
        import json

        with open(path, "w") as fh:
            json.dump({"columns": ["layer", "parent", "start_s", "end_s"], "spans": self.spans}, fh)
