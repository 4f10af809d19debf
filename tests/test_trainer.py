"""Training loop, metrics, baseline, and checkpoint contracts."""

import json
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, fields, replace

import numpy as np
import pytest
import hypothesis
from hypothesis import given
from hypothesis import strategies as st

from tglrn import data as dmod
from tglrn import dyngraph as dg
from tglrn import model as model_mod
from tglrn import trainer
from tglrn.diffcore import Parameter, Tensor
from tglrn.errors import CheckpointError, ConfigError, DataError, NumericError
from tglrn.model import TGLRN, ModelConfig, PredictionHead
from tglrn.stnet import TPL_PER_BLOCK

from tensor_ops import einsum2, reshape, stack, weighted_sum
from tensor_ops import mae_loss as oracle_mae_loss
from test_acceptance import overfit_setup
from test_stnet import closure_arrays


def quick_setup(seed=0, n=6, t_total=140, t_in=6, t_out=3, noise=0.5, **model_kw):
    synth = dmod.SynthSettings(
        synth_nodes=n, synth_steps=t_total, synth_noise_std=noise, synth_period=48, synth_regime_period=40
    )
    net, series, planted = dmod.synth_generate(synth, seed)
    splits = dmod.make_windows(series, t_in, t_out)
    b1, _ = dmod.split_boundaries(t_total)
    scaler = dmod.fit_scaler(series.values[:b1])
    kwargs = dict(
        num_nodes=n,
        t_in=t_in,
        t_out=t_out,
        embed_dim=4,
        hop_dim=4,
        hidden_dim=8,
        levels=2,
        kernel_size=2,
        n_blocks=1,
        gamma=0.5,
        dropout_rate=0.05,
    )
    kwargs.update(model_kw)
    cfg = ModelConfig(**kwargs)
    model = trainer.build_model(cfg, net.edges, scaler, seed)
    return model, splits, series, planted


def settings(**kw):
    base = dict(learning_rate=0.005, batch_size=32, max_epochs=3, patience=15)
    base.update(kw)
    return trainer.TrainSettings(**base)


class TestMaeLoss:
    def test_equal_inputs_zero(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3)))
        assert trainer.mae_loss(x, x.data).item() == 0.0

    def test_unit_offset(self):
        x = np.random.default_rng(1).standard_normal((4, 2))
        assert trainer.mae_loss(Tensor(x + 1.0), x).item() == pytest.approx(1.0, abs=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 4, 2))
        expected = sum(abs(float(x) - float(y)) for x, y in zip(a.ravel(), b.ravel())) / a.size
        assert trainer.mae_loss(Tensor(a), b).item() == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            trainer.mae_loss(Tensor(np.ones((2, 2))), np.ones((2, 3)))

    @pytest.mark.parametrize(
        "shape, count, match",
        [
            ((0, 3), None, r"empty prediction of shape \(0, 3\)"),
            ((0, 3), 4, r"empty prediction of shape \(0, 3\)"),
            ((2, 3), 0, "count must be positive, got 0"),
            ((2, 3), -2, "count must be positive, got -2"),
        ],
    )
    def test_bad_input_is_data_error(self, shape, count, match):
        with pytest.raises(DataError, match=match):
            trainer.mae_loss(Tensor(np.ones(shape)), np.zeros(shape), count)

    @pytest.mark.parametrize("count", [None, 96])
    def test_one_node_is_bitwise_the_four_node_composition(self, count):
        # As train_step calls it: on the scaled prediction, over the batch's count for a shard.
        rng = np.random.default_rng(3)
        vals, target = rng.standard_normal((2, 3, 4, 1)), rng.normal(5.0, 2.0, (2, 3, 4, 1))
        std, mean = rng.uniform(0.5, 2.0, (4, 1)), rng.normal(5.0, 1.0, (4, 1))
        results = []
        for loss_fn in (trainer.mae_loss, oracle_mae_loss):
            pred = Parameter(vals.copy())
            loss = loss_fn(pred * std + mean, target, count)
            loss.backward()
            results.append((loss.data.tobytes(), pred.grad.tobytes()))
        assert results[0] == results[1]

    def test_node_keeps_only_the_sign(self):
        rng = np.random.default_rng(4)
        pred = rng.standard_normal((2, 3, 4))
        scaled = Parameter(pred) * 2.0
        loss = trainer.mae_loss(scaled, np.zeros_like(pred))
        assert loss._parents == (scaled,)
        kept = [a for a in closure_arrays(loss) if a is not scaled.data]
        assert len(kept) == 1 and kept[0].dtype == np.float64
        np.testing.assert_array_equal(kept[0], np.sign(pred))

    def test_nan_error_reaches_the_gradient_without_a_warning(self):
        pred = Parameter(np.array([1.0, np.nan, -2.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = trainer.mae_loss(pred, np.zeros(4))
            loss.backward()
        assert np.isnan(loss.item())
        np.testing.assert_array_equal(pred.grad, [0.25, np.nan, -0.25, 0.0])


class TestForwardContract:
    def test_output_shape(self):
        model, (train_ds, _, _), _, _ = quick_setup()
        preds = model.predict_raw(train_ds.inputs[:5])
        assert preds.shape == (5, 3, 6, 1)

    def test_all_zero_parameters_emit_bias(self):
        model, (train_ds, _, _), _, _ = quick_setup()
        for _, p in model.parameters():
            p.data[:] = 0.0
        model.head.b.data[:, 0] = [1.5, -2.0, 0.25]
        pred = model.forward(train_ds.inputs[:4], mode="eval")
        expected = np.broadcast_to(model.head.b.data[None, :, None, :], (4, 3, 6, 1))
        np.testing.assert_array_equal(pred.data, expected)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_unknown_hop_mode_rejected(self, mode):
        model, (train_ds, _, _), _, _ = quick_setup()
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="hop_mode 'Hard'"):
            model.forward(train_ds.inputs[:2], mode=mode, rng=rng, hop_mode="Hard")


@pytest.fixture()
def zero_lr_adam(monkeypatch):
    """``train``'s optimizer runs every step at learning rate 0, which TrainSettings rejects."""

    class ZeroLrAdam(trainer.Adam):
        def __init__(self, named_params, lr):
            super().__init__(named_params, 0.0)

    monkeypatch.setattr(trainer, "Adam", ZeroLrAdam)


class TestTrainLoop:
    def test_zero_learning_rate_freezes_parameters(self, zero_lr_adam):
        model, (train_ds, val_ds, _), _, _ = quick_setup()
        before = model.state_arrays()
        trainer.train(model, train_ds, val_ds, settings(max_epochs=1), seed=0)
        after = model.state_arrays()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_epoch_hook_sees_every_recorded_epoch(self, zero_lr_adam):
        # Frozen weights keep validation MAE flat, so patience 0 stops after epoch 1.
        model, (train_ds, val_ds, _), _, _ = quick_setup()
        seen = []
        history, _ = trainer.train(
            model, train_ds, val_ds, settings(patience=0, max_epochs=4),
            seed=0, epoch_hook=lambda rec: seen.append(rec),
        )
        assert [r.epoch for r in history] == [0, 1]
        assert seen == history

    def test_truthy_epoch_hook_stops_training(self):
        model, (train_ds, val_ds, _), _, _ = quick_setup()
        history, _ = trainer.train(
            model, train_ds, val_ds, settings(max_epochs=4), seed=0, epoch_hook=lambda rec: True
        )
        assert [r.epoch for r in history] == [0]

    @pytest.mark.parametrize("seed", range(3))
    def test_every_parameter_gets_a_gradient_in_one_train_step(self, seed):
        model, (train_ds, _, _) = overfit_setup(seed)
        scaler = model.scaler
        window, target = train_ds.inputs[:32], train_ds.targets[:32]
        pred = model.forward(window, mode="train", rng=np.random.default_rng(seed))
        trainer.mae_loss(pred * scaler.std + scaler.mean, target).backward()
        dead = [name for name, p in model.parameters() if not np.any(p.grad)]
        assert not dead, dead

    def test_same_seed_reproduces_history_and_weights(self):
        runs = []
        for _ in range(2):
            model, (train_ds, val_ds, _), _, _ = quick_setup(seed=3)
            history, _ = trainer.train(model, train_ds, val_ds, settings(max_epochs=2), seed=3)
            runs.append((history, model.state_arrays()))
        (h1, s1), (h2, s2) = runs
        assert [astuple(r) for r in h1] == [astuple(r) for r in h2]
        for name in s1:
            np.testing.assert_array_equal(s1[name], s2[name])

    def test_history_csv_format(self, tmp_path):
        model, (train_ds, val_ds, _), _, _ = quick_setup()
        history, _ = trainer.train(model, train_ds, val_ds, settings(max_epochs=2), seed=0)
        path = tmp_path / "history.csv"
        trainer.write_history(path, history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_mae,val_rmse,val_mape"
        assert len(lines) == 3

    def test_test_targets_never_touch_training(self):
        # only test windows read series.values[b2:]; poison it before windowing
        model_a, (train_ds, val_ds, test_ds), _, _ = quick_setup(seed=5)
        h_a, _ = trainer.train(model_a, train_ds, val_ds, settings(max_epochs=2), seed=5)
        model_b, _, series_b, _ = quick_setup(seed=5)
        _, b2 = dmod.split_boundaries(series_b.num_steps)
        series_b.values[b2:] = 12345.0
        train_b, val_b, test_b = dmod.make_windows(series_b, 6, 3)
        assert np.all(test_b.targets[:, -1] == 12345.0)
        assert not np.array_equal(test_b.targets, test_ds.targets)
        h_b, _ = trainer.train(model_b, train_b, val_b, settings(max_epochs=2), seed=5)
        assert [astuple(r) for r in h_a] == [astuple(r) for r in h_b]

    def test_history_bitwise_equal_under_one_and_two_blas_threads(self):
        # acceptance shape, two epochs, each run in its own process with its own thread count
        script = """
import hashlib
from dataclasses import astuple
from tglrn import data as dmod, trainer
from tglrn.model import ModelConfig
net, series, _ = dmod.synth_generate(dmod.SynthSettings(synth_nodes=8, synth_steps=372), 0)
train_ds, val_ds, _ = dmod.make_windows(series, 12, 12)
b1, _ = dmod.split_boundaries(372)
cfg = ModelConfig(num_nodes=8, embed_dim=8, hop_dim=8, hidden_dim=16, levels=3, n_blocks=2, dropout_rate=0.05)
model = trainer.build_model(cfg, net.edges, dmod.fit_scaler(series.values[:b1]), 0)
settings = trainer.TrainSettings(learning_rate=0.005, batch_size=32, max_epochs=2, patience=15)
history, _ = trainer.train(model, train_ds, val_ds, settings, seed=0)
digest = hashlib.sha256()
for name, arr in sorted(model.state_arrays().items()):
    digest.update(name.encode() + arr.tobytes())
print("\\n".join(repr(astuple(r)) for r in history))
print(digest.hexdigest())
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(trainer.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 3
        assert outputs[0] == outputs[1]

    @pytest.mark.slow
    def test_monotonic_train_loss_on_most_seeds(self):
        # chain of 8 sensors, 200 training windows, five epochs, ten seeds
        good = 0
        for seed in range(10):
            net, series, _ = dmod.synth_generate(dmod.SynthSettings(synth_nodes=8, synth_steps=372), seed)
            train_ds, val_ds, _ = dmod.make_windows(series, 12, 12)
            b1, _ = dmod.split_boundaries(372)
            scaler = dmod.fit_scaler(series.values[:b1])
            cfg = ModelConfig(
                num_nodes=8, t_in=12, t_out=12, embed_dim=8, hop_dim=8,
                hidden_dim=16, levels=3, kernel_size=2, n_blocks=2,
                gamma=0.3, dropout_rate=0.05,
            )
            model = trainer.build_model(cfg, net.edges, scaler, seed)
            assert len(train_ds) == 200
            history, _ = trainer.train(
                model, train_ds, val_ds, settings(max_epochs=5, batch_size=32), seed=seed
            )
            losses = [r.train_loss for r in history]
            if all(b < a for a, b in zip(losses, losses[1:])):
                good += 1
        assert good >= 9, f"only {good}/10 seeds decreased monotonically"

    def test_nan_loss_aborts_with_parameter_name(self):
        model, (train_ds, val_ds, _), _, _ = quick_setup()
        model.head.w.data[0, 0, 0] = np.nan
        names = {name for name, _ in model.parameters()}
        with pytest.raises(NumericError) as exc:
            trainer.train(model, train_ds, val_ds, settings(max_epochs=1), seed=0)
        named = str(exc.value).rsplit(": ", 1)[-1]
        assert named in names

    def test_nan_gradient_behind_finite_loss_aborts_before_update(self, monkeypatch):
        model, (train_ds, val_ds, _), _, _ = quick_setup()
        name, planted = model.parameters()[-1]
        before = planted.data.copy()
        backward = Tensor.backward

        def backward_then_plant(self):
            backward(self)
            planted.grad.flat[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", backward_then_plant)
        with pytest.raises(NumericError, match="finite loss") as exc:
            trainer.train(model, train_ds, val_ds, settings(max_epochs=1), seed=0)
        assert str(exc.value).rsplit(": ", 1)[-1] == name
        np.testing.assert_array_equal(planted.data, before)

    def test_empty_validation_split_rejected_before_first_step(self, monkeypatch):
        model, (train_ds, val_ds, _), _, _ = quick_setup()
        empty_val = dmod.WindowedDataset(
            inputs=val_ds.inputs[:0], targets=val_ds.targets[:0], anchors=val_ds.anchors[:0], split="val"
        )
        steps = []
        monkeypatch.setattr(trainer.Adam, "step", lambda self: steps.append(self.t))
        with pytest.raises(DataError, match="validation"):
            trainer.train(model, train_ds, empty_val, settings(max_epochs=1), seed=0)
        assert steps == []


# Bytes by which backward may rise above the post-forward level. An absolute
# bound: part of that peak does not shrink with the tape (numpy allocates an
# iteration buffer of up to 64 KB per strided or broadcast ufunc operand), so a
# share of a tape that fused nodes keep shrinking would fail a backward that got
# no worse. Measured with tracemalloc at N=6, B=16, over a 0.54 MB tape: ~112 KB
# for a backward that consumes the tape and hands each node's gradient over to its
# closure, set in the spatial node's backward; ~640 KB for one that keeps every
# node and its gradient until it returns.
BACKWARD_PEAK_BYTES = 200_000
# What may still be held once backward has returned, as a share of the tape.
BACKWARD_LEFTOVER_FRACTION = 0.1


def test_backward_peak_memory_stays_small_next_to_tape():
    model, (train_ds, _, _), _, _ = quick_setup()
    scaler = model.scaler
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pred = model.forward(train_ds.inputs[:16], mode="train", rng=np.random.default_rng(0))
        loss = trainer.mae_loss(pred * scaler.std + scaler.mean, train_ds.targets[:16])
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        after_backward, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tape = after_forward - base
    # Non-vacuity: the tape dwarfs what backward adds on top of it.
    assert tape > 4 * (peak - after_forward)
    assert peak - after_forward < BACKWARD_PEAK_BYTES
    assert after_backward - base < BACKWARD_LEFTOVER_FRACTION * tape


# Op nodes one train step may record at the acceptance shape (the 8-node model of
# criterion 5, T_in = 12, B = 32). The three embedding chains are one node plus a
# part node each; each gate, the hop distribution, the hop choice, the adjacency
# and the input layer are one node, and the edge projections one node plus a part
# node each, all once per window; the prediction head is one node, and the loss
# one node on the prediction's two scaling nodes (27 nodes). A per-step pass
# records about 420.
TRAIN_STEP_OP_NODES = 29


def test_acceptance_shape_train_step_records_few_op_nodes():
    model, (train_ds, _, _) = overfit_setup(seed=0)
    scaler = model.scaler
    pred = model.forward(train_ds.inputs[:32], mode="train", rng=np.random.default_rng(0))
    scaled = pred * scaler.std + scaler.mean
    loss = trainer.mae_loss(scaled, train_ds.targets[:32])
    seen, todo = {}, [loss]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t._parents)
    ops = [t for t in seen.values() if t._bwd is not None]
    assert len(ops) <= TRAIN_STEP_OP_NODES, len(ops)
    kinds = [t._bwd.__qualname__.split(".<locals>")[0] for t in ops]
    # The three chains share one width, so they are one node fed only the window and
    # their parameters, plus one part node per chain fed only it: no per-step GRU or
    # broadcast node.
    gb = model.graph_block
    leaves = [p for c in (gb.chain_st, gb.chain_ed, gb.chain_h) for _, p in c.params()]
    (chains,) = [t for t in ops if any(p is gb.chain_st.e_init for p in t._parents)]
    assert chains._parents[1:] == tuple(leaves)
    assert all(p._bwd is None for p in chains._parents)
    parts = [t for t in ops if chains in t._parents]
    assert len(parts) == 3 and all(t._parents == (chains,) for t in parts)
    assert not [k for k in kinds if "broadcast" in k or "Gru" in k or "step" in k], kinds
    # One head node, fed every block output plus head.w and head.b.
    (head,) = [t for t, kind in zip(ops, kinds) if kind == "PredictionHead.__call__"]
    assert head._parents[-2:] == (model.head.w, model.head.b)
    assert [p._bwd.__qualname__.split(".<locals>")[0] for p in head._parents[:-2]] == [
        "OutputLayer.__call__"
    ] * len(model.blocks)
    # Each graph stage is one node for the whole window: the adjacency is fed the two
    # edge projections, each a part of one node fed the two gates and the edge head.
    (graph,) = [t for t, kind in zip(ops, kinds) if kind == "edge_adjacency"]
    u, v, mixing = graph._parents
    (edge,) = u._parents
    assert v._parents == (edge,)
    assert edge._parents[2] is gb.edge_w
    assert [p._bwd.__qualname__.split(".<locals>")[0] for p in edge._parents[:2]] == ["gate", "gate"]
    assert mixing._bwd.__qualname__.startswith("select_hops.")
    (probs,) = mixing._parents
    assert probs._parents[1:] == (gb.hop_l1.w, gb.hop_l1.b, gb.hop_l2.w, gb.hop_l2.b)
    assert kinds.count("Linear.__call__") == 1  # the input layer
    # The loss is one node, fed only the scaled prediction.
    (mae,) = [t for t, kind in zip(ops, kinds) if kind == "mae_loss"]
    assert mae is loss and loss._parents == (scaled,)


@pytest.mark.parametrize("hop_dim, groups", [(8, [3]), (6, [2, 1])])
def test_train_forward_runs_each_chain_width_once(monkeypatch, hop_dim, groups):
    # One EmbeddingChain.run call per width group, so a span around it covers every chain.
    base, (train_ds, _, _) = overfit_setup(seed=0)
    cfg = replace(base.cfg, hop_dim=hop_dim)
    model = TGLRN(cfg, base.edges, base.scaler, np.random.default_rng(0))
    calls, run = [], dg.EmbeddingChain.run

    def counted(chain, window, *more):
        calls.append(1 + len(more))
        return run(chain, window, *more)

    monkeypatch.setattr(dg.EmbeddingChain, "run", counted)
    model.forward(train_ds.inputs[:4], mode="train", rng=np.random.default_rng(0))
    assert calls == groups


def head_composition(head, outputs):
    """The prediction head as the stack, reshape, einsum2 and add nodes it replaced."""
    b, n = outputs[0].shape[:2]
    feats = reshape(stack(outputs, axis=-2), (b, n, -1))
    t_out, f = head.b.shape
    return einsum2("bic,ctf->btif", feats, head.w) + reshape(head.b, (1, t_out, 1, f))


@pytest.mark.parametrize(
    "b, n, blocks, d, f", [(32, 8, 2, 16, 1), (4, 170, 1, 64, 1), (3, 5, 3, 4, 2), (1, 1, 2, 3, 2)]
)
def test_prediction_head_node_equals_composition_bitwise(b, n, blocks, d, f):
    results = []
    for build in (lambda head, outputs: head(outputs), head_composition):
        rng = np.random.default_rng(7)
        head = PredictionHead(blocks * d, 12, f, rng)
        head.b.data[...] = rng.standard_normal(head.b.shape)
        outputs = [Parameter(rng.standard_normal((b, n, d))) for _ in range(blocks)]
        pred = build(head, outputs)
        weighted_sum(pred, rng.standard_normal(pred.shape)).backward()
        results.append([pred.data] + [p.grad for p in outputs] + [head.w.grad, head.b.grad])
    assert len(results[0]) == blocks + 3
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def traced_peak(fn):
    """tracemalloc peak of ``fn()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# tracemalloc peak of one predict_raw at N=64, B=64, T_in=12, with widths of 2 and a
# chain graph whose widest hop mask holds 189 pairs. The 12 dense (64, 64, 64)
# adjacencies alone are 25 MB; one reused (64, 64, 64) scratch is 2 MB. Measured:
# 32.7 MB with a dense adjacency per step, 12.7 MB (set by the graph node's
# (B * T_in, nnz) temporaries) with the weights on the pattern.
EVAL_PEAK_BYTES = 20_000_000


def test_eval_peak_memory_holds_no_dense_adjacency_per_step():
    model, (_, _, test_ds), _, _ = quick_setup(
        n=64, t_total=500, t_in=12, t_out=3, embed_dim=2, hop_dim=2, hidden_dim=2
    )
    windows = np.repeat(test_ds.inputs[:1], 64, axis=0)
    peak = traced_peak(lambda: model.predict_raw(windows))
    assert peak < EVAL_PEAK_BYTES, peak


def pems_like_setup(seed=0):
    """A small PeMS08-like model: 36-sensor grid, T_in = T_out = 12, Ks = 6, 1 block, L = 10."""
    synth = dmod.SynthSettings(synth_topology="grid", synth_nodes=36, synth_steps=300, synth_noise_std=0.5)
    net, series, _ = dmod.synth_generate(synth, seed)
    splits = dmod.make_windows(series, 12, 12)
    b1, _ = dmod.split_boundaries(300)
    cfg = ModelConfig(
        num_nodes=36, t_in=12, t_out=12, embed_dim=8, hop_dim=8, hidden_dim=16, levels=10,
        diff_steps=2, kernel_size=6, n_blocks=1, gamma=0.3, dropout_rate=0.1,
    )
    return trainer.build_model(cfg, net.edges, dmod.fit_scaler(series.values[:b1]), seed), splits


def first_windows(ds, m):
    """The first ``m`` windows of ``ds``, cycling through it when it holds fewer."""
    idx = np.arange(m) % len(ds)
    return dmod.WindowedDataset(ds.inputs[idx], ds.targets[idx], ds.anchors[idx], ds.split)


def threaded_setup(hidden=16):
    """A model above PARALLEL_EVAL_WIDTH with small widths: N=64, T_in=12, embeddings of 2.

    hidden_dim is 16 by default: at 12 this BLAS build rounds some products
    differently for 4- or 8-window calls and for a 48-window one, so no chunking
    equals a whole-split call there.
    """
    n = 64
    assert n * hidden >= trainer.PARALLEL_EVAL_WIDTH
    return quick_setup(
        n=n, t_total=500, t_in=12, t_out=3, embed_dim=2, hop_dim=2, hidden_dim=hidden
    )


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count the eval and train thread pools see, with one BLAS thread; returns their sizes."""
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
    for var in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def set_count(count):
        monkeypatch.setattr(trainer.os, "sched_getaffinity", lambda pid: set(range(count)))
        return pools

    return set_count


@pytest.mark.parametrize("shape", ["acceptance", "pems_like"])
def test_batched_predictions_equal_one_whole_split_call(shape):
    model, (_, val_ds, _) = overfit_setup(seed=0) if shape == "acceptance" else pems_like_setup()
    # Two full chunks and a partial one.
    ds = first_windows(val_ds, 2 * trainer.EVAL_BATCH + 5)
    assert len(set(ds.anchors.tolist())) == len(ds)  # distinct windows, not a cycle
    np.testing.assert_array_equal(
        trainer.batched_predictions(model, ds), model.predict_raw(ds.inputs)
    )


# (CPUs seen, windows, pool size): one CPU runs in the calling thread; two run
# 4-window chunks with a partial last one, or 5 windows as 4 + 1; eight CPUs are
# capped at the 4 threads that keep EVAL_BATCH windows in flight; 2 windows, or 1,
# are one chunk and start no pool.
@pytest.mark.parametrize(
    "count, windows, pool",
    [
        (1, 2 * trainer.EVAL_BATCH + 5, None),
        (2, 2 * trainer.EVAL_BATCH + 5, 2),
        (2, 5, 2),
        (8, 2 * trainer.EVAL_BATCH + 5, 4),
        (8, 2, None),
        (2, 1, None),
    ],
)
def test_threaded_predictions_equal_one_whole_split_call(cpus, count, windows, pool):
    model, (_, _, test_ds), _, _ = threaded_setup()
    ds = first_windows(test_ds, windows)
    assert len(set(ds.anchors.tolist())) == len(ds)
    pools = cpus(count)
    before = threading.active_count()
    got = trainer.batched_predictions(model, ds)
    assert threading.active_count() == before
    assert pools == ([] if pool is None else [pool])
    np.testing.assert_array_equal(got, model.predict_raw(ds.inputs))


def test_eval_chunks_depend_only_on_width_and_window_count():
    wide, _, _, _ = threaded_setup()
    narrow, _, _, _ = quick_setup(n=64, t_total=500, t_in=12, t_out=3, hidden_dim=2)

    def plan(model, windows):
        return [(part.start, part.stop) for part in trainer.eval_chunks(model, windows)]

    assert plan(narrow, 37) == [(0, 16), (16, 32), (32, 37)]
    assert plan(wide, 37) == [(lo, lo + 4) for lo in range(0, 36, 4)] + [(36, 37)]
    assert plan(wide, 3) == [(0, 3)]
    assert plan(wide, 0) == []


def test_wide_predictions_do_not_depend_on_the_cpu_count(cpus):
    # At hidden_dim 12 a 16-window call rounds some products differently from a
    # 4- or 8-window one, so a chunk size set by the CPU count would show here.
    model, (_, _, test_ds), _, _ = threaded_setup(hidden=12)
    ds = first_windows(test_ds, 48)
    assert len(set(ds.anchors.tolist())) == len(ds)
    got = []
    for count in (1, 2, 8):
        pools = cpus(count)
        got.append(trainer.batched_predictions(model, ds))
    assert pools == [2, 4]
    np.testing.assert_array_equal(got[1], got[0])
    np.testing.assert_array_equal(got[2], got[0])


# BLAS threads as OpenBLAS reads them (OPENBLAS_NUM_THREADS, then GOTO_NUM_THREADS,
# then OMP_NUM_THREADS; unset, zero or not a number falls through, and the default
# is one per CPU) -> pool size on 2 CPUs.
@pytest.mark.parametrize(
    "env, pool",
    [
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "2"}, None),
        ({"OMP_NUM_THREADS": "1"}, 2),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, None),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 2),
    ],
)
def test_eval_threads_leave_room_for_blas_threads(cpus, monkeypatch, env, pool):
    model, (_, _, test_ds), _, _ = threaded_setup()
    ds = first_windows(test_ds, trainer.EVAL_BATCH)
    pools = cpus(2)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    np.testing.assert_array_equal(
        trainer.batched_predictions(model, ds), model.predict_raw(ds.inputs)
    )
    assert pools == ([] if pool is None else [pool])


def test_threaded_predictions_raise_config_error_for_a_malformed_window(cpus):
    model, (_, _, test_ds), _, _ = threaded_setup()
    ds = first_windows(test_ds, 2 * trainer.EVAL_BATCH)
    pools = cpus(2)
    before = threading.active_count()
    # A node too few, and a feature too many on an F=1 model.
    for inputs in (ds.inputs[:, :, 1:], np.concatenate([ds.inputs, ds.inputs], axis=-1)):
        bad = dmod.WindowedDataset(inputs, ds.targets, ds.anchors, ds.split)
        with pytest.raises(ConfigError, match="expected window of shape"):
            trainer.batched_predictions(model, bad)
        assert threading.active_count() == before
    assert pools == [2, 2]


# Windows of the one predict_raw call whose tracemalloc peak bounds evaluate's over
# any split: evaluation's memory budget. On top of that call evaluate may hold four
# prediction-sized arrays (the chunks' outputs, their concatenation and the error
# temporaries of compute_metrics) and EVAL_MARGIN_BYTES of allocator and numpy
# iteration-buffer noise. Measured at the shape below (N=64, T_in=12, widths 2):
# one 16-window call peaks at 3.2 MB, evaluate over 64 windows in 16-window chunks
# 75 KB above it, and over 1,024 windows in 256-window chunks at 52 MB. On two
# threads (threaded_setup, D=16) one 16-window call peaks at 9.65 MB, one 4-window
# call at 2.47 MB, and evaluate at 4.7-4.8 MB as two 4-window calls overlap.
EVAL_BUDGET_WINDOWS = 16
EVAL_MARGIN_BYTES = 256_000


def check_eval_peak_within_budget(model, test_ds):
    ds = first_windows(test_ds, 4 * trainer.EVAL_BATCH)
    one_call = traced_peak(lambda: model.predict_raw(ds.inputs[:EVAL_BUDGET_WINDOWS]))
    peak = traced_peak(lambda: trainer.evaluate(model, ds))
    assert peak < one_call + 4 * ds.targets.nbytes + EVAL_MARGIN_BYTES, (peak, one_call)


def test_eval_peak_memory_does_not_grow_with_the_split(cpus):
    model, (_, _, test_ds), _, _ = quick_setup(
        n=64, t_total=500, t_in=12, t_out=3, embed_dim=2, hop_dim=2, hidden_dim=2
    )
    pools = cpus(2)
    check_eval_peak_within_budget(model, test_ds)
    assert pools == []


def test_threaded_eval_peak_memory_does_not_grow_with_the_split(cpus):
    model, (_, _, test_ds), _, _ = threaded_setup()
    pools = cpus(2)
    check_eval_peak_within_budget(model, test_ds)
    assert pools == [2]


# -- train steps as sums of shards ----------------------------------------------------


def whole_batch_step(model, window, target, draws):
    """The oracle of trainer.train_step: one forward, loss and backward over the whole batch."""
    scaler = model.scaler
    pred = model.forward(window, mode="train", draws=draws)
    loss = trainer.mae_loss(pred * scaler.std + scaler.mean, target)
    loss.backward()
    return loss.item()


def step_gradients(model, step, window, target, draws):
    """(loss, every parameter gradient) of ``step`` from zeroed gradients."""
    for _, p in model.parameters():
        p.zero_grad()
    loss = step(model, window, target, draws)
    return loss, {name: p.grad.copy() for name, p in model.parameters()}


@pytest.fixture
def sharded(monkeypatch):
    """Lowers PARALLEL_TRAIN_WIDTH to PARALLEL_EVAL_WIDTH, so threaded_setup's cheap model trains in shards."""
    monkeypatch.setattr(trainer, "PARALLEL_TRAIN_WIDTH", trainer.PARALLEL_EVAL_WIDTH)


def test_train_lanes_depend_only_on_width_and_batch_size():
    def model(n, hidden):
        edges = [(i, i + 1) for i in range(n - 1)]
        cfg = ModelConfig(num_nodes=n, t_in=12, t_out=3, embed_dim=2, hop_dim=2, hidden_dim=hidden, levels=2)
        scaler = dmod.Scaler(mean=np.zeros((n, 1)), std=np.ones((n, 1)))
        return trainer.build_model(cfg, edges, scaler, 0)

    def plan(model, windows):
        return [[(part.start, part.stop) for part in lane] for lane in trainer.train_lanes(model, windows)]

    assert trainer.PARALLEL_TRAIN_WIDTH == 6400 and trainer.TRAIN_LANES == 2
    # Wide enough for eval's threads, not for training's shards.
    assert plan(threaded_setup()[0], 37) == [[(0, 37)]]
    assert plan(model(99, 64), 37) == [[(0, 37)]]
    for wide in (model(100, 64), model(400, 16)):
        assert plan(wide, 5) == [[(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4)]]
        assert plan(wide, 1) == [[(0, 1)]]


@pytest.mark.parametrize("count, pool", [(1, None), (2, 2), (8, 2)])
def test_sharded_step_matches_the_whole_batch_oracle(cpus, sharded, count, pool):
    model, (train_ds, _, _), _, _ = threaded_setup()
    window, target = train_ds.inputs[:5], train_ds.targets[:5]
    draws = model.draw(np.random.default_rng(3), 5)
    pools = cpus(count)
    before = threading.active_count()
    loss, grads = step_gradients(model, trainer.train_step, window, target, draws)
    assert threading.active_count() == before
    assert pools == ([] if pool is None else [pool])
    want_loss, want = step_gradients(model, whole_batch_step, window, target, draws)
    assert abs(loss - want_loss) <= 1e-12 * want_loss
    for name, g in want.items():
        scale = np.abs(g).max()
        assert scale > 0.0, name
        assert np.abs(grads[name] - g).max() <= 1e-12 * scale, name


def test_narrow_step_is_the_whole_batch_oracle_bitwise():
    model, (train_ds, _, _) = overfit_setup(seed=0)
    window, target = train_ds.inputs[:32], train_ds.targets[:32]
    draws = model.draw(np.random.default_rng(4), 32)
    loss, grads = step_gradients(model, trainer.train_step, window, target, draws)
    want_loss, want = step_gradients(model, whole_batch_step, window, target, draws)
    assert loss == want_loss
    for name, g in want.items():
        np.testing.assert_array_equal(grads[name], g, err_msg=name)


@pytest.mark.parametrize("in_shards", [False, True], ids=["narrow", "sharded"])
def test_train_step_leaves_the_z_score_through_the_scaler(cpus, request, monkeypatch, in_shards):
    # Scaler.invert is the one way back to original units: once a step, or once a one-window shard.
    if in_shards:
        request.getfixturevalue("sharded")
    model, (train_ds, _, _), _, _ = threaded_setup()
    cpus(2)
    seen, invert = [], dmod.Scaler.invert
    monkeypatch.setattr(dmod.Scaler, "invert", lambda self, x: seen.append(type(x)) or invert(self, x))
    draws = model.draw(np.random.default_rng(3), 5)
    trainer.train_step(model, train_ds.inputs[:5], train_ds.targets[:5], draws)
    assert seen == [Tensor] * (5 if in_shards else 1)


def test_wide_training_does_not_depend_on_the_cpu_count(cpus, sharded):
    runs = []
    for count in (1, 2, 8):
        model, (train_ds, val_ds, _), _, _ = threaded_setup()
        pools = cpus(count)
        # 12 windows in steps of 5, 5 and 2: both lanes, unequal ones, and a short last step.
        history, best = trainer.train(
            model, first_windows(train_ds, 12), first_windows(val_ds, 8),
            settings(batch_size=5, max_epochs=2), seed=7,
        )
        runs.append(([astuple(r) for r in history], best))
    # 1 CPU starts no pool; each of the others starts a two-thread pool per step and per eval.
    assert pools == [2] * 2 * (6 + 2)
    for rows, best in runs[1:]:
        assert rows == runs[0][0]
        for name, arr in best.items():
            np.testing.assert_array_equal(arr, runs[0][1][name], err_msg=name)


def test_lane_failure_leaves_no_thread_and_raises(cpus, sharded, monkeypatch):
    model, (train_ds, _, _), _, _ = threaded_setup()
    draws = model.draw(np.random.default_rng(5), 4)
    pools = cpus(2)
    forward = TGLRN.forward

    def failing_forward(self, window, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise NumericError("planted")
        return forward(self, window, *args, **kwargs)

    monkeypatch.setattr(TGLRN, "forward", failing_forward)
    before = threading.active_count()
    with pytest.raises(NumericError, match="planted"):
        trainer.train_step(model, train_ds.inputs[:4], train_ds.targets[:4], draws)
    assert threading.active_count() == before
    assert pools == [2]


# Shards a wide step may hold in flight on two CPUs: one per lane. The tracemalloc
# peak of a 16-window step may exceed that many one-window steps only by the batch's
# draws and a margin for the lanes' gradient buffers and allocator noise. Measured at
# the threaded_setup shape (N=64, D=16), where the 16 windows' draws take 0.87 MB: a
# one-window step peaks at 1.62 MB, a 16-window sharded step at 3.25-3.35 MB, and the
# 16-window batch in one call at 24 MB.
SHARD_MARGIN_BYTES = 500_000


def test_wide_step_peak_memory_is_bounded_by_the_shards_in_flight(cpus, sharded):
    model, (train_ds, _, _), _, _ = threaded_setup()
    pools = cpus(2)
    one = model.draw(np.random.default_rng(6), 1)
    many = model.draw(np.random.default_rng(6), 16)
    batch = sum(x.nbytes for x in many.graph) + sum(k.nbytes for k in many.dropout if k is not None)

    def step(draws):
        windows = len(draws.graph[0])
        return lambda: trainer.train_step(model, train_ds.inputs[:windows], train_ds.targets[:windows], draws)

    one_shard = traced_peak(step(one))
    peak = traced_peak(step(many))
    assert pools == [2]
    whole = traced_peak(lambda: whole_batch_step(model, train_ds.inputs[:16], train_ds.targets[:16], many))
    assert whole > 2 * peak  # non-vacuity: the whole batch in one call holds far more
    assert peak < 2 * one_shard + batch + SHARD_MARGIN_BYTES, (peak, one_shard, batch)


def stacked_draw(model, rng, batch):
    """TGLRN.draw as it was: per-step lists stacked at the end, each dropout pattern one float draw."""
    gb, cfg = model.graph_block, model.cfg
    n, pattern = gb.num_nodes, gb.pattern
    noise, keep, uniforms = [], [], []
    for _ in range(gb.t_in):
        noise.append(dg.logistic_noise(pattern.gather(rng.uniform(size=(batch, n, n)))))
        keep.append(dg.keep_pattern(pattern.gather(rng.uniform(size=(batch, n, n))), gb.gamma))
        uniforms.append(rng.uniform(size=(batch, n, pattern.levels)))
    graph = tuple(np.stack(x, axis=1) for x in (noise, keep, uniforms))
    dropout = []
    for k in range(cfg.n_blocks * TPL_PER_BLOCK):
        shape = (batch, cfg.t_in - (k + 1) * (cfg.kernel_size - 1), cfg.num_nodes, cfg.hidden_dim)
        dropout.append(rng.uniform(size=shape) >= cfg.dropout_rate if cfg.dropout_rate > 0.0 else None)
    return graph, dropout


@pytest.mark.parametrize("slab_windows", [None, 1, 3])
def test_draw_is_the_stacked_draw_oracle_bitwise(monkeypatch, slab_windows):
    # With the default slab a whole N=8 batch is one draw; one and three windows of
    # the first conv's pattern split it into slabs, with a short last one at B=7.
    model, _ = overfit_setup(seed=0)
    if slab_windows is not None:
        monkeypatch.setattr(model_mod, "DROPOUT_SLAB_VALUES", slab_windows * 11 * 8 * 16)
    for batch in (1, 7, 32):
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = model.draw(got_rng, batch)
        graph, dropout = stacked_draw(model, want_rng, batch)
        for g, w in zip(got.graph + tuple(got.dropout), graph + tuple(dropout)):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        assert got_rng.random() == want_rng.random()  # the stream goes on from the same point


# A train step's draws at the acceptance shape and B=64 keep 0.64 MB. Drawing each
# dropout pattern as one float array first peaked 0.53 MB above them; in one-window
# slabs the peak is 0.012 MB above them, set by one graph step's (B, N, N) scratch
# and its gathered temporaries.
DRAW_PEAK_ABOVE_RESULT_BYTES = 100_000


def test_draw_holds_one_slab_of_floats(monkeypatch):
    model, _ = overfit_setup(seed=0)
    monkeypatch.setattr(model_mod, "DROPOUT_SLAB_VALUES", 11 * 8 * 16)
    kept = []
    peak = traced_peak(lambda: kept.append(model.draw(np.random.default_rng(10), 64)))
    (draws,) = kept
    result = sum(x.nbytes for x in draws.graph) + sum(k.nbytes for k in draws.dropout)
    assert peak - result < DRAW_PEAK_ABOVE_RESULT_BYTES, (peak, result)


class TestMetrics:
    def test_perfect_prediction(self):
        target = np.random.default_rng(0).uniform(10, 50, size=(4, 3, 2, 1))
        report = trainer.compute_metrics(target.copy(), target)
        assert report.mae == 0.0 and report.rmse == 0.0 and report.mape == 0.0

    def test_ten_percent_overprediction(self):
        target = np.random.default_rng(1).uniform(10, 50, size=(4, 3, 2, 1))
        report = trainer.compute_metrics(1.1 * target, target)
        assert report.mape == pytest.approx(10.0, rel=1e-9)

    def test_mape_threshold_excludes_small_targets(self):
        target = np.array([[[[0.5]], [[100.0]]]])  # (1, 2, 1, 1)
        pred = target + 1.0
        report = trainer.compute_metrics(pred, target, mape_threshold=1.0)
        assert report.mape == pytest.approx(1.0, rel=1e-9)  # only the 100.0 counts

    @pytest.mark.parametrize("threshold", [np.nan, -1.0, np.inf])
    @pytest.mark.parametrize("call", ["compute_metrics", "evaluate", "baseline_ha"])
    def test_bad_mape_threshold_rejected(self, monkeypatch, call, threshold):
        # NaN would exclude every target and read a MAPE of 0.0.
        model, (_, _, test_ds), _, _ = quick_setup()
        calls = {
            "compute_metrics": lambda: trainer.compute_metrics(test_ds.targets, test_ds.targets, threshold),
            "evaluate": lambda: trainer.evaluate(model, test_ds, threshold),
            "baseline_ha": lambda: trainer.baseline_ha(test_ds, threshold),
        }
        # evaluate checks before it predicts anything.
        monkeypatch.setattr(trainer, "batched_predictions", lambda *a: pytest.fail("predicted"))
        with pytest.raises(ConfigError, match="mape_threshold must be non-negative and finite"):
            calls[call]()

    def test_eval_idempotent(self):
        model, (_, _, test_ds), _, _ = quick_setup()
        a = trainer.evaluate(model, test_ds)
        b = trainer.evaluate(model, test_ds)
        assert a == b

    def test_empty_split_rejected(self):
        model, (train_ds, _, _), _, _ = quick_setup()
        empty = dmod.WindowedDataset(
            inputs=train_ds.inputs[:0],
            targets=train_ds.targets[:0],
            anchors=train_ds.anchors[:0],
            split="test",
        )
        with pytest.raises(DataError):
            trainer.evaluate(model, empty)

    def test_no_windows_to_score_rejected(self):
        # Not NaN metrics behind a "Mean of empty slice" warning.
        empty = np.zeros((0, 3, 2, 1))
        with pytest.raises(DataError, match=r"no predictions to score, shape \(0, 3, 2, 1\)"):
            trainer.compute_metrics(empty, empty)


class TestHistoricalAverage:
    def test_constant_series_exact_zero(self):
        values = np.full((60, 3, 1), 42.0)
        splits = dmod.make_windows(dmod.FlowSeries(values=values), 12, 12)
        report = trainer.baseline_ha(splits[0])
        assert report.mae == 0.0

    def test_ramp_per_horizon_closed_form(self):
        t_in = 12
        values = np.arange(80.0)[:, None, None] * np.ones((1, 2, 1))
        splits = dmod.make_windows(dmod.FlowSeries(values=values), t_in, 12)
        report = trainer.baseline_ha(splits[0], mape_threshold=0.0)
        for h, (mae, rmse, _) in enumerate(report.per_horizon, start=1):
            expected = (t_in - 1) / 2 + h
            assert abs(mae - expected) < 1e-9
            assert abs(rmse - expected) < 1e-9


class TestCheckpoint:
    def test_round_trip_bitwise_metrics(self, tmp_path):
        model, (train_ds, val_ds, test_ds), _, _ = quick_setup(seed=7)
        trainer.train(model, train_ds, val_ds, settings(max_epochs=1), seed=7)
        before = trainer.evaluate(model, test_ds)
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model, extra_config={"seed": 7})
        loaded, extra = trainer.checkpoint_load(path)
        assert extra == {"seed": 7}
        after = trainer.evaluate(loaded, test_ds)
        assert before == after
        for (na, pa), (nb, pb) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    @pytest.mark.parametrize("built_by", ["constructor", "build_model", "checkpoint_load"])
    def test_every_way_of_building_round_trips(self, tmp_path, built_by):
        base, (train_ds, _, _), _, _ = quick_setup(seed=3)
        edges = [(2, 3), *base.edges, (0, 1)]  # out of order, with duplicates
        if built_by == "constructor":
            model = TGLRN(base.cfg, edges, base.scaler, np.random.default_rng(5), symmetrize_hops=True)
        else:
            model = trainer.build_model(base.cfg, edges, base.scaler, seed=5, symmetrize_hops=True)
        if built_by == "checkpoint_load":
            trainer.checkpoint_save(tmp_path / "first.ckpt", model)
            model, _ = trainer.checkpoint_load(tmp_path / "first.ckpt")
        assert model.edges == base.edges and model.symmetrize_hops is True
        trainer.checkpoint_save(tmp_path / "m.ckpt", model)
        loaded, _ = trainer.checkpoint_load(tmp_path / "m.ckpt")
        assert loaded.edges == model.edges and loaded.symmetrize_hops is True
        np.testing.assert_array_equal(loaded.graph_block.masks, model.graph_block.masks)
        window = train_ds.inputs[:4]
        assert loaded.predict_raw(window).tobytes() == model.predict_raw(window).tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        model, _, _, _ = quick_setup()
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            trainer.checkpoint_load(path)

    def test_bad_magic_rejected(self, tmp_path):
        model, _, _, _ = quick_setup()
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model)
        blob = bytearray(path.read_bytes())
        blob[:6] = b"NOTCKP"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            trainer.checkpoint_load(path)

    def test_header_model_section_is_the_model_config(self, tmp_path):
        model, _, _, _ = quick_setup(gamma=0.25, tau=0.7, alpha=1.5)
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model)
        blob = path.read_bytes()
        magic = len(trainer.CHECKPOINT_MAGIC)
        (hlen,) = struct.unpack("<I", blob[magic : magic + 4])
        section = json.loads(blob[magic + 4 : magic + 4 + hlen])["model"]
        assert section == asdict(model.cfg)
        assert list(section) == [f.name for f in fields(ModelConfig)]

    def test_node_count_mismatch_names_both(self, tmp_path):
        model, _, _, _ = quick_setup(n=6)
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model)
        with pytest.raises(CheckpointError, match="6.*170"):
            trainer.checkpoint_load(path, expect_num_nodes=170)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda h: h["model"].update(bogus_key=1),
            lambda h: h["model"].update(embed_dim="wide"),
            lambda h: h["model"].update(embed_dim=0),
            lambda h: h["model"].pop("num_nodes"),
            lambda h: h.pop("params"),
            lambda h: h.pop("scaler"),
            lambda h: h["scaler"].pop("std"),  # the statistics carry their own shapes
            lambda h: h["params"].__setitem__(0, 5),
            lambda h: h["params"].__setitem__(0, ["graph.chain_st.e_init", "not a shape"]),
            lambda h: h["params"].__setitem__(0, ["nonexistent", h["params"][0][1]]),
            lambda h: h["edges"].append("x"),
            lambda h: h["model"].update(alpha=float("nan")),
            lambda h: h["model"].update(alpha=-1.0),
            lambda h: h["model"].update(tau=0.0),
            lambda h: h["model"].update(gamma=1.5),
            lambda h: h["model"].update(dropout_rate=1.0),
            lambda h: h["params"][0].__setitem__(1, [-2, -3]),
            lambda h: h["params"][0].__setitem__(1, [2**32, 2**32]),
            lambda h: h["params"][0].__setitem__(1, [0, 2**70]),
            lambda h: h["scaler"].update(mean=h["scaler"]["mean"][:-1], mean_shape=[5, 1]),
            lambda h: h["scaler"].update(std=[[[2.0]] * 6]),
            lambda h: h["scaler"]["mean"][0].__setitem__(0, float("nan")),
            lambda h: h["scaler"]["std"][0].__setitem__(0, float("inf")),
            lambda h: h["scaler"]["std"][0].__setitem__(0, 0.0),
            lambda h: h["scaler"]["std"][0].__setitem__(0, -1.0),
            lambda h: h["edges"].append([float("inf"), 0]),
            lambda h: h["edges"].append([99, 0]),
            lambda h: h["edges"].append([0, 1.9]),
            lambda h: h["edges"].append([True, 1]),
            lambda h: h.update(symmetrize_hops="false"),
            lambda h: h.update(symmetrize_hops="no"),
            lambda h: h.update(symmetrize_hops={"a": 1}),
            lambda h: h.update(symmetrize_hops=0),
            lambda h: h.update(extra_config=[1, 2]),
            lambda h: h["model"].update(eval_sampling_override=True),
            lambda h: h["model"].update(eval_sampling_override="false"),
        ],
        ids=[
            "unknown_model_key",
            "model_value_type",
            "model_zero_width",
            "missing_num_nodes",
            "missing_params",
            "missing_scaler",
            "scaler_without_shape",
            "params_entry_not_list",
            "params_shape_not_ints",
            "params_name_unknown",
            "edge_not_pair",
            "model_alpha_nan",
            "model_alpha_negative",
            "model_tau_zero",
            "model_gamma_above_one",
            "model_dropout_one",
            "params_shape_negative",
            "params_shape_count_overflows",
            "params_shape_empty_but_huge",
            "scaler_too_few_nodes",
            "scaler_extra_leading_axis",
            "scaler_mean_nan",
            "scaler_std_inf",
            "scaler_std_zero",
            "scaler_std_negative",
            "edge_id_infinite",
            "edge_outside_nodes",
            "edge_id_fractional",
            "edge_id_bool",
            "symmetrize_string_false",
            "symmetrize_string_no",
            "symmetrize_object",
            "symmetrize_int",
            "extra_config_list",
            "legacy_eval_sampling_true",
            "legacy_eval_sampling_string",
        ],
    )
    def test_mutated_header_rejected(self, tmp_path, mutate):
        model, _, _, _ = quick_setup()
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model)
        header, payload = split_checkpoint(path.read_bytes())
        mutate(header)
        path.write_bytes(join_checkpoint(header, payload))
        with pytest.raises(CheckpointError):
            trainer.checkpoint_load(path)

    def test_checkpoint_with_edge_bias_entry_loads_the_same_model(self, tmp_path):
        # Older checkpoints carry graph.edge_b, an edge-logit bias that cancelled
        # under normalization; the loader skips manifest entries the model lacks.
        model, (_, _, test_ds), _, _ = quick_setup(seed=5)
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model)
        header, payload = split_checkpoint(path.read_bytes())
        names = [name for name, _ in header["params"]]
        at = names.index("graph.edge_w") + 1
        offset = sum(8 * int(np.prod(shape)) for _, shape in header["params"][:at])
        header["params"].insert(at, ["graph.edge_b", [1]])
        payload = payload[:offset] + np.array([0.75], dtype="<f8").tobytes() + payload[offset:]
        old = tmp_path / "old.ckpt"
        old.write_bytes(join_checkpoint(header, payload))
        loaded, _ = trainer.checkpoint_load(old)
        assert [name for name, _ in loaded.parameters()] == [name for name, _ in model.parameters()]
        for (_, a), (_, b) in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        window = test_ds.inputs[:8]
        np.testing.assert_array_equal(loaded.predict_raw(window), model.predict_raw(window))

    def test_checkpoint_with_eval_sampling_false_loads_the_same_model(self, tmp_path):
        # Older headers end the model section with eval_sampling_override: false.
        model, (_, _, test_ds), _, _ = quick_setup(seed=6)
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model)
        header, payload = split_checkpoint(path.read_bytes())
        header["model"]["eval_sampling_override"] = False
        old = tmp_path / "old.ckpt"
        old.write_bytes(join_checkpoint(header, payload))
        loaded, _ = trainer.checkpoint_load(old)
        assert loaded.cfg == model.cfg
        window = test_ds.inputs[:8]
        np.testing.assert_array_equal(loaded.predict_raw(window), model.predict_raw(window))

    @pytest.mark.parametrize("scope", dmod.SCALER_SCOPES)
    def test_checkpoint_with_scaler_scope_and_shapes_loads_the_same_model(self, tmp_path, scope):
        # Older headers also carry the scaler's scope and its statistics' shapes; the
        # nested lists' own shapes say the same, so the loader ignores those keys.
        base, (_, _, test_ds), series, _ = quick_setup(seed=6)
        b1, _ = dmod.split_boundaries(series.num_steps)
        scaler = dmod.fit_scaler(series.values[:b1], scope)
        model = trainer.build_model(base.cfg, base.edges, scaler, seed=6)
        path = tmp_path / "m.ckpt"
        trainer.checkpoint_save(path, model)
        header, payload = split_checkpoint(path.read_bytes())
        assert list(header["scaler"]) == ["mean", "std"]
        mean, std = header["scaler"]["mean"], header["scaler"]["std"]
        header["scaler"] = {
            "scope": scope, "mean": mean, "std": std,
            "mean_shape": list(scaler.mean.shape), "std_shape": list(scaler.std.shape),
        }
        old = tmp_path / "old.ckpt"
        old.write_bytes(join_checkpoint(header, payload))
        loaded, _ = trainer.checkpoint_load(old)
        assert loaded.scaler.mean.shape == loaded.scaler.std.shape == ((1, 1) if scope == "global" else (6, 1))
        window = test_ds.inputs[:8]
        assert loaded.predict_raw(window).tobytes() == model.predict_raw(window).tobytes()


def split_checkpoint(blob):
    """(decoded JSON header, payload bytes) of a checkpoint file's bytes."""
    magic = len(trainer.CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", blob[magic : magic + 4])
    return json.loads(blob[magic + 4 : magic + 4 + hlen]), blob[magic + 4 + hlen :]


def join_checkpoint(header, payload):
    """The checkpoint bytes of a JSON header and a payload."""
    new = json.dumps(header).encode("utf-8")
    return trainer.CHECKPOINT_MAGIC + struct.pack("<I", len(new)) + new + payload


# -- checkpoint fuzz: every corruption is a CheckpointError or a model that predicts ------


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """(bytes, header end, a path to write cases to) of a 3-node checkpoint a few KB long."""
    cfg = ModelConfig(
        num_nodes=3, t_in=4, t_out=2, embed_dim=2, hop_dim=2, hidden_dim=3, levels=2, n_blocks=1
    )
    scaler = dmod.Scaler(mean=np.full((3, 1), 5.0), std=np.full((3, 1), 2.0))
    model = trainer.build_model(cfg, [(0, 1), (1, 2)], scaler, seed=0)
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    trainer.checkpoint_save(path, model)
    blob = path.read_bytes()
    magic = len(trainer.CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", blob[magic : magic + 4])
    return blob, magic + 4 + hlen, path.parent / "case.ckpt"


def loads_and_predicts(blob, path):
    """False if ``blob`` is rejected with CheckpointError; True if it loads and predicts."""
    path.write_bytes(blob)
    try:
        model, _ = trainer.checkpoint_load(path)
    except CheckpointError:
        return False
    cfg = model.cfg
    window = np.full((2, cfg.t_in, cfg.num_nodes, cfg.in_features), 5.0)
    with np.errstate(all="ignore"):  # flipped weights may overflow; they must not raise
        pred = model.predict_raw(window)
    assert pred.shape == (2, cfg.t_out, cfg.num_nodes, cfg.in_features)
    return True


class TestCheckpointFuzz:
    def test_every_truncation_rejected(self, tiny_checkpoint):
        blob, _, path = tiny_checkpoint
        assert loads_and_predicts(blob, path)
        for end in range(len(blob)):
            assert not loads_and_predicts(blob[:end], path), end

    @hypothesis.settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flipped_bytes_rejected_or_loadable(self, tiny_checkpoint, data):
        blob, header_end, path = tiny_checkpoint
        # Half the examples flip inside the magic, length and JSON header, half in the payload.
        lo, hi = data.draw(st.sampled_from([(0, header_end), (header_end, len(blob))]))
        flips = data.draw(st.lists(st.tuples(st.integers(lo, hi - 1), st.integers(1, 255)), min_size=1, max_size=3))
        case = bytearray(blob)
        for at, bits in flips:
            case[at] ^= bits
        loads_and_predicts(bytes(case), path)

    @hypothesis.settings(max_examples=60, deadline=None)
    @given(data=st.data(), value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_planted_non_finite_value_rejected(self, tiny_checkpoint, data, value):
        blob, header_end, path = tiny_checkpoint
        magic = len(trainer.CHECKPOINT_MAGIC)
        if data.draw(st.booleans()):
            at = header_end + 8 * data.draw(st.integers(0, (len(blob) - header_end) // 8 - 1))
            case = blob[:at] + struct.pack("<d", value) + blob[at + 8 :]
        else:
            header = json.loads(blob[magic + 4 : header_end])
            key = data.draw(st.sampled_from(["mean", "std"]))
            header["scaler"][key][data.draw(st.integers(0, 2))][0] = float(value)
            new = json.dumps(header).encode("utf-8")
            case = blob[:magic] + struct.pack("<I", len(new)) + new + blob[header_end:]
        with pytest.raises(CheckpointError, match="non-finite"):
            path.write_bytes(case)
            trainer.checkpoint_load(path)
