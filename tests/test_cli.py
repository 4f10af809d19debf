"""Operator-surface checks: commands, artifacts, exit codes, config round-trip."""

import json
import os
import struct
import subprocess
import sys
from dataclasses import astuple, fields

import numpy as np
import pytest

from tglrn import data as dmod
from tglrn import trainer
from tglrn.cli import main
from tglrn.config import RunConfig
from tglrn.errors import ConfigError
from tglrn.model import ModelConfig


def run(args):
    return main([str(a) for a in args])


def synth_args(out_dir, extra=()):
    return [
        "synth",
        "--topology",
        "chain",
        "--nodes",
        "8",
        "--steps",
        "160",
        "--out",
        out_dir,
    ] + list(extra)


TRAIN_SETS = [
    "t_in=6",
    "t_out=3",
    "embed_dim=4",
    "hop_dim=4",
    "hidden_dim=8",
    "levels=2",
    "n_blocks=1",
    "max_epochs=2",
    "batch_size=32",
    "synth_noise_std=0.5",
]


def train_args(data_dir, out_dir, extra=()):
    sets = [
        f"edges_path={data_dir}/edges.csv",
        f"flows_path={data_dir}/flow.csv",
        "num_nodes=8",
        f"out_dir={out_dir}",
    ] + TRAIN_SETS + list(extra)
    args = ["train"]
    for s in sets:
        args += ["--set", s]
    return args


def command_args(command, data_dir, out_dir):
    """``command`` writing to ``out_dir``, with every input it needs named under ``data_dir``."""
    sets = [f"out_dir={out_dir}", "num_nodes=8"]
    if command == "train":
        sets += [f"edges_path={data_dir}/edges.csv", f"flows_path={data_dir}/flow.csv"]
    elif command != "synth":
        sets += [f"checkpoint_path={data_dir}/model.ckpt", f"flows_path={data_dir}/flow.csv"]
    args = [command]
    for s in sets:
        args += ["--set", s]
    return args


# The keys whose checks belong to a library entry point: synth_generate, train,
# make_windows, fit_scaler.
LIBRARY_KEYS = {f.name for spec in (dmod.SynthSettings, trainer.TrainSettings) for f in fields(spec)}
LIBRARY_KEYS |= {"train_frac", "val_frac", "test_frac", "scaler_scope"}
# One bad value each; the config rejects every one with exit 2 before any work.
BAD_SETTINGS = [
    "tau=0",
    "tau=-1",
    "tau=inf",
    "batch_size=0",
    "levels=0",
    "diff_steps=0",
    "kernel_size=0",
    "embed_dim=0",
    "hop_dim=0",
    "hidden_dim=-4",
    "hidden_dim=1",
    "n_blocks=0",
    "max_epochs=0",
    "patience=-1",
    "learning_rate=-1",
    "learning_rate=0",
    "learning_rate=inf",
    "alpha=nan",
    "alpha=-1",
    "alpha=0",
    "alpha=inf",
    "mape_threshold=nan",
    "mape_threshold=-1",
    "synth_noise_std=-1",
    "synth_amplitude=inf",
    "synth_offset=nan",
    "synth_coupling_a=-inf",
    "synth_regime_period=0",
    "synth_period=0",
    "synth_steps=0",
    "synth_topology=star",
    "synth_nodes=2",
    "synth_topology=grid",
    "seed=-1",
    "train_frac=nan",
    "scaler_scope=median",
    # values that effective_config.cfg would echo as a comment or as a second line
    "flows_path=#3",
    "flows_path=data/a #3.csv",
    "edges_path=data/a\t#3.csv",
    "flows_path=a.csv\nseed=5",
]


class TestSynth:
    def test_writes_three_csvs_with_headers(self, tmp_path):
        out = tmp_path / "synthout"
        assert run(synth_args(out)) == 0
        assert (out / "edges.csv").read_text().splitlines()[0] == "from,to"
        assert (out / "flow.csv").read_text().splitlines()[0].startswith("t,s0,")
        assert (out / "planted.csv").read_text().splitlines()[0] == "t,from,to,coeff"
        assert (out / "effective_config.cfg").exists()

    def test_flow_roundtrips_through_loader(self, tmp_path):
        out = tmp_path / "s"
        run(synth_args(out))
        series = dmod.load_flows(out / "flow.csv", 8)
        _, direct, _ = dmod.synth_generate(dmod.SynthSettings(synth_nodes=8, synth_steps=160), 0)
        np.testing.assert_allclose(series.values, direct.values, atol=1e-15)


class TestTrainEval:
    @pytest.fixture()
    def trained(self, tmp_path):
        data_dir = tmp_path / "data"
        run(synth_args(data_dir))
        out = tmp_path / "run1"
        assert run(train_args(data_dir, out)) == 0
        return data_dir, out

    def test_train_artifacts(self, trained):
        _, out = trained
        for name in ("history.csv", "model.ckpt", "metrics.csv", "effective_config.cfg"):
            assert (out / name).exists(), name

    def test_train_deterministic(self, trained, tmp_path):
        data_dir, out1 = trained
        out2 = tmp_path / "run2"
        assert run(train_args(data_dir, out2)) == 0
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_config_roundtrip_reproduces(self, trained, tmp_path):
        data_dir, out1 = trained
        out3 = tmp_path / "run3"
        echoed = out1 / "effective_config.cfg"
        assert run(["train", echoed, "--set", f"out_dir={out3}"]) == 0
        assert (out1 / "history.csv").read_bytes() == (out3 / "history.csv").read_bytes()

    def test_eval_writes_per_horizon_metrics(self, trained, tmp_path, capsys):
        data_dir, out = trained
        eval_out = tmp_path / "evalout"
        args = ["eval"]
        for s in (
            f"edges_path={data_dir}/edges.csv",
            f"flows_path={data_dir}/flow.csv",
            "num_nodes=8",
            "t_in=6",
            "t_out=3",
            f"checkpoint_path={out}/model.ckpt",
            f"out_dir={eval_out}",
        ):
            args += ["--set", s]
        assert run(args) == 0
        lines = (eval_out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "horizon,mae,rmse,mape"
        assert len(lines) == 1 + 1 + 3  # header + overall + one row per horizon
        first = (eval_out / "metrics.csv").read_bytes()
        assert run(args) == 0  # repeated eval is byte-identical
        assert (eval_out / "metrics.csv").read_bytes() == first

    def test_predict_writes_rows(self, trained, tmp_path):
        data_dir, out = trained
        pred_out = tmp_path / "predout"
        args = ["predict"]
        for s in (
            f"edges_path={data_dir}/edges.csv",
            f"flows_path={data_dir}/flow.csv",
            "num_nodes=8",
            "t_in=6",
            "t_out=3",
            f"checkpoint_path={out}/model.ckpt",
            f"out_dir={pred_out}",
        ):
            args += ["--set", s]
        assert run(args) == 0
        lines = (pred_out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "t,horizon,sensor,value"
        assert len(lines) > 1

    def test_eval_rejects_out_of_range_checkpoint_alpha(self, trained, tmp_path, capsys):
        from tglrn.trainer import CHECKPOINT_MAGIC

        data_dir, out = trained
        blob = (out / "model.ckpt").read_bytes()
        m = len(CHECKPOINT_MAGIC)
        (hlen,) = struct.unpack("<I", blob[m : m + 4])
        header = json.loads(blob[m + 4 : m + 4 + hlen])
        header["model"]["alpha"] = -1.0
        new = json.dumps(header).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:m] + struct.pack("<I", len(new)) + new + blob[m + 4 + hlen :])
        args = ["eval"]
        for s in (
            f"edges_path={data_dir}/edges.csv",
            f"flows_path={data_dir}/flow.csv",
            "num_nodes=8",
            f"checkpoint_path={bad}",
            f"out_dir={tmp_path}/evalout",
        ):
            args += ["--set", s]
        capsys.readouterr()
        assert run(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR:3:") and len(err.splitlines()) == 1, err
        assert "alpha" in err and "Traceback" not in err

    def test_eval_rejects_non_finite_checkpoint_weight(self, trained, tmp_path, capsys):
        data_dir, out = trained
        blob = (out / "model.ckpt").read_bytes()
        for value in (np.nan, np.inf):
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(blob[:-8] + struct.pack("<d", value))  # last entry of head.b
            args = ["eval"]
            for s in (
                f"flows_path={data_dir}/flow.csv",
                "num_nodes=8",
                f"checkpoint_path={bad}",
                f"out_dir={tmp_path}/evalout",
            ):
                args += ["--set", s]
            capsys.readouterr()
            assert run(args) == 3
            err = capsys.readouterr().err
            assert err.startswith("ERROR:3:") and len(err.splitlines()) == 1, err
            assert "head.b" in err and "Traceback" not in err

    def test_eval_rejects_malformed_checkpoint_header(self, trained, tmp_path, capsys):
        from tglrn.trainer import CHECKPOINT_MAGIC

        data_dir, out = trained
        blob = (out / "model.ckpt").read_bytes()
        m = len(CHECKPOINT_MAGIC)
        (hlen,) = struct.unpack("<I", blob[m : m + 4])
        mutations = {
            "negative_shape": lambda h: h["params"][0].__setitem__(1, [-2, -3]),
            "overflowing_shape": lambda h: h["params"][0].__setitem__(1, [2**32, 2**32]),
            "scaler_for_fewer_nodes": lambda h: h["scaler"].update(
                mean=h["scaler"]["mean"][:-1], mean_shape=[7, 1]
            ),
            "scaler_mean_nan": lambda h: h["scaler"]["mean"][0].__setitem__(0, float("nan")),
            "scaler_std_zero": lambda h: h["scaler"]["std"][0].__setitem__(0, 0.0),
            "legacy_eval_sampling_true": lambda h: h["model"].update(eval_sampling_override=True),
            "legacy_eval_sampling_string": lambda h: h["model"].update(
                eval_sampling_override="false"
            ),
        }
        for label, mutate in mutations.items():
            header = json.loads(blob[m + 4 : m + 4 + hlen])
            mutate(header)
            new = json.dumps(header).encode("utf-8")
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(blob[:m] + struct.pack("<I", len(new)) + new + blob[m + 4 + hlen :])
            args = ["eval"]
            for s in (
                f"edges_path={data_dir}/edges.csv",
                f"flows_path={data_dir}/flow.csv",
                "num_nodes=8",
                f"checkpoint_path={bad}",
                f"out_dir={tmp_path}/evalout",
            ):
                args += ["--set", s]
            capsys.readouterr()
            assert run(args) == 3, label
            err = capsys.readouterr().err
            assert err.startswith("ERROR:3:") and len(err.splitlines()) == 1, (label, err)
            assert "Traceback" not in err, label

    def test_inspect_graph_dumps(self, trained, tmp_path):
        self.check_inspect_graph(trained, tmp_path, windows=4, index=2)

    def test_inspect_graph_dumps_a_window_past_the_first_chunk(self, trained, tmp_path):
        # Two eval chunks, the second one partial and holding the dumped window.
        windows = trainer.EVAL_BATCH + 8
        self.check_inspect_graph(trained, tmp_path, windows, index=trainer.EVAL_BATCH + 2)

    @staticmethod
    def check_inspect_graph(trained, tmp_path, windows, index):
        """Both CSVs of inspect-graph against the per-op oracle over the same windows."""
        data_dir, out = trained
        ins_out = tmp_path / "insout"
        args = ["inspect-graph"]
        for s in (
            f"edges_path={data_dir}/edges.csv",
            f"flows_path={data_dir}/flow.csv",
            "num_nodes=8",
            "t_in=6",
            "t_out=3",
            f"checkpoint_path={out}/model.ckpt",
            f"out_dir={ins_out}",
            f"inspect_windows={windows}",
            f"inspect_window_index={index}",
        ):
            args += ["--set", s]
        assert run(args) == 0
        edge_lines = (ins_out / "graph_edges.csv").read_text().strip().splitlines()
        assert edge_lines[0] == "t,i,j,weight,hop_i"
        # The rows are the nonzeros of the window's dense adjacencies, from the per-op oracle.
        from tglrn.data import load_flows, make_windows
        from tglrn.diffcore import Tensor, no_grad
        from test_dyngraph import oracle_build

        model, _ = trainer.checkpoint_load(out / "model.ckpt")
        test_ds = make_windows(load_flows(data_dir / "flow.csv", 8), 6, 3)[2]
        assert len(test_ds) >= windows
        window = Tensor(model.scaler.apply(test_ds.inputs[:windows]))
        with no_grad():
            adjs, hops = oracle_build(model.graph_block, window, "eval")
        want = [
            (t, i, j, hops[index, t, i])
            for t, a in enumerate(adjs)
            for i, j in zip(*np.nonzero(a.data[index]))
        ]
        assert want
        rows = [line.split(",") for line in edge_lines[1:]]
        assert [(int(t), int(i), int(j), int(h)) for t, i, j, _, h in rows] == want
        weights = np.array([float(row[3]) for row in rows])
        dense = np.array([adjs[t].data[index, i, j] for t, i, j, _ in want])
        np.testing.assert_allclose(weights, dense, rtol=1e-12, atol=0.0)
        hist = (ins_out / "hop_histogram.csv").read_text().strip().splitlines()
        assert hist[0] == "hop,count,fraction"
        assert len(hist) == 3  # levels=2
        counts = [int(line.split(",")[1]) for line in hist[1:]]
        assert counts == np.bincount(hops.ravel(), minlength=3)[1:].tolist()
        fracs = [float(line.split(",")[2]) for line in hist[1:]]
        assert abs(sum(fracs) - 1.0) < 1e-9


def test_inspect_graph_on_a_wide_model_matches_the_whole_chunk_plan(tmp_path, monkeypatch):
    # A model at PARALLEL_EVAL_WIDTH (64 nodes, hidden_dim 12) builds its graphs in
    # 4-window chunks; window 6 lies in the second one. Both CSVs must equal those
    # of one 12-window build, the plan below the width.
    from tglrn.data import fit_scaler, load_flows

    data_dir = tmp_path / "d"
    assert run(["synth", "--nodes", "64", "--steps", "200", "--out", data_dir]) == 0
    cfg = ModelConfig(num_nodes=64, t_in=6, t_out=3, embed_dim=2, hop_dim=2, hidden_dim=12, levels=2, n_blocks=1)
    assert cfg.num_nodes * cfg.hidden_dim >= trainer.PARALLEL_EVAL_WIDTH
    edges = [tuple(map(int, line.split(","))) for line in (data_dir / "edges.csv").read_text().split()[1:]]
    scaler = fit_scaler(load_flows(data_dir / "flow.csv", 64).values[:120])
    trainer.checkpoint_save(tmp_path / "wide.ckpt", trainer.build_model(cfg, edges, scaler, seed=3))

    def inspect(out):
        args = ["inspect-graph"]
        for s in (f"flows_path={data_dir}/flow.csv", f"checkpoint_path={tmp_path}/wide.ckpt",
                  f"out_dir={out}", "inspect_windows=12", "inspect_window_index=6"):
            args += ["--set", s]
        assert run(args) == 0
        return [(out / name).read_bytes() for name in ("graph_edges.csv", "hop_histogram.csv")]

    model, _ = trainer.checkpoint_load(tmp_path / "wide.ckpt")
    assert [part.start for part in trainer.eval_chunks(model, 12)] == [0, 4, 8]
    chunked = inspect(tmp_path / "chunked")
    monkeypatch.setattr(trainer, "PARALLEL_EVAL_WIDTH", cfg.num_nodes * cfg.hidden_dim + 1)
    assert inspect(tmp_path / "whole") == chunked
    assert chunked[0].count(b"\n") > 1


def float_bits(values):
    """The float64 bit patterns of ``values``, parsed first where they are CSV cells."""
    return np.array([float(v) for v in values], dtype=np.float64).view(np.int64).tolist()


def test_every_float_cell_reads_back_bitwise(tmp_path, monkeypatch):
    """synth, train, eval, predict and inspect-graph write each float as the value computed in-process."""
    returned = []
    real_train = trainer.train

    def recording_train(*args, **kwargs):
        returned.append(real_train(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(trainer, "train", recording_train)
    data_dir, out = tmp_path / "data", tmp_path / "train"
    assert run(synth_args(data_dir)) == 0
    assert run(train_args(data_dir, out)) == 0
    for command in ("eval", "predict", "inspect-graph"):
        args = [command]
        for s in (f"checkpoint_path={out}/model.ckpt", f"flows_path={data_dir}/flow.csv", f"out_dir={tmp_path / command}"):
            args += ["--set", s]
        assert run(args) == 0, command

    def rows(path):
        return [line.split(",") for line in path.read_text().splitlines()[1:]]

    model, _ = trainer.checkpoint_load(out / "model.ckpt")
    test_ds = dmod.make_windows(dmod.load_flows(data_dir / "flow.csv", 8), 6, 3)[2]

    preds = trainer.batched_predictions(model, test_ds)
    got = rows(tmp_path / "predict" / "predictions.csv")
    _, horizons, sensors, _ = preds.shape
    keys = [(a, h + 1, s) for a in test_ds.anchors.tolist() for h in range(horizons) for s in range(sensors)]
    assert [tuple(map(int, row[:3])) for row in got] == keys
    assert float_bits(row[3] for row in got) == float_bits(preds[..., 0].ravel())

    ((history, _),) = returned
    got = rows(out / "history.csv")
    assert [int(row[0]) for row in got] == [rec.epoch for rec in history]
    assert float_bits(c for row in got for c in row[1:]) == float_bits(
        v for rec in history for v in astuple(rec)[1:]
    )

    report = trainer.evaluate(model, test_ds)
    for path in (out / "metrics.csv", tmp_path / "eval" / "metrics.csv"):
        got = rows(path)
        assert [row[0] for row in got] == [row[0] for row in report.rows()], path
        assert float_bits(c for row in got for c in row[1:]) == float_bits(
            v for row in report.rows() for v in row[1:]
        ), path

    _, _, planted = dmod.synth_generate(dmod.SynthSettings(synth_nodes=8, synth_steps=160), 0)
    got, want = rows(data_dir / "planted.csv"), list(planted.records())
    assert [tuple(map(int, row[:3])) for row in got] == [rec[:3] for rec in want]
    assert float_bits(row[3] for row in got) == float_bits(rec[3] for rec in want)

    emitted = [data_dir / name for name in ("edges.csv", "flow.csv", "planted.csv")] + [
        out / "history.csv", out / "metrics.csv", tmp_path / "eval" / "metrics.csv",
        tmp_path / "predict" / "predictions.csv",
        tmp_path / "inspect-graph" / "graph_edges.csv", tmp_path / "inspect-graph" / "hop_histogram.csv",
    ]
    for path in emitted:
        assert "np." not in path.read_text(), path


class TestErrors:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("no_such_key = 5\n")
        assert run(["train", cfgfile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2:")
        assert "no_such_key" in err

    def test_removed_eval_sampling_key_exits_2_before_out_dir(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(train_args(tmp_path, out, extra=["eval_sampling_override=true"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2: unknown config key 'eval_sampling_override'"), err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_removed_normalized_loss_key_exits_2_before_out_dir(self, tmp_path, capsys):
        cfgfile = tmp_path / "echoed.cfg"
        cfgfile.write_text("normalized_loss = false\n")
        out = tmp_path / "o"
        assert run(["train", cfgfile] + train_args(tmp_path, out)[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2: unknown config key 'normalized_loss'"), err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_edge_id_that_is_not_a_finite_whole_number_exits_3(self, tmp_path):
        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        edges = (data_dir / "edges.csv").read_text().splitlines()
        for cell in ("inf", "1e400", "nan", "1.5"):
            bad = tmp_path / f"edges_{cell}.csv"
            bad.write_text("\n".join(edges[:2] + [f"{cell},1"] + edges[2:]) + "\n")
            args = train_args(data_dir, tmp_path / "o", extra=[f"edges_path={bad}"])
            proc = run_cli(args)
            assert proc.returncode == 3, (cell, proc.stderr)
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("ERROR:3:"), (cell, proc.stderr)
            assert "line 3" in lines[0] and "Traceback" not in proc.stderr, cell

    def test_missing_flow_file_exits_3(self, tmp_path, capsys):
        args = ["train"]
        for s in (
            "edges_path=/nope/e.csv",
            "flows_path=/nope/f.csv",
            "num_nodes=4",
            f"out_dir={tmp_path}/o",
        ):
            args += ["--set", s]
        assert run(args) == 3
        assert capsys.readouterr().err.startswith("ERROR:3:")

    def test_invalid_schedule_exits_2(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        args = train_args(data_dir, tmp_path / "o", extra=["kernel_size=6"])
        assert run(args) == 2
        assert "underflow" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gamma_out_of_range_exits_2(self, capsys):
        assert run(["gradcheck", "--quick", "--set", "gamma=1.5"]) == 2

    @pytest.mark.parametrize("setting", BAD_SETTINGS)
    def test_bad_setting_exits_2_with_one_line(self, tmp_path, capsys, setting):
        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        capsys.readouterr()
        assert run(train_args(data_dir, tmp_path / "o", extra=[setting])) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2:") and len(err.splitlines()) == 1, err
        assert setting.split("=")[0] in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting", [s for s in BAD_SETTINGS if s.split("=")[0] in LIBRARY_KEYS])
    def test_bad_setting_raises_config_error_from_the_library(self, setting):
        # The check the config runs is the one the library entry point runs.
        key, raw = setting.split("=")
        value = type(getattr(RunConfig(), key))(raw)
        series = dmod.FlowSeries(values=np.random.default_rng(0).uniform(1.0, 9.0, (40, 4, 1)))
        if key.startswith("synth_"):
            call = lambda: dmod.synth_generate(dmod.SynthSettings(**{key: value}), 0)
        elif key.endswith("_frac"):
            ratios = {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2, key: value}
            call = lambda: dmod.make_windows(series, 4, 2, tuple(ratios.values()))
        elif key == "scaler_scope":
            call = lambda: dmod.fit_scaler(series.values, value)
        else:
            train_ds, val_ds, _ = dmod.make_windows(series, 4, 2)
            cfg = ModelConfig(num_nodes=4, t_in=4, t_out=2, embed_dim=2, hop_dim=2, hidden_dim=4, levels=2, n_blocks=1)
            model = trainer.build_model(cfg, [(0, 1), (1, 2), (2, 3)], dmod.fit_scaler(series.values), 0)
            call = lambda: trainer.train(model, train_ds, val_ds, trainer.TrainSettings(**{key: value}), 0)
        with pytest.raises(ConfigError, match=key):
            call()

    @pytest.mark.parametrize(
        "setting",
        [
            f"hidden_dim={2**62}",
            f"hidden_dim={2**60}",
            f"embed_dim={2**62}",
            f"hop_dim={2**62}",
            f"t_in={2**62}",
            f"t_out={2**62}",
        ],
    )
    def test_unsizable_parameter_exits_2_before_out_dir(self, tmp_path, capsys, setting):
        # Every value here makes some parameter larger than numpy can size, so even
        # a build that got past the check would raise rather than allocate.
        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        capsys.readouterr()
        assert run(train_args(data_dir, tmp_path / "o", extra=[setting])) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2: parameter ") and len(err.splitlines()) == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra", [[f"levels={2**40}"], [f"n_blocks={2**40}", "kernel_size=1"]])
    def test_count_no_machine_can_hold_exits_2_before_out_dir(self, tmp_path, capsys, monkeypatch, extra):
        from tglrn import cli as cli_mod

        # Should the check regress, fail here rather than build masks or blocks without bound.
        monkeypatch.setattr(cli_mod.trainer, "build_model", lambda *a, **k: pytest.fail("model built"))
        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        capsys.readouterr()
        assert run(train_args(data_dir, tmp_path / "o", extra=extra)) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2: parameters would need") and len(err.splitlines()) == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, omitted",
        [
            ("train", "flows_path"),
            ("train", "edges_path"),
            ("eval", "checkpoint_path"),
            ("eval", "flows_path"),
            ("predict", "checkpoint_path"),
            ("predict", "flows_path"),
            ("inspect-graph", "checkpoint_path"),
            ("inspect-graph", "flows_path"),
        ],
    )
    def test_missing_required_path_exits_2_before_out_dir(self, tmp_path, capsys, command, omitted):
        sets = {
            "edges_path": tmp_path / "edges.csv",
            "flows_path": tmp_path / "flow.csv",
            "checkpoint_path": tmp_path / "model.ckpt",
            "num_nodes": 8,
            "out_dir": tmp_path / "o",
        }
        del sets[omitted]
        args = [command]
        for key, value in sets.items():
            args += ["--set", f"{key}={value}"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err == f"ERROR:2: {omitted} is required\n"
        assert not (tmp_path / "o").exists()

    def test_empty_validation_split_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        from tglrn import cli as cli_mod

        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        capsys.readouterr()
        steps = []
        monkeypatch.setattr(cli_mod.trainer.Adam, "step", lambda self: steps.append(self.t))
        fracs = ["train_frac=0.8", "val_frac=0", "test_frac=0.2"]
        assert run(train_args(data_dir, tmp_path / "o", extra=fracs)) == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR:3:") and len(err.splitlines()) == 1, err
        assert "validation" in err and "Traceback" not in err
        assert steps == []

    def test_empty_test_split_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        from tglrn import cli as cli_mod

        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        capsys.readouterr()
        steps = []
        monkeypatch.setattr(cli_mod.trainer.Adam, "step", lambda self: steps.append(self.t))
        fracs = ["train_frac=0.8", "val_frac=0.2", "test_frac=0"]
        assert run(train_args(data_dir, tmp_path / "o", extra=fracs)) == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR:3: train: test split") and len(err.splitlines()) == 1, err
        assert steps == []
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["effective_config.cfg"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    def test_failed_checkpoint_write_exits_3_with_one_line(self, tmp_path):
        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        proc = run_cli(train_args(data_dir, tmp_path / "o", extra=["checkpoint_path=/dev/full"]))
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:3: "), proc.stderr
        assert "/dev/full" in lines[0] and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["directory", "under_a_file", "missing_parent"])
    def test_unusable_checkpoint_path_exits_2_before_training(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        from tglrn import cli as cli_mod

        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        (tmp_path / "ckdir").mkdir()
        (tmp_path / "afile").write_text("")
        ckpt = {
            "directory": tmp_path / "ckdir",
            "under_a_file": tmp_path / "afile" / "model.ckpt",
            "missing_parent": tmp_path / "nope" / "model.ckpt",
        }[kind]
        capsys.readouterr()
        steps = []
        monkeypatch.setattr(cli_mod.trainer.Adam, "step", lambda self: steps.append(self.t))
        assert run(train_args(data_dir, tmp_path / "o", extra=[f"checkpoint_path={ckpt}"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2: checkpoint_path") and len(err.splitlines()) == 1, err
        assert str(ckpt) in err
        assert steps == []
        assert not (tmp_path / "o" / "history.csv").exists()

    @pytest.mark.parametrize("kind", ["directory", "file"])
    def test_unwritable_checkpoint_path_exits_2_before_training(self, tmp_path, capsys, monkeypatch, kind):
        # Root writes whatever the mode bits say, so os.access is told that the
        # directory, or the checkpoint file already in it, cannot be written.
        from tglrn import cli as cli_mod

        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        ckpt = tmp_path / "locked" / "model.ckpt"
        ckpt.parent.mkdir()
        if kind == "file":
            ckpt.write_bytes(b"")
        locked = str(ckpt.parent if kind == "directory" else ckpt)
        access = os.access
        monkeypatch.setattr(cli_mod.os, "access", lambda p, mode: os.fspath(p) != locked and access(p, mode))
        capsys.readouterr()
        steps = []
        monkeypatch.setattr(cli_mod.trainer.Adam, "step", lambda self: steps.append(self.t))
        assert run(train_args(data_dir, tmp_path / "o", extra=[f"checkpoint_path={ckpt}"])) == 2
        err = capsys.readouterr().err
        assert err == f"ERROR:2: checkpoint_path {str(ckpt)!r} cannot be written\n", err
        assert steps == []
        assert not (tmp_path / "o" / "history.csv").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "predict", "inspect-graph"])
    def test_out_dir_under_a_regular_file_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        assert run(command_args(command, tmp_path, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2: out_dir") and len(err.splitlines()) == 1, err
        assert str(out) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, name",
        [
            ("synth", "edges.csv"),
            ("synth", "flow.csv"),
            ("synth", "planted.csv"),
            ("train", "history.csv"),
            ("train", "metrics.csv"),
            ("eval", "metrics.csv"),
            ("predict", "predictions.csv"),
            ("inspect-graph", "graph_edges.csv"),
            ("inspect-graph", "hop_histogram.csv"),
        ],
    )
    def test_output_that_is_a_directory_exits_2_before_work(self, tmp_path, capsys, command, name):
        # The input files do not exist: reading any of them would exit 3 instead.
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert run(command_args(command, tmp_path, out)) == 2
        err = capsys.readouterr().err
        assert err == f"ERROR:2: output {str(out / name)!r} is a directory\n"
        assert sorted(p.name for p in out.iterdir()) == sorted([name, "effective_config.cfg"])


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("options")
    assert run(synth_args(root / "d")) == 0
    assert run(train_args(root / "d", root / "default")) == 0
    return root / "d", (root / "default" / "metrics.csv").read_bytes()


@pytest.mark.parametrize("option", ["symmetrize_hops=true", "scaler_scope=global"])
def test_option_changes_metrics_and_eval_reproduces_them(default_run, tmp_path, option):
    data_dir, default_metrics = default_run
    out = tmp_path / "train"
    assert run(train_args(data_dir, out, extra=[option])) == 0
    metrics = (out / "metrics.csv").read_bytes()
    assert metrics != default_metrics, f"{option} left the test metrics unchanged"
    args = ["eval"]
    for s in (f"flows_path={data_dir}/flow.csv", f"checkpoint_path={out}/model.ckpt", f"out_dir={tmp_path / 'eval'}"):
        args += ["--set", s]
    assert run(args) == 0
    assert (tmp_path / "eval" / "metrics.csv").read_bytes() == metrics


@pytest.mark.parametrize("command", ["eval", "predict", "inspect-graph"])
def test_checkpoint_command_without_a_test_window_exits_3(default_run, tmp_path, capsys, command):
    data_dir, _ = default_run
    out = tmp_path / "o"
    args = [command]
    for s in (
        f"checkpoint_path={data_dir.parent / 'default' / 'model.ckpt'}", f"flows_path={data_dir}/flow.csv",
        f"out_dir={out}", "train_frac=0.8", "val_frac=0.2", "test_frac=0",
    ):
        args += ["--set", s]
    capsys.readouterr()
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err == f"ERROR:3: {command}: test split holds no windows; raise test_frac\n", err
    assert sorted(p.name for p in out.iterdir()) == ["effective_config.cfg"]


class TestGradcheckCommand:
    def test_quick_suite_exit_zero(self, capsys):
        assert run(["gradcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


def run_cli(args):
    """``args`` through the CLI in a child process, whose whole stderr is then seen."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "tglrn.cli"] + [str(a) for a in args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_overflowing_learning_rate_prints_only_the_error_line(tmp_path):
    data_dir = tmp_path / "d"
    run(synth_args(data_dir))
    proc = run_cli(train_args(data_dir, tmp_path / "o", extra=["learning_rate=1e300"]))
    assert proc.returncode == 4, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR:4: "), proc.stderr


def test_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    from tglrn import cli as cli_mod

    data_dir = tmp_path / "d"
    run(synth_args(data_dir))
    capsys.readouterr()

    def starved_train(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (2, 2**62)")

    monkeypatch.setattr(cli_mod.trainer, "train", starved_train)
    assert run(train_args(data_dir, tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR:2: out of memory: Unable to allocate") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err


def test_numeric_failure_exits_4(tmp_path, monkeypatch, capsys):
    from tglrn import cli as cli_mod
    from tglrn.errors import NumericError

    data_dir = tmp_path / "d"
    run(synth_args(data_dir))

    def poisoned_train(*args, **kwargs):
        raise NumericError("non-finite loss; first non-finite parameter gradient: head.w")

    monkeypatch.setattr(cli_mod.trainer, "train", poisoned_train)
    assert run(train_args(data_dir, tmp_path / "o")) == 4
    assert capsys.readouterr().err.startswith("ERROR:4:")
