"""Operator-surface checks: commands, artifacts, exit codes, config round-trip."""

import json
import os
import struct

import numpy as np
import pytest

from tglrn.cli import main


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
        from tglrn.data import load_flows, synth_generate

        series = load_flows(out / "flow.csv", 8)
        _, direct, _ = synth_generate(8, 160, topology="chain", seed=0)
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

    def test_inspect_graph_dumps(self, trained, tmp_path):
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
            "inspect_windows=4",
        ):
            args += ["--set", s]
        assert run(args) == 0
        edge_lines = (ins_out / "graph_edges.csv").read_text().strip().splitlines()
        assert edge_lines[0] == "t,i,j,weight,hop_i"
        hist = (ins_out / "hop_histogram.csv").read_text().strip().splitlines()
        assert hist[0] == "hop,count,fraction"
        assert len(hist) == 3  # levels=2
        fracs = [float(line.split(",")[2]) for line in hist[1:]]
        assert abs(sum(fracs) - 1.0) < 1e-9


class TestErrors:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("no_such_key = 5\n")
        assert run(["train", cfgfile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2:")
        assert "no_such_key" in err

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

    @pytest.mark.parametrize(
        "setting",
        [
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
            "synth_topology=star",
            "synth_nodes=2",
            "synth_topology=grid",
            "seed=-1",
            "train_frac=nan",
        ],
    )
    def test_bad_setting_exits_2_with_one_line(self, tmp_path, capsys, setting):
        data_dir = tmp_path / "d"
        run(synth_args(data_dir))
        capsys.readouterr()
        assert run(train_args(data_dir, tmp_path / "o", extra=[setting])) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:2:") and len(err.splitlines()) == 1, err
        assert setting.split("=")[0] in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

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


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("options")
    assert run(synth_args(root / "d")) == 0
    assert run(train_args(root / "d", root / "default")) == 0
    return root / "d", (root / "default" / "metrics.csv").read_bytes()


@pytest.mark.parametrize("option", ["symmetrize_hops=true", "scaler_scope=global", "normalized_loss=true"])
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


class TestGradcheckCommand:
    def test_quick_suite_exit_zero(self, capsys):
        assert run(["gradcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


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
