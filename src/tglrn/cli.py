"""Command-line surface: synth, train, eval, predict, gradcheck, inspect-graph.

Every command accepts an optional config file plus repeated --set
key=value overrides; the effective configuration is echoed into the
output directory. Errors print a single machine-parseable line
``ERROR:<exit_code>: message`` on stderr; running out of memory is one too.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as data_mod
from . import diffcore as dc
from . import gradcheck, roadnet, trainer
from .config import config_text, load_config, section
from .errors import ConfigError, DataError, TglrnError, write_csv
from .model import ModelConfig

GRADCHECK_EXIT = 5


def _ensure_out_dir(cfg, *required):
    """Check that every path named in ``required`` is set, then make the out dir."""
    for name in required:
        if not getattr(cfg, name):
            raise ConfigError(f"{name} is required")
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "effective_config.cfg"), "w") as fh:
            fh.write(config_text(cfg))
    except OSError as e:
        raise ConfigError(f"out_dir {cfg.out_dir!r} cannot hold the run's files: {e}") from None


def _checkpoint_target(cfg):
    """The path ``train`` saves to; a directory, a path under no directory, or one that
    cannot be written is rejected before any training."""
    path = cfg.checkpoint_path or os.path.join(cfg.out_dir, "model.ckpt")
    if os.path.isdir(path):
        raise ConfigError(f"checkpoint_path {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"checkpoint_path {path!r} is not inside an existing directory")
    if not os.access(parent, os.W_OK | os.X_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ConfigError(f"checkpoint_path {path!r} cannot be written")
    return path


def _outputs(cfg, *names):
    """The paths of the files ``names`` in the out dir; one that is a directory is rejected."""
    paths = [os.path.join(cfg.out_dir, name) for name in names]
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"output {path!r} is a directory")
    return paths


def _load_dataset(cfg):
    edges = roadnet.load_edges(cfg.edges_path)
    series = data_mod.load_flows(cfg.flows_path, cfg.num_nodes)
    ratios = (cfg.train_frac, cfg.val_frac, cfg.test_frac)
    splits = data_mod.make_windows(series, cfg.t_in, cfg.t_out, ratios)
    b1, _ = data_mod.split_boundaries(series.num_steps, ratios)
    scaler = data_mod.fit_scaler(series.values[:b1], cfg.scaler_scope)
    return edges, series, splits, scaler


def _write_metrics(path, report):
    write_csv(path, ("horizon", "mae", "rmse", "mape"), report.rows())


def cmd_synth(cfg):
    _ensure_out_dir(cfg)
    edges_path, flow_path, planted_path = _outputs(cfg, "edges.csv", "flow.csv", "planted.csv")
    net, series, planted = data_mod.synth_generate(section(cfg, data_mod.SynthSettings), cfg.seed)
    write_csv(edges_path, ("from", "to"), net.edges)
    sensors = [f"s{i}" for i in range(series.num_nodes)]
    write_csv(flow_path, ["t", *sensors], ((t, *row.tolist()) for t, row in enumerate(series.values[:, :, 0])))
    write_csv(planted_path, ("t", "from", "to", "coeff"), planted.records())
    print(f"wrote {edges_path}, {flow_path}, {planted_path}")
    return 0


def cmd_train(cfg):
    mcfg = section(cfg, ModelConfig)
    mcfg.validate()
    _ensure_out_dir(cfg, "flows_path", "edges_path")
    ckpt = _checkpoint_target(cfg)
    history_path, metrics_path = _outputs(cfg, "history.csv", "metrics.csv")
    edges, series, (train_ds, val_ds, test_ds), scaler = _load_dataset(cfg)
    if len(test_ds) == 0:
        raise DataError("train: test split holds no windows; raise test_frac or the series length")
    model = trainer.build_model(mcfg, edges, scaler, cfg.seed, cfg.symmetrize_hops)
    settings = section(cfg, trainer.TrainSettings)
    history, _ = trainer.train(model, train_ds, val_ds, settings, cfg.seed)
    trainer.write_history(history_path, history)
    trainer.checkpoint_save(ckpt, model, extra_config={"seed": cfg.seed})
    test_report = trainer.evaluate(model, test_ds, cfg.mape_threshold)
    _write_metrics(metrics_path, test_report)
    print(
        f"trained {len(history)} epochs, best val MAE {min(h.val_mae for h in history):.4f}, "
        f"test MAE {test_report.mae:.4f}; checkpoint at {ckpt}"
    )
    return 0


def _load_checkpoint_and_data(cfg):
    """Window the flows with the checkpoint's own shape parameters."""
    expect = cfg.num_nodes if cfg.num_nodes > 0 else None
    model, _ = trainer.checkpoint_load(cfg.checkpoint_path, expect_num_nodes=expect)
    series = data_mod.load_flows(cfg.flows_path, model.cfg.num_nodes)
    ratios = (cfg.train_frac, cfg.val_frac, cfg.test_frac)
    splits = data_mod.make_windows(series, model.cfg.t_in, model.cfg.t_out, ratios)
    return model, splits


def cmd_eval(cfg):
    _ensure_out_dir(cfg, "checkpoint_path", "flows_path")
    (metrics_path,) = _outputs(cfg, "metrics.csv")
    model, (_, _, test_ds) = _load_checkpoint_and_data(cfg)
    report = trainer.evaluate(model, test_ds, cfg.mape_threshold)
    _write_metrics(metrics_path, report)
    print("horizon,mae,rmse,mape")
    for horizon, mae, rmse, mape in report.rows():
        print(f"{horizon},{mae:.6f},{rmse:.6f},{mape:.6f}")
    return 0


def cmd_predict(cfg):
    _ensure_out_dir(cfg, "checkpoint_path", "flows_path")
    (path,) = _outputs(cfg, "predictions.csv")
    model, (_, _, test_ds) = _load_checkpoint_and_data(cfg)
    preds = trainer.batched_predictions(model, test_ds)
    rows = (
        (anchor, h, s, value)
        for anchor, window in zip(test_ds.anchors.tolist(), preds[..., 0])
        for h, step in enumerate(window.tolist(), start=1)
        for s, value in enumerate(step)
    )
    write_csv(path, ("t", "horizon", "sensor", "value"), rows)
    print(f"wrote {path}")
    return 0


def cmd_gradcheck(cfg, quick=False):
    reports = gradcheck.run_gradcheck_suite(seed=cfg.seed, quick=quick)
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        print(rep.line())
    print(f"gradcheck: {len(reports) - len(failed)}/{len(reports)} parameters passed")
    return 0 if not failed else GRADCHECK_EXIT


def _write_edges(path, seq, w):
    """One line per nonzero weight of window ``w`` of ``seq``, step by step, row-major."""
    rows, cols = seq.pattern.rows.tolist(), seq.pattern.cols.tolist()  # row-major, as np.nonzero lists pairs
    weights, hops = seq.values.data[w], seq.hop_choices[w]
    steps, pairs = np.nonzero(weights)
    lines = (
        (t, rows[p], cols[p], float(weights[t, p]), int(hops[t, rows[p]]))
        for t, p in zip(steps.tolist(), pairs.tolist())
    )
    write_csv(path, ("t", "i", "j", "weight", "hop_i"), lines)


def cmd_inspect_graph(cfg):
    _ensure_out_dir(cfg, "checkpoint_path", "flows_path")
    edge_path, hist_path = _outputs(cfg, "graph_edges.csv", "hop_histogram.csv")
    model, (_, _, test_ds) = _load_checkpoint_and_data(cfg)
    if len(test_ds) == 0:
        raise DataError("inspect-graph: test split holds no windows")
    count = min(cfg.inspect_windows, len(test_ds))
    widx = cfg.inspect_window_index
    if not 0 <= widx < count:
        raise ConfigError(
            f"inspect_window_index {widx} outside the {count} inspected windows "
            f"(raise inspect_windows or lower the index)"
        )

    # Built in evaluation's chunks, so memory does not grow with inspect_windows.
    levels = model.cfg.levels
    counts = np.zeros(levels, dtype=np.int64)
    for part in trainer.eval_chunks(model, count):
        with dc.no_grad():
            seq = model.graph_block.build(dc.Tensor(model.scaler.apply(test_ds.inputs[part])), "eval")
        counts += np.bincount(seq.hop_choices.ravel(), minlength=levels + 1)[1:]
        if part.start <= widx < part.stop:
            _write_edges(edge_path, seq, widx - part.start)

    total = counts.sum()
    rows = ((k, int(c), float(c / total) if total else 0.0) for k, c in enumerate(counts, start=1))
    write_csv(hist_path, ("hop", "count", "fraction"), rows)
    print(f"wrote {edge_path}, {hist_path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tglrn", description="Dynamic-graph traffic forecasting toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "train", "eval", "predict", "gradcheck", "inspect-graph"):
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None, help="key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
        if name == "synth":
            p.add_argument("--topology", dest="synth_topology", choices=("chain", "ring", "grid"))
            p.add_argument("--nodes", dest="synth_nodes", type=int, metavar="N")
            p.add_argument("--steps", dest="synth_steps", type=int, metavar="T")
            p.add_argument("--out", dest="out_dir", metavar="DIR")
        if name == "gradcheck":
            p.add_argument("--quick", action="store_true", help="skip the end-to-end model check")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        overrides = list(args.overrides)
        if args.command == "synth":  # its flags, stored under their config keys, override --set
            keys = ("synth_topology", "synth_nodes", "synth_steps", "out_dir")
            overrides += [f"{key}={getattr(args, key)}" for key in keys if getattr(args, key) is not None]
        cfg = load_config(args.config, overrides)
        commands = {
            "synth": cmd_synth, "train": cmd_train, "eval": cmd_eval, "predict": cmd_predict,
            "gradcheck": lambda c: cmd_gradcheck(c, quick=args.quick),
            "inspect-graph": cmd_inspect_graph,
        }
        # A value that overflows is reported once, by the check at the step where it appears.
        with np.errstate(all="ignore"):
            return commands[args.command](cfg)
    except TglrnError as e:
        code = getattr(e, "exit_code", 2)
        print(f"ERROR:{code}: {e}", file=sys.stderr)
        return code
    except OSError as e:  # a file that cannot be read or written, such as a full disk
        print(f"ERROR:{DataError.exit_code}: {e}", file=sys.stderr)
        return DataError.exit_code
    except MemoryError as e:  # settings that ask for more memory than the machine can give
        print(f"ERROR:{ConfigError.exit_code}: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
