"""Command-line surface: synth, train, eval, predict, gradcheck, inspect-graph.

Every command accepts an optional config file plus repeated --set
key=value overrides; the effective configuration is echoed into the
output directory. Errors print a single machine-parseable line
``ERROR:<exit_code>: message`` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as data_mod
from . import gradcheck, trainer
from .config import config_text, load_config, section
from .errors import ConfigError, DataError, TglrnError
from .model import ModelConfig

GRADCHECK_EXIT = 5


def _ensure_out_dir(cfg, *required):
    """Check that every path named in ``required`` is set, then make the out dir."""
    for name in required:
        if not getattr(cfg, name):
            raise ConfigError(f"{name} is required")
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "effective_config.cfg"), "w") as fh:
        fh.write(config_text(cfg))


def _load_dataset(cfg):
    from . import roadnet

    edges = roadnet.load_edges(cfg.edges_path)
    series = data_mod.load_flows(cfg.flows_path, cfg.num_nodes)
    ratios = (cfg.train_frac, cfg.val_frac, cfg.test_frac)
    splits = data_mod.make_windows(series, cfg.t_in, cfg.t_out, ratios)
    b1, _ = data_mod.split_boundaries(series.num_steps, ratios)
    scaler = data_mod.fit_scaler(series.values[:b1], cfg.scaler_scope)
    return edges, series, splits, scaler


def _write_metrics(path, report):
    with open(path, "w") as fh:
        fh.write("horizon,mae,rmse,mape\n")
        for horizon, mae, rmse, mape in report.rows():
            fh.write(f"{horizon},{mae!r},{rmse!r},{mape!r}\n")


def cmd_synth(cfg):
    _ensure_out_dir(cfg)
    net, series, planted = data_mod.synth_generate(
        n=cfg.synth_nodes,
        t_total=cfg.synth_steps,
        topology=cfg.synth_topology,
        regime_switch_period=cfg.synth_regime_period,
        noise_std=cfg.synth_noise_std,
        seed=cfg.seed,
        period=cfg.synth_period,
        coupling_a=cfg.synth_coupling_a,
        coupling_b=cfg.synth_coupling_b,
        amplitude=cfg.synth_amplitude,
        offset=cfg.synth_offset,
    )
    edges_path = os.path.join(cfg.out_dir, "edges.csv")
    with open(edges_path, "w") as fh:
        fh.write("from,to\n")
        for i, j in net.edges:
            fh.write(f"{i},{j}\n")
    flow_path = os.path.join(cfg.out_dir, "flow.csv")
    n = series.num_nodes
    with open(flow_path, "w") as fh:
        fh.write("t," + ",".join(f"s{i}" for i in range(n)) + "\n")
        for t in range(series.num_steps):
            row = ",".join(repr(float(v)) for v in series.values[t, :, 0])
            fh.write(f"{t},{row}\n")
    planted_path = os.path.join(cfg.out_dir, "planted.csv")
    with open(planted_path, "w") as fh:
        fh.write("t,from,to,coeff\n")
        for t, u, v, c in planted.records():
            fh.write(f"{t},{u},{v},{c!r}\n")
    print(f"wrote {edges_path}, {flow_path}, {planted_path}")
    return 0


def cmd_train(cfg):
    mcfg = section(cfg, ModelConfig)
    mcfg.validate()
    _ensure_out_dir(cfg, "flows_path", "edges_path")
    edges, series, (train_ds, val_ds, test_ds), scaler = _load_dataset(cfg)
    model = trainer.build_model(mcfg, edges, scaler, cfg.seed, cfg.symmetrize_hops)
    settings = section(cfg, trainer.TrainSettings)
    history, _ = trainer.train(model, train_ds, val_ds, settings, cfg.seed)
    trainer.write_history(os.path.join(cfg.out_dir, "history.csv"), history)
    ckpt = cfg.checkpoint_path or os.path.join(cfg.out_dir, "model.ckpt")
    trainer.checkpoint_save(ckpt, model, extra_config={"seed": cfg.seed})
    test_report = trainer.evaluate(model, test_ds, cfg.mape_threshold)
    _write_metrics(os.path.join(cfg.out_dir, "metrics.csv"), test_report)
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
    model, (_, _, test_ds) = _load_checkpoint_and_data(cfg)
    report = trainer.evaluate(model, test_ds, cfg.mape_threshold)
    _write_metrics(os.path.join(cfg.out_dir, "metrics.csv"), report)
    print("horizon,mae,rmse,mape")
    for horizon, mae, rmse, mape in report.rows():
        print(f"{horizon},{mae:.6f},{rmse:.6f},{mape:.6f}")
    return 0


def cmd_predict(cfg):
    _ensure_out_dir(cfg, "checkpoint_path", "flows_path")
    model, (_, _, test_ds) = _load_checkpoint_and_data(cfg)
    if len(test_ds) == 0:
        raise DataError("predict: test split holds no windows")
    preds = trainer.batched_predictions(model, test_ds)
    path = os.path.join(cfg.out_dir, "predictions.csv")
    with open(path, "w") as fh:
        fh.write("t,horizon,sensor,value\n")
        for w in range(preds.shape[0]):
            anchor = int(test_ds.anchors[w])
            for h in range(preds.shape[1]):
                for s in range(preds.shape[2]):
                    fh.write(f"{anchor},{h + 1},{s},{float(preds[w, h, s, 0])!r}\n")
    print(f"wrote {path}")
    return 0


def cmd_gradcheck(cfg, quick=False):
    reports = gradcheck.run_gradcheck_suite(seed=cfg.seed, quick=quick)
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        print(rep.line())
    print(f"gradcheck: {len(reports) - len(failed)}/{len(reports)} parameters passed")
    return 0 if not failed else GRADCHECK_EXIT


def cmd_inspect_graph(cfg):
    _ensure_out_dir(cfg, "checkpoint_path", "flows_path")
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

    from . import diffcore as dc
    from .diffcore import Tensor

    windows = test_ds.inputs[:count]
    with dc.no_grad():
        seq = model.graph_block.build(Tensor(model.scaler.apply(windows)), "eval")

    edge_path = os.path.join(cfg.out_dir, "graph_edges.csv")
    with open(edge_path, "w") as fh:
        fh.write("t,i,j,weight,hop_i\n")
        for t, adj in enumerate(seq.adjacencies):
            a = adj.data[widx]
            hops = seq.hop_choices[widx, t]
            for i, j in zip(*np.nonzero(a)):
                fh.write(f"{t},{i},{j},{float(a[i, j])!r},{hops[i]}\n")

    hist_path = os.path.join(cfg.out_dir, "hop_histogram.csv")
    levels = model.cfg.levels
    counts = np.bincount(seq.hop_choices.ravel(), minlength=levels + 1)[1:]
    total = counts.sum()
    with open(hist_path, "w") as fh:
        fh.write("hop,count,fraction\n")
        for k in range(levels):
            frac = float(counts[k] / total) if total else 0.0
            fh.write(f"{k + 1},{counts[k]},{frac!r}\n")
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
            p.add_argument("--topology", default=None, choices=("chain", "ring", "grid"))
            p.add_argument("--nodes", type=int, default=None)
            p.add_argument("--steps", type=int, default=None)
            p.add_argument("--out", default=None)
        if name == "gradcheck":
            p.add_argument("--quick", action="store_true", help="skip the end-to-end model check")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        overrides = list(args.overrides)
        if args.command == "synth":
            if args.topology:
                overrides.append(f"synth_topology={args.topology}")
            if args.nodes is not None:
                overrides.append(f"synth_nodes={args.nodes}")
            if args.steps is not None:
                overrides.append(f"synth_steps={args.steps}")
            if args.out is not None:
                overrides.append(f"out_dir={args.out}")
        cfg = load_config(args.config, overrides)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "predict":
            return cmd_predict(cfg)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, quick=args.quick)
        if args.command == "inspect-graph":
            return cmd_inspect_graph(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except TglrnError as e:
        code = getattr(e, "exit_code", 2)
        print(f"ERROR:{code}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
