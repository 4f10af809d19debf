"""Training loop, metrics, the historical-average baseline, and checkpoints.

Training minimizes mean absolute error, by default measured in original
units (a config toggle switches to normalized space). Optimization is
Adam with fixed moments; early stopping watches validation MAE with a
patience budget and the best-on-validation parameters are what gets
checkpointed. All stochasticity flows from generators derived from one
seed, so a fixed seed reproduces the history file bitwise.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import diffcore as dc
from . import roadnet
from .data import Scaler
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .model import ModelConfig, TGLRN

__all__ = [
    "mae_loss",
    "Adam",
    "TrainSettings",
    "MetricsReport",
    "train",
    "evaluate",
    "compute_metrics",
    "baseline_ha",
    "checkpoint_save",
    "checkpoint_load",
    "build_model",
]

CHECKPOINT_MAGIC = b"TGLRN\x01"


def mae_loss(pred, target):
    """Mean absolute difference over every element."""
    target = target if isinstance(target, dc.Tensor) else dc.Tensor(target)
    if pred.shape != target.shape:
        raise DataError(f"mae_loss: shape mismatch {pred.shape} vs {target.shape}")
    return (pred - target).abs().mean()


class Adam:
    """Adam with bias correction over a fixed ordered parameter list."""

    def __init__(self, named_params, lr=0.005, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]

    def zero_grad(self):
        for _, p in self.named_params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for (name, p), m, v in zip(self.named_params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@dataclass
class TrainSettings:
    learning_rate: float = 0.005  # Adam learning rate
    batch_size: int = 64  # windows per optimization step
    max_epochs: int = 200  # epoch cap
    patience: int = 15  # early-stopping patience on validation MAE
    normalized_loss: bool = False  # train on z-scored values instead of original units
    mape_threshold: float = 1.0  # targets with |y| below this are excluded from MAPE


@dataclass
class MetricsReport:
    """Overall errors plus per-horizon breakdowns (original units)."""

    mae: float
    rmse: float
    mape: float
    per_horizon: list = field(default_factory=list)  # (mae, rmse, mape) per step ahead

    def rows(self):
        out = [("all", self.mae, self.rmse, self.mape)]
        out.extend((str(h + 1), *vals) for h, vals in enumerate(self.per_horizon))
        return out


def _metric_triple(pred, target, mape_threshold):
    err = pred - target
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    mask = np.abs(target) > mape_threshold
    mape = float(np.mean(np.abs(err[mask] / target[mask])) * 100.0) if mask.any() else 0.0
    return mae, rmse, mape


def compute_metrics(pred, target, mape_threshold=1.0):
    """MetricsReport from prediction/target arrays shaped (M, T, N, F)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DataError(f"compute_metrics: shape mismatch {pred.shape} vs {target.shape}")
    overall = _metric_triple(pred, target, mape_threshold)
    horizons = [
        _metric_triple(pred[:, h], target[:, h], mape_threshold) for h in range(pred.shape[1])
    ]
    return MetricsReport(mae=overall[0], rmse=overall[1], mape=overall[2], per_horizon=horizons)


def batched_predictions(model, dataset, batch_size=256):
    preds = []
    for lo in range(0, len(dataset), batch_size):
        window = dataset.inputs[lo : lo + batch_size]
        preds.append(model.predict_raw(window))
    return np.concatenate(preds, axis=0)


def evaluate(model, dataset, mape_threshold=1.0):
    """Eval-mode metrics in original units; deterministic and repeatable."""
    if len(dataset) == 0:
        raise DataError(f"evaluate: split {dataset.split!r} holds no windows")
    preds = batched_predictions(model, dataset)
    return compute_metrics(preds, dataset.targets, mape_threshold)


def baseline_ha(dataset, mape_threshold=1.0):
    """Historical average: every horizon predicts the input-window mean."""
    if len(dataset) == 0:
        raise DataError("baseline_ha: empty dataset")
    mean_in = dataset.inputs.mean(axis=1, keepdims=True)  # (M, 1, N, F)
    preds = np.broadcast_to(mean_in, dataset.targets.shape)
    return compute_metrics(preds, dataset.targets, mape_threshold)


def _check_finite(loss_value, model):
    """Raise NumericError naming the first parameter whose gradient is not finite."""
    loss_ok = np.isfinite(loss_value)
    for name, p in model.parameters():
        if not np.all(np.isfinite(p.grad)):
            what = "non-finite gradient behind a finite loss" if loss_ok else "non-finite loss"
            raise NumericError(f"{what}; first non-finite parameter gradient: {name}")
    if not loss_ok:
        raise NumericError("non-finite loss with finite gradients")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mae: float
    val_rmse: float
    val_mape: float

    def csv_row(self):
        return (
            f"{self.epoch},{self.train_loss!r},{self.val_mae!r},"
            f"{self.val_rmse!r},{self.val_mape!r}"
        )


def train(model, train_ds, val_ds, settings, seed, epoch_hook=None):
    """Mini-batch Adam with early stopping on validation MAE.

    Returns (history, best_state). ``epoch_hook`` receives each
    EpochRecord as it is produced and may return a truthy value to stop
    training after that epoch. The model is left holding the
    best-on-validation parameters.
    """
    if len(train_ds) == 0:
        raise DataError("train: empty training split")
    if len(val_ds) == 0:
        raise DataError("train: empty validation split; early stopping needs val_frac > 0")
    ss = np.random.SeedSequence([seed, 0x7EA1])
    shuffle_rng, noise_rng = [np.random.default_rng(s) for s in ss.spawn(2)]

    opt = Adam(model.parameters(), lr=settings.learning_rate)
    scaler = model.scaler

    history = []
    best_val = np.inf
    best_state = model.state_arrays()
    bad_epochs = 0

    for epoch in range(settings.max_epochs):
        order = shuffle_rng.permutation(len(train_ds))
        total_abs = 0.0
        total_count = 0
        for lo in range(0, len(order), settings.batch_size):
            idx = order[lo : lo + settings.batch_size]
            window = train_ds.inputs[idx]
            target = train_ds.targets[idx]

            opt.zero_grad()
            pred = model.forward(window, mode="train", rng=noise_rng)
            if settings.normalized_loss:
                loss = mae_loss(pred, scaler.apply(target))
                raw_mae = float(
                    np.mean(np.abs(scaler.invert(pred.data) - target))
                )
            else:
                pred_raw = pred * scaler.std + scaler.mean
                loss = mae_loss(pred_raw, target)
                raw_mae = loss.item()
            loss.backward()
            _check_finite(loss.item(), model)
            opt.step()

            total_abs += raw_mae * len(idx)
            total_count += len(idx)

        train_loss = total_abs / total_count
        val_metrics = evaluate(model, val_ds, settings.mape_threshold)
        record = EpochRecord(
            epoch=epoch,
            train_loss=train_loss,
            val_mae=val_metrics.mae,
            val_rmse=val_metrics.rmse,
            val_mape=val_metrics.mape,
        )
        history.append(record)

        if val_metrics.mae < best_val:
            best_val = val_metrics.mae
            best_state = model.state_arrays()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > settings.patience:
                break
        if epoch_hook is not None and epoch_hook(record):
            break

    model.load_state_arrays(best_state)
    return history, best_state


def write_history(path, history):
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_mae,val_rmse,val_mape\n")
        for rec in history:
            fh.write(rec.csv_row() + "\n")


# -- checkpointing ---------------------------------------------------------------


def checkpoint_save(path, model, extra_config=None):
    """Versioned binary dump: magic, JSON header, then raw float64 payloads."""
    header = {
        "model": asdict(model.cfg),
        "scaler": {
            "scope": model.scaler.scope,
            "mean": model.scaler.mean.tolist(),
            "std": model.scaler.std.tolist(),
            "mean_shape": list(model.scaler.mean.shape),
            "std_shape": list(model.scaler.std.shape),
        },
        "edges": [[int(i), int(j)] for i, j in model.edges],
        "symmetrize_hops": model.symmetrize_hops,
        "params": [[name, list(p.data.shape)] for name, p in model.parameters()],
        "extra_config": extra_config or {},
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, p in model.parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


# Value types a checkpoint header may give each ModelConfig field.
_MODEL_TYPES = {
    f.name: {"int": int, "float": (int, float), "bool": bool}[f.type] for f in fields(ModelConfig)
}


def _parse_header(header):
    """(ModelConfig, Scaler, edges, symmetrize_hops, param specs, extra config) of a header."""
    try:
        m = dict(header["model"])
        sc = header["scaler"]
        scaler = Scaler(
            mean=np.asarray(sc["mean"], dtype=np.float64).reshape(sc["mean_shape"]),
            std=np.asarray(sc["std"], dtype=np.float64).reshape(sc["std_shape"]),
            scope=sc["scope"],
        )
        edges = [(int(i), int(j)) for i, j in header["edges"]]
        specs = [(str(name), [int(d) for d in shape]) for name, shape in header["params"]]
        symmetrize = bool(header.get("symmetrize_hops", False))
        extra = header.get("extra_config", {})
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {type(e).__name__}: {e}") from None
    unknown = sorted(set(m) - set(_MODEL_TYPES))
    if unknown:
        raise CheckpointError(f"corrupt checkpoint header: unknown model keys {unknown}")
    if "num_nodes" not in m:
        raise CheckpointError("corrupt checkpoint header: model section lacks num_nodes")
    for key, value in m.items():
        kind = _MODEL_TYPES[key]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise CheckpointError(f"corrupt checkpoint header: model key {key} = {value!r}")
    return ModelConfig(**m), scaler, edges, symmetrize, specs, extra


def checkpoint_load(path, expect_num_nodes=None):
    """Rebuild a model from a checkpoint; returns (model, extra_config)."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot open checkpoint {path}: {e}") from None
    with fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise CheckpointError("truncated checkpoint header")
        (hlen,) = struct.unpack("<I", raw_len)
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise CheckpointError("truncated checkpoint header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"corrupt checkpoint header: {e}") from None
        cfg, scaler, edges, symmetrize, specs, extra = _parse_header(header)

        payload = {}
        for name, shape in specs:
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise CheckpointError(f"truncated checkpoint payload at parameter {name}")
            payload[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.isfinite(payload[name]).all():
                raise CheckpointError(f"non-finite value in checkpoint parameter {name}")
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")

    if expect_num_nodes is not None and cfg.num_nodes != expect_num_nodes:
        raise CheckpointError(
            f"node count mismatch: checkpoint expects {cfg.num_nodes}, data provides {expect_num_nodes}"
        )
    try:
        model = build_model(cfg, edges=edges, scaler=scaler, seed=0, symmetrize_hops=symmetrize)
        model.load_state_arrays(payload)
    except ConfigError as e:
        raise CheckpointError(f"checkpoint does not describe a loadable model: {e}") from None
    return model, extra


def build_model(cfg, edges, scaler, seed, symmetrize_hops=False):
    """Assemble a model over a road network given by its edge list."""
    cfg.validate()  # before the hop masks, whose cost grows with levels and num_nodes
    net = roadnet.build_asp(edges, cfg.num_nodes)
    dist = roadnet.hop_distances(net, symmetrize=symmetrize_hops)
    group = roadnet.structure_group(dist, cfg.levels)
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11CE]))
    model = TGLRN(cfg, group, scaler, init_rng)
    model.edges = list(net.edges)
    model.symmetrize_hops = symmetrize_hops
    return model
