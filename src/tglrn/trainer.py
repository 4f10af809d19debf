"""Training loop, metrics, the historical-average baseline, and checkpoints.

Training minimizes mean absolute error measured in original units.
Optimization is Adam with fixed moments; early stopping watches
validation MAE with a patience budget and the best-on-validation
parameters are what gets checkpointed. All stochasticity flows from
generators derived from one seed, so a fixed seed reproduces the
history file bitwise.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import diffcore as dc
from . import roadnet
from .data import Scaler
from .errors import CheckpointError, ConfigError, DataError, NumericError, open_output
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
# Windows per evaluation predict_raw call, and the most in flight at once, whatever
# batch_size is. An eval call's memory grows linearly with its windows (at N=170,
# D=64, L=10 about 5 MB a window above the model), and at that shape 16-window
# calls also run faster per window than larger ones; smaller calls add per-call
# overhead at small N. tests/test_trainer.py checks that chunked predictions, on
# one thread or several, equal one whole-split call bitwise.
EVAL_BATCH = 16
# num_nodes * hidden_dim from which eval_chunks cuts EVAL_BATCH // 4 windows per
# call, run on up to four threads. numpy releases the GIL in BLAS products and
# ufunc loops, which dominate a large window's forward; below this width the
# per-op Python work dominates and threads only contend for the GIL. Two threads'
# time over one thread's for 48 windows (74 at N=8), median of 6-12 alternating
# calls, on 2 CPUs with one BLAS thread; D=16 except at N=169:
#   num_nodes * hidden_dim   128 (N=8)  400   576        784        1,024  1,600  10,816 (D=64)
#   time ratio               1.40       1.24  1.02-1.13  0.91-0.96  0.66   0.61   0.47
PARALLEL_EVAL_WIDTH = 768


def mae_loss(pred, target):
    """Mean absolute difference over every element."""
    target = target if isinstance(target, dc.Tensor) else dc.Tensor(target)
    if pred.shape != target.shape:
        raise DataError(f"mae_loss: shape mismatch {pred.shape} vs {target.shape}")
    return (pred - target).abs().mean()


class Adam:
    """Adam with bias correction over a fixed ordered parameter list."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, named_params, lr):
        self.named_params = list(named_params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]

    def zero_grad(self):
        for _, p in self.named_params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for (name, p), m, v in zip(self.named_params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


@dataclass
class TrainSettings:
    learning_rate: float = 0.005  # Adam learning rate
    batch_size: int = 64  # windows per optimization step
    max_epochs: int = 200  # epoch cap
    patience: int = 15  # early-stopping patience on validation MAE
    mape_threshold: float = 1.0  # targets with |y| below this are excluded from MAPE

    def check_fields(self):
        """Raise ConfigError naming the first field out of range."""
        for key in ("batch_size", "max_epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.patience < 0:
            raise ConfigError(f"patience must be at least 0, got {self.patience}")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.mape_threshold < float("inf"):
            raise ConfigError(f"mape_threshold must be non-negative and finite, got {self.mape_threshold}")


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


def compute_metrics(pred, target, mape_threshold=TrainSettings.mape_threshold):
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


def _blas_threads(cpus):
    """Threads OpenBLAS runs per call, as it reads them from the environment at load: with
    none set, one per CPU (eval threads on top measured 11-15% slower at N=170, D=64)."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def eval_chunks(model, windows):
    """Slices of evaluation's predict_raw calls over ``windows`` windows, in order: EVAL_BATCH
    windows each, or EVAL_BATCH // 4 from PARALLEL_EVAL_WIDTH up. Nothing else sets them."""
    size = EVAL_BATCH // 4 if model.cfg.num_nodes * model.cfg.hidden_dim >= PARALLEL_EVAL_WIDTH else EVAL_BATCH
    return [slice(lo, min(lo + size, windows)) for lo in range(0, windows, size)]


def batched_predictions(model, dataset):
    """``model.predict_raw`` over every window of ``dataset``, in eval_chunks' calls.

    Chunks under EVAL_BATCH windows (a wide model's) run on as many threads as keep
    EVAL_BATCH in flight, capped by the chunk count and the CPUs BLAS leaves free.
    The pool lives only for this call.
    """
    if len(dataset) == 0:
        raise DataError(f"split {dataset.split!r} holds no windows")
    chunks = [dataset.inputs[part] for part in eval_chunks(model, len(dataset))]
    workers = min(EVAL_BATCH // len(chunks[0]), len(chunks))
    if workers > 1:
        # sched_getaffinity (Linux) counts only the CPUs this process may use.
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        workers = min(workers, cpus // _blas_threads(cpus))
    if workers <= 1:
        preds = [model.predict_raw(chunk) for chunk in chunks]
    else:
        # Imported here: the module adds ~0.7 MB of resident memory, which runs
        # that never start a pool should not pay.
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
        try:
            preds = list(pool.map(model.predict_raw, chunks))
        finally:
            pool.shutdown(cancel_futures=True)
    return np.concatenate(preds, axis=0)


def evaluate(model, dataset, mape_threshold=TrainSettings.mape_threshold):
    """Eval-mode metrics in original units; deterministic and repeatable."""
    preds = batched_predictions(model, dataset)
    return compute_metrics(preds, dataset.targets, mape_threshold)


def baseline_ha(dataset, mape_threshold=TrainSettings.mape_threshold):
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
    settings.check_fields()
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
            loss = mae_loss(pred * scaler.std + scaler.mean, target)
            loss.backward()
            _check_finite(loss.item(), model)
            opt.step()

            total_abs += loss.item() * len(idx)
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
        # The hook sees every recorded epoch, the one early stopping ends on included.
        if epoch_hook is not None and epoch_hook(record):
            break
        if bad_epochs > settings.patience:
            break

    model.load_state_arrays(best_state)
    return history, best_state


def write_history(path, history):
    with open_output(path) as fh:
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
    with open_output(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, p in model.parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


# Value types a checkpoint header may give each ModelConfig field; JSON's true and false are neither.
_MODEL_TYPES = {f.name: {"int": int, "float": (int, float)}[f.type] for f in fields(ModelConfig)}


def _is_int(value):
    """True for a JSON integer; JSON's true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _shape(dims):
    """A header shape: a list of non-negative ints, or CheckpointError."""
    if not isinstance(dims, list) or not all(_is_int(d) and d >= 0 for d in dims):
        raise CheckpointError(f"corrupt checkpoint header: shape {dims!r} is not a list of sizes")
    return dims


def _parse_header(header):
    """(ModelConfig, Scaler, edges, symmetrize_hops, param specs, extra config) of a header."""
    try:
        m = dict(header["model"])
        # Headers from while eval-time edge thinning was a key carry it as false; true never evaluated.
        legacy = m.pop("eval_sampling_override", False)
        sc = header["scaler"]
        scaler = Scaler(
            mean=np.asarray(sc["mean"], dtype=np.float64).reshape(_shape(sc["mean_shape"])),
            std=np.asarray(sc["std"], dtype=np.float64).reshape(_shape(sc["std_shape"])),
            scope=sc["scope"],
        )
        edges = [(i, j) for i, j in header["edges"]]
        specs = [(str(name), _shape(shape)) for name, shape in header["params"]]
        symmetrize = header.get("symmetrize_hops", False)
        extra = header.get("extra_config", {})
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise CheckpointError(f"corrupt checkpoint header: {type(e).__name__}: {e}") from None
    if not all(_is_int(i) and _is_int(j) for i, j in edges):
        raise CheckpointError("corrupt checkpoint header: edge ids must be integers")
    if not isinstance(symmetrize, bool):
        raise CheckpointError(f"corrupt checkpoint header: symmetrize_hops = {symmetrize!r}")
    if not isinstance(extra, dict):
        raise CheckpointError(f"corrupt checkpoint header: extra_config = {extra!r}")
    if legacy is not False:
        raise CheckpointError(f"corrupt checkpoint header: model key eval_sampling_override = {legacy!r}")
    unknown = sorted(set(m) - set(_MODEL_TYPES))
    if unknown:
        raise CheckpointError(f"corrupt checkpoint header: unknown model keys {unknown}")
    if "num_nodes" not in m:
        raise CheckpointError("corrupt checkpoint header: model section lacks num_nodes")
    for key, value in m.items():
        kind = _MODEL_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise CheckpointError(f"corrupt checkpoint header: model key {key} = {value!r}")
    cfg = ModelConfig(**m)
    # The scaler meets every (..., N, F) window: it must broadcast to (N, F) and divide by std.
    frame = (cfg.num_nodes, cfg.in_features)
    for label, arr in (("mean", scaler.mean), ("std", scaler.std)):
        try:
            fits = np.broadcast_shapes(arr.shape, frame) == frame
        except ValueError:
            fits = False
        if not fits:
            raise CheckpointError(
                f"corrupt checkpoint header: scaler {label} of shape {arr.shape} does not fit {frame}"
            )
        if not np.isfinite(arr).all():
            raise CheckpointError(f"corrupt checkpoint header: non-finite scaler {label}")
    if np.any(scaler.std <= 0):
        raise CheckpointError("corrupt checkpoint header: scaler std must be positive")
    return cfg, scaler, edges, symmetrize, specs, extra


def checkpoint_load(path, expect_num_nodes=None):
    """Rebuild a model from a checkpoint; returns (model, extra_config)."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot open checkpoint {path}: {e}") from None
    with fh:
        # Every length read from the file is checked against what is left of it before
        # it is read, so a corrupt length never sizes a buffer.
        left = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise CheckpointError("truncated checkpoint header")
        (hlen,) = struct.unpack("<I", raw_len)
        left -= len(magic) + 4 + hlen
        if left < 0:
            raise CheckpointError("truncated checkpoint header")
        blob = fh.read(hlen)
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"corrupt checkpoint header: {e}") from None
        cfg, scaler, edges, symmetrize, specs, extra = _parse_header(header)

        payload = {}
        for name, shape in specs:
            size = 8 * math.prod(shape)
            left -= size
            if left < 0:
                raise CheckpointError(f"truncated checkpoint payload at parameter {name}")
            try:
                payload[name] = np.frombuffer(fh.read(size), dtype="<f8").reshape(shape).astype(np.float64)
            except ValueError as e:  # a zero-size shape with a dimension numpy cannot hold
                raise CheckpointError(f"corrupt checkpoint header: parameter {name}: {e}") from None
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
    except (ConfigError, DataError) as e:
        raise CheckpointError(f"checkpoint does not describe a loadable model: {e}") from None
    return model, extra


def build_model(cfg, edges, scaler, seed, symmetrize_hops=False):
    """Assemble a model over a road network given by its edge list."""
    cfg.validate()  # before the hop masks, whose cost grows with levels and num_nodes
    net = roadnet.build_asp(edges, cfg.num_nodes)
    dist = roadnet.hop_distances(net, symmetrize=symmetrize_hops)
    masks = roadnet.structure_group(dist, cfg.levels)
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11CE]))
    model = TGLRN(cfg, masks, scaler, init_rng)
    model.edges = list(net.edges)
    model.symmetrize_hops = symmetrize_hops
    return model
