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
# ufunc loops, which dominate a large window's forward and backward; below this
# width the per-op Python work dominates and threads only contend for the GIL. Two
# threads' time over one thread's for 48 eval windows (74 at N=8), median of 6-12
# alternating calls, on 2 CPUs with one BLAS thread; D=16 except at N=169:
#   num_nodes * hidden_dim   128 (N=8)  400   576        784        1,024  1,600  10,816 (D=64)
#   time ratio               1.40       1.24  1.02-1.13  0.91-0.96  0.66   0.61   0.47
PARALLEL_EVAL_WIDTH = 768
# num_nodes * hidden_dim from which train_lanes cuts a train step into one-window
# shards on TRAIN_LANES lanes. A shard's forward and backward carry the per-op
# Python work of a whole batch, so training needs far wider models than eval to gain.
# One-window shards' step time over the whole batch's in one call, median of 4-8
# alternating steps on 2 CPUs, T=12. The "small" model has L=3, Ks=2, two blocks
# and embeddings of 8, at D=16 and 64, B=32 up to 1,600 and B=4-16 above; the
# "PeMS08" model L=10, Ks=6, one block, embeddings of 16, D=64 and B=4-16:
#   num_nodes * hidden_dim           400-1,600  2,704-3,200  4,096      5,120  6,400      8,192      10,880
#   small, one BLAS thread           1.65-4.36  0.94-0.98    0.53-0.88  -      0.65       -          0.57
#   PeMS08, one BLAS thread          2.17       1.27         1.21-1.23  1.06   0.80-0.86  0.69-0.70  0.47-0.61
#   PeMS08, BLAS threads unset       1.85       1.25         1.11-1.17  1.07   1.01-1.03  0.90-1.03  1.02-1.04
# With one BLAS thread the lanes run on two threads. With BLAS threads unset,
# OpenBLAS takes both CPUs, _workers leaves one for the lanes and the shards run one
# after the other: from this width up that costs 0.90-1.04x the whole batch's time,
# at a fraction of its memory (see TRAIN_LANES), so the plan does not depend on it.
PARALLEL_TRAIN_WIDTH = 6400
# Lanes of a wide model's train step. Each lane runs its shards one after the other
# with its own gradient buffers, so a step holds at most one shard's tape per lane
# in flight. At the PeMS08 shape (N=170, D=64), on 2 CPUs, a step peaked 44 MB above
# the resident set at B=4 and 114 MB at B=64, against 62 and 951 MB for the whole
# batch in one call, and B=4 training ran 1.14-1.65x as many windows a second
# (10 alternating runs each). More lanes were not measured.
TRAIN_LANES = 2


def mae_loss(pred, target, count=None):
    """Sum of absolute differences over ``count``; by default every element, which is their mean.

    A shard of a batch passes the batch's element count, so its shards' losses add up to the batch's.
    One tape node from ``pred``: it keeps only the error's sign, and the target gets no gradient.
    """
    target = np.asarray(target.data if isinstance(target, dc.Tensor) else target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DataError(f"mae_loss: shape mismatch {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise DataError(f"mae_loss: empty prediction of shape {pred.shape}")
    if count is None:
        count = pred.size
    elif not count > 0:
        raise DataError(f"mae_loss: count must be positive, got {count}")
    c = 1.0 / count
    err = pred.data - target
    loss = np.abs(err).sum() * c
    # A NaN error keeps a NaN sign, so the NaN reaches the parameters' gradients.
    sign = np.sign(err, out=err)

    def bwd(g):
        pred._acc(sign * (g * c))

    return dc.Tensor._from_op(loss, (pred,), bwd)


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
        _check_mape_threshold(self.mape_threshold)


def _check_mape_threshold(value):
    if not 0.0 <= value < float("inf"):
        raise ConfigError(f"mape_threshold must be non-negative and finite, got {value}")


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
    _check_mape_threshold(mape_threshold)
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DataError(f"compute_metrics: shape mismatch {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise DataError(f"compute_metrics: no predictions to score, shape {pred.shape}")
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


def _width(model):
    return model.cfg.num_nodes * model.cfg.hidden_dim


def _workers(cap):
    """Threads for ``cap`` tasks that may run at once: no more than the CPUs BLAS leaves free."""
    if cap <= 1:
        return cap
    # sched_getaffinity (Linux) counts only the CPUs this process may use.
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(cap, cpus // _blas_threads(cpus))


def _map(fn, tasks, workers):
    """``[fn(task) for task in tasks]``, on ``workers`` threads when more than one.

    The pool lives only for this call.
    """
    if workers <= 1:
        return [fn(task) for task in tasks]
    # Imported here: the module adds ~0.7 MB of resident memory, which runs
    # that never start a pool should not pay.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        return list(pool.map(fn, tasks))
    finally:
        pool.shutdown(cancel_futures=True)


def eval_chunks(model, windows):
    """Slices of evaluation's predict_raw calls over ``windows`` windows, in order: EVAL_BATCH
    windows each, or EVAL_BATCH // 4 from PARALLEL_EVAL_WIDTH up. Nothing else sets them."""
    size = EVAL_BATCH // 4 if _width(model) >= PARALLEL_EVAL_WIDTH else EVAL_BATCH
    return [slice(lo, min(lo + size, windows)) for lo in range(0, windows, size)]


def batched_predictions(model, dataset):
    """``model.predict_raw`` over every window of ``dataset``, in eval_chunks' calls.

    Chunks under EVAL_BATCH windows (a wide model's) run on as many threads as keep
    EVAL_BATCH in flight, capped by the chunk count and the CPUs BLAS leaves free.
    """
    if len(dataset) == 0:
        raise DataError(f"split {dataset.split!r} holds no windows")
    chunks = [dataset.inputs[part] for part in eval_chunks(model, len(dataset))]
    workers = _workers(min(EVAL_BATCH // len(chunks[0]), len(chunks)))
    return np.concatenate(_map(model.predict_raw, chunks, workers), axis=0)


def train_lanes(model, windows):
    """The shards of a train step over ``windows`` windows, as lanes of slices.

    Below PARALLEL_TRAIN_WIDTH the step is one shard of the whole batch. From
    it up every window is its own shard, dealt round-robin to
    min(TRAIN_LANES, windows) lanes. Nothing else sets them.
    """
    if _width(model) < PARALLEL_TRAIN_WIDTH:
        return [[slice(0, windows)]]
    shards = [slice(i, i + 1) for i in range(windows)]
    return [shards[lane::TRAIN_LANES] for lane in range(min(TRAIN_LANES, windows))]


def lane_backward(loss_of, lanes):
    """Backward of the sum of ``loss_of(shard)`` over every shard of ``lanes``; returns its value.

    One lane runs in the calling thread, into the parameters' ``grad``.
    Several run on as many threads as the CPUs BLAS leaves free allow, each
    in its own ``grad_lane``, shard after shard; after the join the lanes'
    gradients and losses are added in lane order, so neither depends on
    the thread count.
    """

    def run(lane):
        total = 0.0
        for part in lane:
            loss = loss_of(part)
            loss.backward()
            total += loss.item()
        return total

    if len(lanes) == 1:
        return run(lanes[0])

    def run_own(lane):
        with dc.grad_lane() as own:
            return run(lane), own

    total = 0.0
    for value, own in _map(run_own, lanes, _workers(len(lanes))):
        own.merge()
        total += value
    return total


def train_step(model, window, target, draws):
    """Gradients of one step's loss, added into the parameters' ``grad``; returns the loss.

    The loss is the mean absolute error in original units of the raw
    ``window`` batch's predictions against ``target``, computed as
    train_lanes' shards plan it; ``draws`` is the batch's ``StepDraws``.
    """
    scaler, count = model.scaler, target.size

    def loss_of(part):
        pred = model.forward(window[part], mode="train", draws=draws.rows(part))
        return mae_loss(pred * scaler.std + scaler.mean, target[part], count)

    return lane_backward(loss_of, train_lanes(model, len(window)))


def evaluate(model, dataset, mape_threshold=TrainSettings.mape_threshold):
    """Eval-mode metrics in original units; deterministic and repeatable."""
    _check_mape_threshold(mape_threshold)
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
            opt.zero_grad()
            draws = model.draw(noise_rng, len(idx))
            loss = train_step(model, train_ds.inputs[idx], train_ds.targets[idx], draws)
            _check_finite(loss, model)
            opt.step()

            total_abs += loss * len(idx)
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
    """A model over a road network given by its edge list, its parameters drawn from ``seed``."""
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11CE]))
    return TGLRN(cfg, edges, scaler, init_rng, symmetrize_hops)
