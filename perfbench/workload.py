"""One benchmark workload, run in its own process.

``run.py`` starts this file with the BLAS thread count and ``PYTHONPATH``
set; ``smoke.py`` imports it and calls :func:`run` on tiny specs. The
workload writes seeded inputs as CSV, then drives ``tglrn`` only through
its public entry points: ``roadnet.load_edges``, ``data.load_flows``,
``data.make_windows``, ``data.fit_scaler``, ``trainer.build_model``,
``trainer.train``, ``trainer.evaluate`` and
``trainer.checkpoint_save``/``checkpoint_load``. It is a closed loop with
one caller: every call waits for the previous one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from spans import Tracer
from tglrn import data, roadnet, trainer
from tglrn.diffcore import Tensor, no_grad
from tglrn.model import ModelConfig

HERE = Path(__file__).resolve().parent
T_IN = T_OUT = 12
EVAL_BATCH = 256  # trainer.evaluate's batch size
# Relative tolerance on recorded MAE references. Fast paths must match the
# path they replace bitwise or to <= 1e-12 per op (ROADMAP); over a training
# run such differences grow by a few orders of magnitude, not by 1e3.
REFERENCE_RTOL = 1e-9
INVARIANT_ATOL = 1e-9  # logit moments, as in acceptance criterion 4
TARGET_FACTOR = 0.15  # criterion 5: train MAE below 0.15 x train-target std
DIAG_WINDOWS = 4  # windows in the post-run eval build with diagnostics


@dataclass(frozen=True)
class Spec:
    """Shape, data and run plan of one workload."""

    name: str
    kind: str  # "train" or "predict"
    nodes: int
    steps: int  # length of the flow series
    road_edges: int  # 0 selects the chain topology
    model: dict
    flow: dict  # keyword arguments of inputs.flows
    batch_size: int
    epochs: int = 0  # per training repetition
    train_windows: int = 0  # 0 keeps the whole split
    val_windows: int = 0
    test_windows: int = 0
    setup_reps: int = 3


ACCEPTANCE_MODEL = dict(
    embed_dim=8, hop_dim=8, hidden_dim=16, levels=3, diff_steps=2, kernel_size=2,
    n_blocks=2, gamma=0.3, dropout_rate=0.05,
)
PEMS08_MODEL = dict(
    embed_dim=16, hop_dim=16, hidden_dim=64, levels=10, diff_steps=2, kernel_size=6,
    n_blocks=1, gamma=0.3, dropout_rate=0.1,
)
ACCEPTANCE_FLOW = dict(
    offset=(50.0, 50.0), amplitude=(10.0, 20.0), coupling=0.8, noise_std=0.05, regime=48,
)
PEMS08_FLOW = dict(
    offset=(150.0, 350.0), amplitude=(60.0, 140.0), coupling=0.6, noise_std=15.0, missing=0.001,
)

WORKLOADS = {
    s.name: s
    for s in (
        Spec("train_n8", "train", 8, 372, 0, ACCEPTANCE_MODEL, ACCEPTANCE_FLOW,
             batch_size=32, epochs=12, setup_reps=20),
        Spec("train_n170", "train", 170, 17856, 295, PEMS08_MODEL, PEMS08_FLOW,
             batch_size=4, epochs=2, train_windows=8, val_windows=8),
        Spec("predict_n170", "predict", 170, 17856, 295, PEMS08_MODEL, PEMS08_FLOW,
             batch_size=EVAL_BATCH, test_windows=48),
    )
}


def model_config(spec):
    return ModelConfig(num_nodes=spec.nodes, t_in=T_IN, t_out=T_OUT, **spec.model)


def train_settings(spec):
    return trainer.TrainSettings(
        batch_size=spec.batch_size, max_epochs=spec.epochs, patience=spec.epochs
    )


# -- inputs and set-up -----------------------------------------------------------


def make_inputs(spec, seed, workdir):
    """Write edges.csv and flow.csv for ``seed``; returns the raw flow values."""
    rng = np.random.default_rng([seed, 0xBE7C])
    if spec.road_edges:
        edges, lengths = inputs.road_graph(rng, spec.nodes, spec.road_edges)
    else:
        edges, lengths = inputs.chain_graph(spec.nodes), None
    values = inputs.flows(rng, spec.nodes, spec.steps, edges, **spec.flow)
    inputs.write_edges(workdir / "edges.csv", edges, lengths)
    inputs.write_flows(workdir / "flow.csv", values)
    return values


def save_checkpoint(spec, seed, values, workdir):
    """Untimed preparation for predict workloads: a seeded model checkpoint."""
    edges = roadnet.load_edges(workdir / "edges.csv")
    b1, _ = data.split_boundaries(len(values))
    scaler = data.fit_scaler(values[:b1, :, None])
    model = trainer.build_model(model_config(spec), edges, scaler, seed)
    path = workdir / "model.ckpt"
    trainer.checkpoint_save(path, model)
    return path


def head(ds, count):
    """The first ``count`` windows of a split, copied so the full split can be freed."""
    if not count:
        return ds
    return data.WindowedDataset(
        inputs=ds.inputs[:count].copy(),
        targets=ds.targets[:count].copy(),
        anchors=ds.anchors[:count].copy(),
        split=ds.split,
    )


@dataclass
class Prepared:
    edges: list
    scaler: object
    model: object
    train: object
    val: object
    test: object


def setup(spec, seed, workdir, checkpoint):
    """Ingestion, windowing, scaler and model build (or checkpoint load)."""
    edges = roadnet.load_edges(workdir / "edges.csv")
    series = data.load_flows(workdir / "flow.csv", spec.nodes)
    tr, va, te = data.make_windows(series, T_IN, T_OUT)
    b1, _ = data.split_boundaries(series.num_steps)
    scaler = data.fit_scaler(series.values[:b1])
    if checkpoint is None:
        model = trainer.build_model(model_config(spec), edges, scaler, seed)
    else:
        model, _ = trainer.checkpoint_load(checkpoint, expect_num_nodes=spec.nodes)
    return Prepared(
        edges, scaler, model,
        head(tr, spec.train_windows), head(va, spec.val_windows), head(te, spec.test_windows),
    )


# -- timed loops -----------------------------------------------------------------


@dataclass
class Rep:
    """One timed call: trainer.train over all epochs, or one trainer.evaluate."""

    start: float
    end: float
    quality: dict
    epoch_marks: list = field(default_factory=list)  # (time, EpochRecord) per epoch
    error: str = ""
    cpu_s: float = 0.0  # process CPU time of the call
    traced: bool = False


def train_rep(spec, st, seed):
    model = trainer.build_model(model_config(spec), st.edges, st.scaler, seed)
    marks = []

    def on_epoch(record):
        marks.append((time.perf_counter(), record))
        return False

    cpu = time.process_time()
    start = time.perf_counter()
    try:
        trainer.train(model, st.train, st.val, train_settings(spec), seed=seed, epoch_hook=on_epoch)
        error = ""
    except Exception as exc:  # a failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    quality = {}
    if marks:
        quality = {
            "train_mae": marks[-1][1].train_loss,
            "val_mae": min(rec.val_mae for _, rec in marks),
        }
    st.model = model
    return Rep(start, end, quality, marks, error, time.process_time() - cpu)


def predict_rep(spec, st, seed):
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        report = trainer.evaluate(st.model, st.test)
        quality, error = {"test_mae": report.mae}, ""
    except Exception as exc:  # a failed op is counted, not fatal
        quality, error = {}, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return Rep(start, end, quality, [], error, time.process_time() - cpu)


REP = {"train": train_rep, "predict": predict_rep}


def timed_loop(spec, st, seed, seconds, tracer=None):
    """Repeat the workload's fixed unit of work until ``seconds`` have passed.

    With a tracer, every second repetition runs with the span wrappers
    installed, so traced and untraced repetitions see the same machine
    state; there is at least one of each.
    """
    rep_fn = REP[spec.kind]
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and len(reps) % 2 == 1
        restore = tracer.install() if traced else None
        try:
            rep = rep_fn(spec, st, seed)
        finally:
            if restore:
                restore()
        rep.traced = traced
        reps.append(rep)
    return reps


def ops_per_rep(spec, st):
    """Train steps plus eval batches one repetition attempts, and per epoch."""
    if spec.kind == "predict":
        return math.ceil(len(st.test) / EVAL_BATCH), 0
    per_epoch = math.ceil(len(st.train) / spec.batch_size) + math.ceil(len(st.val) / EVAL_BATCH)
    return spec.epochs * per_epoch, per_epoch


def count_failures(spec, st, reps, failures):
    """(attempted, failed) ops; appends a message per failed repetition.

    A repetition that raises fails the ops of its unfinished epochs; a
    non-finite loss or prediction fails the ops of its epoch.
    """
    total, per_epoch = ops_per_rep(spec, st)
    failed = 0
    for i, rep in enumerate(reps):
        done = total if spec.kind == "predict" else per_epoch * len(rep.epoch_marks)
        bad = total - done if rep.error else 0
        if rep.error:
            failures.append(f"rep {i}: {rep.error}")
        for key, value in rep.quality.items():
            if not math.isfinite(value):
                failures.append(f"rep {i}: non-finite {key}")
                bad = max(bad, per_epoch or total)
        for _, rec in rep.epoch_marks:
            if not (math.isfinite(rec.train_loss) and math.isfinite(rec.val_mae)):
                failures.append(f"rep {i}: non-finite loss or prediction at epoch {rec.epoch}")
                bad = max(bad, per_epoch)
        failed += bad
    return total * len(reps), failed


# -- correctness checks and computed counts (outside timing) --------------------


def check_determinism(reps, failures):
    first = reps[0].quality
    for i, rep in enumerate(reps[1:], start=1):
        if rep.quality and first and rep.quality != first:
            failures.append(f"rep {i} quality {rep.quality} differs from rep 0 {first}")


def check_reference(spec, seed, quality, failures):
    refs = json.loads((HERE / "reference.json").read_text()).get(spec.name, {})
    ref = refs.get(str(seed))
    if ref is None:
        return "none recorded for this seed"
    for key, want in ref.items():
        got = quality.get(key, math.nan)
        if not abs(got - want) <= REFERENCE_RTOL * abs(want):
            failures.append(f"{key} {got!r} differs from reference {want!r}")
    return f"checked {sorted(ref)} at rtol {REFERENCE_RTOL}"


def graph_checks(st, ds, failures):
    """One eval build with diagnostics: ranges, hop-row support, logit moments, densities."""
    model = st.model
    x = ds.inputs[:DIAG_WINDOWS]
    gb = model.graph_block
    n = gb.num_nodes
    with no_grad():
        seq, diag = gb.build(Tensor(model.scaler.apply(x)), "eval", want_diag=True)
    nonzero = inside = entries = 0
    for t, adj in enumerate(seq.adjacencies):
        a = adj.data
        rows = gb.masks[seq.hop_choices[:, t, :] - 1, np.arange(n), :]
        pre = diag.prenorm_logits[t]
        if not (np.all(np.isfinite(a)) and a.min() >= 0.0 and a.max() <= 1.0):
            failures.append(f"graph step {t}: adjacency outside [0, 1]")
        if np.any(rows[a != 0] != 1.0) or not np.array_equal(rows, diag.support_masks[t]):
            failures.append(f"graph step {t}: nonzero weight outside the selected hop rows")
        if np.any(np.abs(pre.mean(axis=(-2, -1))) > INVARIANT_ATOL):
            failures.append(f"graph step {t}: normalized logit mean is not 0")
        if np.any(np.abs(pre.std(axis=(-2, -1)) - gb.alpha) > INVARIANT_ATOL):
            failures.append(f"graph step {t}: normalized logit std is not alpha")
        nonzero += np.count_nonzero(a)
        inside += int(rows.sum())
        entries += a.size
    return float(nonzero / entries), float(inside / entries)


def tape_counts(spec, st, seed):
    """Tensors reachable through one op's recorded parents, and their value bytes.

    Computed, not measured traffic. Train workloads record one training
    forward and loss at the workload's batch size; predict runs one eval
    forward, which records nothing, so only the output itself counts.
    """
    ds = st.train if spec.kind == "train" else st.test
    window = ds.inputs[: spec.batch_size]
    if spec.kind == "train":
        model = trainer.build_model(model_config(spec), st.edges, st.scaler, seed)
        pred = model.forward(window, mode="train", rng=np.random.default_rng(seed))
        root = trainer.mae_loss(pred * st.scaler.std + st.scaler.mean, ds.targets[: spec.batch_size])
    else:
        with no_grad():
            root = st.model.forward(window, mode="eval")
    seen = {}
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return len(seen), sum(t.data.nbytes for t in seen.values())


# -- metrics ---------------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """(value, percentile): the highest of p50..p99.9 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return float(np.percentile(xs, p)), p
    return 0.0, 0.0


def throughput(spec, st, reps):
    """Windows over the wall time of all timed calls: train windows (validation time
    included) for train workloads, test windows for predict.

    A total, not a median: the machine this was tuned on switches between a
    fast and a slow state every few seconds, and a median snaps to one of
    them where the total averages over both.
    """
    if spec.kind == "train":
        windows = len(st.train) * sum(len(rep.epoch_marks) for rep in reps)
    else:
        windows = len(st.test) * len(reps)
    return windows / sum(rep.end - rep.start for rep in reps)


def time_to_target(st, reps):
    """(median seconds, epochs) to the first epoch whose train MAE beats the target; 0 if never."""
    threshold = TARGET_FACTOR * float(st.train.targets.std())
    times, epochs = [], 0
    for rep in reps:
        for stamp, rec in rep.epoch_marks:
            if rec.train_loss < threshold:
                times.append(stamp - rep.start)
                epochs = rec.epoch + 1
                break
    return median(times), epochs


SELF_LAYERS = (
    "diffcore.backward", "dyngraph.chains", "dyngraph.edge", "dyngraph.relax", "dyngraph.hop",
    "dyngraph.build", "stnet.spatial", "stnet.temporal", "stnet.output", "stnet.block",
    "model.forward", "trainer.evaluate", "trainer.train",
)


def layer_metrics(spec, tracer, traced, untraced):
    """Per-traced-repetition self times, calls and step times; also the self-time sum."""
    n = len(traced)
    table = tracer.layer_table()
    out = {}
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = table.get(layer, (0.0, 0))[0] / n
    for layer in ("stnet.spatial", "stnet.temporal"):
        out[f"{layer}.calls"] = table.get(layer, (0.0, 0))[1] / n
    out["trainer.loss_s"] = sum(tracer.durations("trainer.loss")) / n
    out["trainer.optimizer_s"] = sum(tracer.durations("trainer.optimizer")) / n
    out["trainer.forward_s"] = sum(tracer.durations("model.forward", "trainer.train")) / n
    out["trainer.validate_s"] = sum(tracer.durations("trainer.evaluate", "trainer.train")) / n
    roots = tracer.durations("trainer.train" if spec.kind == "train" else "trainer.evaluate", "")
    steps = tracer.train_steps() if spec.kind == "train" else roots
    out["trainer.step_p50_s"] = median(steps)
    out["trainer.step_tail_s"], out["trainer.step_tail_pct"] = tail(steps)
    out["trainer.steps"] = len(steps)
    out["trace.root_s"] = sum(roots) / n
    # The first repetition also grows the heap; traced ones never come first.
    base = median([r.end - r.start for r in untraced[1:] or untraced])
    out["trace.overhead_pct"] = 100.0 * (median(roots) - base) / base
    self_sum = sum(out[f"{layer}.self_s"] for layer in SELF_LAYERS)
    self_sum += out["trainer.loss_s"] + out["trainer.optimizer_s"]
    return out, self_sum


def setup_layer_metrics(tracer):
    own = {
        "data.load_s": "data.load",
        "data.windows_s": "data.windows",
        "roadnet.hops_s": "roadnet.hops",
        "trainer.build_model_s": "trainer.build_model",
        "trainer.checkpoint_load_s": "trainer.checkpoint_load",
    }
    return {name: sum(tracer.durations(layer)) for name, layer in own.items()}


def resident_rss_mb():
    """Current resident set size of this process (Linux), or NaN elsewhere."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return math.nan
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "machine": platform.machine(),
    }


def benchmark_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


# -- one run ---------------------------------------------------------------------


def run(spec, seed, seconds, trace, out_dir):
    """Run one workload; returns the full record (``result`` is the contract line)."""
    env = environment()
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{spec.name}-seed{seed}-trace{int(trace)}"
    workdir = out_dir / f"inputs-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(spec, seed, seconds, trace, out_dir, tag, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def prepare(spec, seed, workdir):
    """Untimed: write the inputs, and for predict workloads the checkpoint; returns its path or None."""
    values = make_inputs(spec, seed, workdir)
    return save_checkpoint(spec, seed, values, workdir) if spec.kind == "predict" else None


def _run(spec, seed, seconds, trace, out_dir, tag, workdir, env):
    checkpoint = prepare(spec, seed, workdir)
    setup_times = []

    def timed_setup():
        start = time.perf_counter()
        prepared = setup(spec, seed, workdir, checkpoint)
        setup_times.append(time.perf_counter() - start)
        return prepared

    # Set-ups are timed before and after the timed section, so that setup_s
    # samples the machine at more than one moment of the run.
    before = (spec.setup_reps + 1) // 2
    for _ in range(before):
        st = None  # free the previous set-up's arrays first
        st = timed_setup()
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    resident_mb = resident_rss_mb()

    tracer = Tracer() if trace else None
    if trace:
        restore = tracer.install()
        try:
            st = None
            st = setup(spec, seed, workdir, checkpoint)
        finally:
            restore()
        setup_part = setup_layer_metrics(tracer)
        tracer.clear()

    reps = timed_loop(spec, st, seed, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    for _ in range(spec.setup_reps - before):
        timed_setup()
    values = {
        "windows_per_s": throughput(spec, st, untraced),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        tracer.dump(out_dir / f"{tag}-spans.json")

    op_failures, check_failures = [], []
    attempted, failed = count_failures(spec, st, reps, op_failures)
    check_determinism(reps, check_failures)
    quality = dict(reps[0].quality)
    reference = check_reference(spec, seed, quality, check_failures)
    ds = st.val if spec.kind == "train" else st.test
    edge_density, mask_density = graph_checks(st, ds, check_failures)
    tape_nodes, tape_bytes = tape_counts(spec, st, seed)
    ttt_s, ttt_epochs = time_to_target(st, untraced) if spec.kind == "train" else (0.0, 0)
    computed = {
        "diffcore.tape_nodes": tape_nodes, "diffcore.tape_bytes": tape_bytes,
        "dyngraph.edge_density": edge_density, "dyngraph.mask_density": mask_density,
        "trainer.epochs_to_target": ttt_epochs, "trainer.time_to_target_s": ttt_s,
    }
    record = {"workload": spec.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "quality": quality, "reference_check": reference,
              "computed": computed, "reps": len(untraced), "traced_reps": len(traced),
              "setup_times_s": setup_times,
              "peak_rss_after_setup_mb": setup_rss_mb,
              "rss_before_timed_mb": resident_mb,
              "rep_s": [r.end - r.start for r in reps],
              "rep_cpu_s": [r.cpu_s for r in reps],
              "rep_traced": [r.traced for r in reps],
              "epoch_end_s": [[t - r.start for t, _ in r.epoch_marks] for r in reps]}
    if trace:
        layers, record["self_time_sum_s"] = layer_metrics(spec, tracer, traced, untraced)
        values = {**layers, **setup_part, **computed}

    # Each failed check counts as one more failed op.
    failed = min(attempted, failed + len(check_failures))
    wanted = benchmark_metrics(trace)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"workload {spec.name} computes no value for {missing}")
    result = {
        "correct": not (op_failures or check_failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record.update(failures=op_failures + check_failures, all_values=values, result=result,
                  op_failure_ratio=failed / attempted)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record):
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} reps={record['reps']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# quality " + " ".join(f"{k}={v!r}" for k, v in record["quality"].items())
          + f" (reference: {record['reference_check']})")
    print("# computed " + " ".join(f"{k}={v!r}" for k, v in record["computed"].items()))
    res = record["result"]
    print(f"# op_failure_ratio {record['op_failure_ratio']!r} ({res['failed']}/{res['attempted']} ops)")
    if "self_time_sum_s" in record:
        print(f"# layer self-time sum {record['self_time_sum_s']!r} s vs traced root "
              f"{record['all_values']['trace.root_s']!r} s per rep")
    for msg in record["failures"]:
        print(f"# FAILED {msg}")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(res))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out_dir)
    report(record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
