"""Acceptance gates, one test per criterion, each printing a PASS/FAIL line.

Runs the finite-difference gradient suite, brute-force oracle
equivalences, Monte-Carlo stochastic contracts, in-training structural
invariants, the synthetic overfit and planted-dependency experiments,
baseline closed forms, and determinism/persistence round trips.
"""

import os
import time

import numpy as np
import pytest

from tglrn import data as dmod
from tglrn import diffcore as dc
from tglrn import dyngraph as dg
from tglrn import roadnet, stnet, trainer
from tglrn.diffcore import Parameter, Tensor
from tglrn.gradcheck import run_gradcheck_suite
from tglrn.model import ModelConfig

from test_dyngraph import rows_from_choices


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: gradient suite -------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    reports = run_gradcheck_suite(seed=0)
    elapsed = time.time() - t0
    failures = [r for r in reports if not r.passed]
    worst = max(r.max_rel_err for r in reports)
    ok = not failures and elapsed < 120.0
    report(
        1,
        ok,
        f"{len(reports) - len(failures)}/{len(reports)} params, worst rel err "
        f"{worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 120s)",
    )


# -- criterion 2: oracle equivalence ----------------------------------------------


def _naive_diffusion(x, a, theta, k_steps):
    n, d_in = x.shape
    d_out = theta.shape[-1]
    deg_out = a.sum(axis=1)
    deg_in = a.T.sum(axis=1)
    p_fwd = np.divide(a, deg_out[:, None], out=np.zeros_like(a), where=deg_out[:, None] != 0)
    p_rev = np.divide(a.T, deg_in[:, None], out=np.zeros_like(a), where=deg_in[:, None] != 0)
    out = np.zeros((n, d_out))
    for q in range(d_out):
        for p in range(d_in):
            for k in range(k_steps):
                out[:, q] += theta[k, 0, p, q] * (np.linalg.matrix_power(p_fwd, k) @ x[:, p])
                out[:, q] += theta[k, 1, p, q] * (np.linalg.matrix_power(p_rev, k) @ x[:, p])
    return out


def _naive_gtu(x, kernel, ks):
    t_in, n, d = x.shape
    t_out = t_in - ks + 1
    pre = np.zeros((t_out, n, kernel.shape[-1]))
    for t in range(t_out):
        for s in range(ks):
            pre[t] += x[t + s] @ kernel[s]
    u, v = pre[..., :d], pre[..., d:]
    return np.tanh(u) / (1.0 + np.exp(-v))


def _floyd_warshall(a_sp):
    n = a_sp.shape[0]
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        for j in range(n):
            if i != j and a_sp[i, j]:
                d[i, j] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_diff = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d_in))
        a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        theta = rng.standard_normal((k, 2, d_in, d_out))
        got = stnet.diffusion_conv(Tensor(x), Tensor(a), Parameter(theta), k).data
        worst_diff = max(worst_diff, float(np.abs(got - _naive_diffusion(x, a, theta, k)).max()))
    diff_ok = worst_diff < 1e-12

    worst_gtu = 0.0
    for _ in range(25):
        t_in = int(rng.integers(2, 9))
        ks = int(rng.integers(1, t_in + 1))
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        x = rng.standard_normal((t_in, n, d))
        kernel = rng.standard_normal((ks, d, 2 * d))
        got = stnet.gtu_conv(Tensor(x), Parameter(kernel), ks).data
        worst_gtu = max(worst_gtu, float(np.abs(got - _naive_gtu(x, kernel, ks)).max()))
    gtu_ok = worst_gtu < 1e-12

    hops_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 16))
        density = rng.uniform(0.05, 0.5)
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.uniform() < density]
        net = roadnet.build_asp(edges, n)
        dist = roadnet.hop_distances(net)
        oracle = _floyd_warshall(net.a_sp)
        for k in (1, 2, max(1, n // 2)):
            if not np.array_equal(roadnet.structure_info(dist, k), (oracle <= k)):
                hops_ok = False

    report(
        2,
        diff_ok and gtu_ok and hops_ok,
        f"diffusion max diff {worst_diff:.2e}, gtu max diff {worst_gtu:.2e} "
        f"(tol 1e-12), hop masks == Floyd-Warshall on 50 digraphs",
    )


# -- criterion 3: stochastic contracts --------------------------------------------


def test_criterion_3_stochastic_contracts():
    rng = np.random.default_rng(33)
    n = 100_000
    details = []
    ok = True

    for gamma in (0.05, 0.1, 0.2, 0.3):
        out = dg.edge_sample(np.ones(n), dg.keep_pattern(rng.uniform(size=n), gamma))
        kept = float(np.mean(out != 0.0))
        sigma = np.sqrt(gamma * (1 - gamma) / n)
        ok &= abs(kept - gamma) < 3 * sigma
        details.append(f"keep({gamma})={kept:.4f}")

    for w_bar in (0.25, 0.5, 0.75):
        p = dg.gumbel_relax(np.full(n, w_bar), 1.0, dg.logistic_noise(rng.uniform(size=n)))
        frac = float(np.mean(p > 0.5))
        sigma = np.sqrt(w_bar * (1 - w_bar) / n)
        ok &= abs(frac - w_bar) < 3 * sigma
        details.append(f"median({w_bar})={frac:.4f}")

    draws = 10_000
    probs = np.array([0.2, 0.5, 0.3])
    tiled = Tensor(np.tile(probs, (draws, 1)))
    h, _ = dg.select_hops(tiled, 1.0, rng.uniform(size=tiled.shape))
    freq = np.bincount(h, minlength=3) / draws
    for target, got in zip(probs, freq):
        sigma = np.sqrt(target * (1 - target) / draws)
        ok &= abs(got - target) < 3 * sigma
    details.append("hop freq " + "/".join(f"{f:.3f}" for f in freq))

    report(3, ok, "; ".join(details) + " (all within 3 sigma)")


# -- shared synthetic setups -------------------------------------------------------


def overfit_setup(seed):
    """Chain topology, 8 nodes, exactly 200 train windows, noise 0.05."""
    net, series, _ = dmod.synth_generate(dmod.SynthSettings(synth_nodes=8, synth_steps=372), seed)
    splits = dmod.make_windows(series, 12, 12)
    b1, _ = dmod.split_boundaries(372)
    scaler = dmod.fit_scaler(series.values[:b1])
    cfg = ModelConfig(
        num_nodes=8,
        t_in=12,
        t_out=12,
        embed_dim=8,
        hop_dim=8,
        hidden_dim=16,
        levels=3,
        diff_steps=2,
        kernel_size=2,
        n_blocks=2,
        gamma=0.3,
        dropout_rate=0.05,
    )
    model = trainer.build_model(cfg, net.edges, scaler, seed)
    return model, splits


# -- criterion 4: structural invariants during training -----------------------------


def test_criterion_4_structural_invariants_during_training():
    model, (train_ds, val_ds, _) = overfit_setup(seed=0)
    stacked = model.graph_block.masks
    checked = {"batches": 0, "entries": 0}
    build = model.graph_block.build

    def checked_build(window, mode, **kwargs):
        # The diagnostics draw nothing from the RNG, so training runs as it would unwrapped.
        seq, graphs = build(window, mode, want_diag=True, **kwargs)
        if mode != "train":
            return seq
        for t, adj in enumerate(seq.adjacencies):
            a = adj.data
            assert a.min() >= 0.0 and a.max() <= 1.0, "adjacency outside [0, 1]"
            rows = rows_from_choices(stacked, seq.hop_choices[:, t, :] - 1)
            assert np.all(rows[a != 0] == 1.0), "nonzero weight outside selected mask"
            pre = graphs.prenorm_logits[t]
            mu = pre.mean(axis=(-2, -1))
            sd = pre.std(axis=(-2, -1))
            assert np.all(np.abs(mu) < 1e-9), "logit mean drifted"
            assert np.all(np.abs(sd - 1.0) < 1e-9), "logit std drifted"
            checked["entries"] += a.size
        checked["batches"] += 1
        return seq

    model.graph_block.build = checked_build
    settings = trainer.TrainSettings(batch_size=32, max_epochs=5, patience=100)
    trainer.train(model, train_ds, val_ds, settings, seed=0)
    report(
        4,
        checked["batches"] >= 5 * (len(train_ds) // 32),
        f"support/range/moment invariants held on all {checked['batches']} batches "
        f"({checked['entries']} adjacency entries) of a 5-epoch run",
    )


# -- criterion 5: synthetic overfit ------------------------------------------------


@pytest.mark.slow
def test_criterion_5_synthetic_overfit():
    t0 = time.time()
    wins = 0
    details = []
    for seed in range(5):
        model, (train_ds, val_ds, _) = overfit_setup(seed)
        threshold = 0.15 * float(train_ds.targets.std())
        settings = trainer.TrainSettings(batch_size=32, max_epochs=100, patience=100)
        history, _ = trainer.train(
            model,
            train_ds,
            val_ds,
            settings,
            seed=seed,
            epoch_hook=lambda rec, thr=threshold: rec.train_loss < thr,
        )
        best = min(rec.train_loss for rec in history)
        hit = best < threshold
        wins += hit
        details.append(f"seed {seed}: {best:.3f}{'<' if hit else '>='}{threshold:.3f}@ep{len(history)}")
    elapsed = time.time() - t0
    ok = wins >= 4 and elapsed < 600.0
    report(5, ok, f"{wins}/5 seeds under 0.15 x target std; {elapsed:.0f}s (< 600s); " + "; ".join(details))


# -- criterion 6: planted-dependency recovery ---------------------------------------


def recovery_setup(seed):
    """Regime-switching coupling dominating the predictable signal."""
    settings = dmod.SynthSettings(
        synth_nodes=8,
        synth_steps=500,
        synth_noise_std=2.0,
        synth_amplitude=0.3,
        synth_coupling_a=0.95,
        synth_coupling_b=0.0,
        synth_regime_period=60,
    )
    net, series, planted = dmod.synth_generate(settings, seed)
    splits = dmod.make_windows(series, 6, 1)
    b1, _ = dmod.split_boundaries(500)
    scaler = dmod.fit_scaler(series.values[:b1])
    cfg = ModelConfig(
        num_nodes=8,
        t_in=6,
        t_out=1,
        embed_dim=8,
        hop_dim=8,
        hidden_dim=16,
        levels=2,
        diff_steps=2,
        kernel_size=2,
        n_blocks=1,
        gamma=0.3,
        dropout_rate=0.0,
    )
    model = trainer.build_model(cfg, net.edges, scaler, seed)
    return model, splits, net, planted


@pytest.mark.slow
def test_criterion_6_planted_dependency_recovery():
    wins = 0
    details = []
    for seed in range(5):
        model, (train_ds, val_ds, test_ds), net, planted = recovery_setup(seed)
        settings = trainer.TrainSettings(batch_size=32, max_epochs=60, patience=1000)
        trainer.train(model, train_ds, val_ds, settings, seed=seed)

        planted_pairs = set(planted.pairs) if np.any(planted.coeff_by_step != 0.0) else set()
        edge_set = set(net.edges)
        non_neighbors = [
            (i, j)
            for i in range(8)
            for j in range(8)
            if i != j and (i, j) not in edge_set and (i, j) not in planted_pairs
        ]
        windows = test_ds.inputs[:40]
        with dc.no_grad():
            _, diag = model.graph_block.build(
                Tensor(model.scaler.apply(windows)), "eval", want_diag=True
            )
        mean_w = np.mean(diag.omega_bar, axis=(0, 1))
        planted_mean = float(np.mean([mean_w[i, j] for i, j in planted_pairs]))
        other_mean = float(np.mean([mean_w[i, j] for i, j in non_neighbors]))
        wins += planted_mean > other_mean
        details.append(f"seed {seed}: planted {planted_mean:.4f} vs non-neighbor {other_mean:.4f}")
    report(6, wins >= 4, f"{wins}/5 seeds separate the means; " + "; ".join(details))


# -- criterion 7: baseline closed forms ----------------------------------------------


def test_criterion_7_baseline_sanity():
    constant = dmod.FlowSeries(values=np.full((60, 3, 1), 42.0))
    const_report = trainer.baseline_ha(dmod.make_windows(constant, 12, 12)[0])
    const_ok = const_report.mae == 0.0

    t_in = 12
    ramp = dmod.FlowSeries(values=np.arange(90.0)[:, None, None] * np.ones((1, 2, 1)))
    ramp_report = trainer.baseline_ha(dmod.make_windows(ramp, t_in, 12)[0], mape_threshold=0.0)
    worst = max(
        abs(mae - ((t_in - 1) / 2 + h))
        for h, (mae, _, _) in enumerate(ramp_report.per_horizon, start=1)
    )
    ramp_ok = worst < 1e-9
    report(
        7,
        const_ok and ramp_ok,
        f"constant-series MAE {const_report.mae} (exact 0), ramp per-horizon "
        f"closed-form deviation {worst:.2e} (< 1e-9)",
    )


# -- criterion 8: determinism and persistence ----------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    histories = []
    metrics = []
    for run in range(2):
        model, (train_ds, val_ds, test_ds) = overfit_setup(seed=11)
        settings = trainer.TrainSettings(batch_size=32, max_epochs=3, patience=100)
        history, _ = trainer.train(model, train_ds, val_ds, settings, seed=11)
        path = tmp_path / f"history{run}.csv"
        trainer.write_history(path, history)
        histories.append(path.read_bytes())
        metrics.append(trainer.evaluate(model, test_ds))
    history_ok = histories[0] == histories[1] and metrics[0] == metrics[1]

    model, (train_ds, val_ds, test_ds) = overfit_setup(seed=11)
    settings = trainer.TrainSettings(batch_size=32, max_epochs=2, patience=100)
    trainer.train(model, train_ds, val_ds, settings, seed=11)
    before = trainer.evaluate(model, test_ds)
    ckpt = tmp_path / "model.ckpt"
    trainer.checkpoint_save(ckpt, model)
    loaded, _ = trainer.checkpoint_load(ckpt)
    after = trainer.evaluate(loaded, test_ds)
    roundtrip_ok = before == after  # bitwise float equality via dataclass eq

    report(
        8,
        history_ok and roundtrip_ok,
        f"re-run history bitwise identical: {history_ok}; checkpoint round-trip "
        f"test MAE {before.mae} == {after.mae}: {roundtrip_ok}",
    )


# -- criterion 9: full-scale reference (optional, excluded from CI) ------------------


@pytest.mark.skipif(
    not os.environ.get("TGLRN_PEMS08_DIR"),
    reason="full-scale reference run is optional and needs PeMS08 data "
    "(set TGLRN_PEMS08_DIR with flow.csv/edges.csv; multi-hour run)",
)
def test_criterion_9_fullscale_reference():
    base = os.environ["TGLRN_PEMS08_DIR"]
    from tglrn.cli import main

    out = os.path.join(base, "run")
    args = ["train"]
    for s in (
        f"edges_path={base}/edges.csv",
        f"flows_path={base}/flow.csv",
        "num_nodes=170",
        f"out_dir={out}",
        "hidden_dim=64",
        "kernel_size=6",
        "n_blocks=1",
        "levels=10",
        "gamma=0.3",
    ):
        args += ["--set", s]
    assert main(args) == 0
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    overall_mae = float(lines[1].split(",")[1])
    reference = 15.28
    report(9, abs(overall_mae - reference) / reference < 0.10, f"MAE {overall_mae} vs {reference}")
