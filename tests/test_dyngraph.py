"""Graph-construction pipeline: units, oracles, stochastic contracts, gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglrn import diffcore as dc
from tglrn import dyngraph as dg
from tglrn import roadnet
from tglrn.diffcore import Linear, Parameter, Tensor
from tglrn.errors import ConfigError
from tglrn.gradcheck import finite_diff_check
from tglrn.model import ModelConfig

from tensor_ops import broadcast_to, einsum2, power, rsqrt_or_zero, rsub, stack, transpose
from test_stnet import assert_within, closure_arrays


def make_masks(edges, n, levels, symmetrize=False):
    net = roadnet.build_asp(edges, n)
    return roadnet.structure_group(roadnet.hop_distances(net, symmetrize=symmetrize), levels)


def chain_masks(n, levels):
    return make_masks([(i, i + 1) for i in range(n - 1)], n, levels)


def gru_step(chain, e, x):
    """One GRU step of ``chain`` as one tape node: the per-step node that ``run`` replaced.

    Maps the (..., N, d) embedding ``e`` and the (..., N, F) input ``x`` to the
    next embedding, with the arithmetic of ``chain_node``'s forward.
    The node keeps its output, z, r and the candidate.
    """
    proj, f_z, f_r, g_lin = chain.proj, chain.f_z, chain.f_r, chain.g
    d, f = f_z.out_dim, proj.in_dim

    def stacked_zr():
        return np.concatenate([f_z.w.data, f_r.w.data], axis=1)

    e2 = e.data.reshape(-1, d)
    out = np.empty_like(e2)
    u = x.data.reshape(-1, f) @ proj.w.data + proj.b.data
    a_zr = np.concatenate([e2, u], axis=1) @ stacked_zr()
    z = dc.sigmoid_array(a_zr[:, :d] + f_z.b.data)
    r = dc.sigmoid_array(a_zr[:, d:] + f_r.b.data)
    cand = np.tanh(np.concatenate([r * e2, u], axis=1) @ g_lin.w.data + g_lin.b.data)
    np.subtract(1.0, z, out=out)
    out *= cand
    out += z * e2

    def bwd(grad):
        grad = grad.reshape(-1, d)
        e2 = e.data.reshape(-1, d)
        x2 = x.data.reshape(-1, f)
        u = x2 @ proj.w.data + proj.b.data
        de = grad * z
        da_zr = np.empty((grad.shape[0], 2 * d))
        dz = np.subtract(e2, cand, out=da_zr[:, :d])
        dz *= grad
        dz *= z * (1.0 - z)
        da_g = grad * (1.0 - z)
        da_g *= 1.0 - cand * cand
        g_lin.w._acc(np.concatenate([r * e2, u], axis=1).T @ da_g)
        g_lin.b._acc(da_g.sum(axis=0))
        d_reu = da_g @ g_lin.w.data.T
        dre = d_reu[:, :d]
        dr = np.multiply(dre, e2, out=da_zr[:, d:])
        dr *= r * (1.0 - r)
        de += dre * r
        dw_zr = np.concatenate([e2, u], axis=1).T @ da_zr
        f_z.w._acc(dw_zr[:, :d])
        f_r.w._acc(dw_zr[:, d:])
        db_zr = da_zr.sum(axis=0)
        f_z.b._acc(db_zr[:d])
        f_r.b._acc(db_zr[d:])
        d_eu = da_zr @ stacked_zr().T
        de += d_eu[:, :d]
        du = d_reu[:, d:] + d_eu[:, d:]
        proj.w._acc(x2.T @ du)
        proj.b._acc(du.sum(axis=0))
        if x._track:
            x._acc((du @ proj.w.data.T).reshape(x.shape))
        e._acc(de.reshape(e.shape))

    parents = (e, x) + tuple(p for _, p in chain.params()[1:])
    return Tensor._from_op(out.reshape(e.shape), parents, bwd)


def oracle_chain(chain, window):
    """The per-step chain: the broadcast initial embedding, T_in - 1 ``gru_step`` nodes, one stack."""
    e = broadcast_to(chain.e_init, (window.shape[0],) + chain.e_init.shape)
    embeddings = [e]
    for j in range(window.shape[1] - 2, -1, -1):
        e = gru_step(chain, e, window[:, j])
        embeddings.append(e)
    return stack(embeddings[::-1], axis=1)


def chain_node(chain, window):
    """One chain as one tape node with the projection inside the step: the node ``run`` replaced.

    Per step it projects the input, concatenates [e ; u] and [r * e ; u] and
    multiplies them by the full gate weights; backward recomputes those and adds
    every parameter's gradient once per step.
    """
    e_init, proj, f_z, f_r, g_lin = chain.e_init, chain.proj, chain.f_z, chain.f_r, chain.g
    (n, d), f = e_init.shape, proj.in_dim
    b, t_in = window.shape[:2]
    parents = (window,) + tuple(p for _, p in chain.params())
    keep = dc.recording(parents)

    def stacked_zr():
        return np.concatenate([f_z.w.data, f_r.w.data], axis=1)

    w_zr = stacked_zr()
    out = np.empty((b, t_in, n, d))
    out[:, -1] = e_init.data
    e2 = out[:, -1].reshape(-1, d)
    gates = [None] * (t_in - 1)  # step j's z, r and candidate, kept only on the tape
    for j in range(t_in - 2, -1, -1):
        u = window.data[:, j].reshape(-1, f) @ proj.w.data + proj.b.data
        a_zr = np.concatenate([e2, u], axis=1) @ w_zr
        z = dc.sigmoid_array(a_zr[:, :d] + f_z.b.data)
        r = dc.sigmoid_array(a_zr[:, d:] + f_r.b.data)
        del a_zr
        cand = np.tanh(np.concatenate([r * e2, u], axis=1) @ g_lin.w.data + g_lin.b.data)
        del u
        step = np.subtract(1.0, z)
        step *= cand
        step += z * e2
        out[:, j] = step.reshape(b, n, d)
        e2 = step
        if keep:
            gates[j] = (z, r, cand)

    def bwd(grad):
        w_zr = stacked_zr()
        dwindow = np.zeros(window.shape) if window._track else None
        de = None
        for j, (z, r, cand) in enumerate(gates):
            # Step j's output gets the node's own gradient plus step j-1's through it.
            g = grad[:, j] if de is None else grad[:, j] + de
            g = g.reshape(-1, d)
            e2 = out[:, j + 1].reshape(-1, d)
            x2 = window.data[:, j].reshape(-1, f)
            u = x2 @ proj.w.data + proj.b.data
            de = g * z
            # Both gates' pre-activation gradients side by side, as forward stacked them.
            da_zr = np.empty((g.shape[0], 2 * d))
            dz = np.subtract(e2, cand, out=da_zr[:, :d])
            dz *= g
            dz *= z * (1.0 - z)
            da_g = g * (1.0 - z)
            da_g *= 1.0 - cand * cand
            del g
            g_lin.w._acc(np.concatenate([r * e2, u], axis=1).T @ da_g)
            g_lin.b._acc(da_g.sum(axis=0))
            d_reu = da_g @ g_lin.w.data.T
            del da_g
            dre = d_reu[:, :d]
            dr = np.multiply(dre, e2, out=da_zr[:, d:])
            dr *= r * (1.0 - r)
            de += dre * r
            dw_zr = np.concatenate([e2, u], axis=1).T @ da_zr
            del u
            f_z.w._acc(dw_zr[:, :d])
            f_r.w._acc(dw_zr[:, d:])
            db_zr = da_zr.sum(axis=0)
            f_z.b._acc(db_zr[:d])
            f_r.b._acc(db_zr[d:])
            d_eu = da_zr @ w_zr.T
            de += d_eu[:, :d]
            du = d_reu[:, d:] + d_eu[:, d:]
            proj.w._acc(x2.T @ du)
            proj.b._acc(du.sum(axis=0))
            if dwindow is not None:
                dwindow[:, j] = (du @ proj.w.data.T).reshape(b, n, f)
            de = de.reshape(b, n, d)
        g = grad[:, -1] if de is None else grad[:, -1] + de
        e_init._acc(g.sum(axis=0))
        if dwindow is not None:
            window._acc(dwindow)

    return Tensor._from_op(out, parents, bwd)


class TestGruCell:
    """The GRU step's semantics, through two-step chains: position 0 is one step from e_init."""

    def _chain(self, seed=0, d=4, proj=3):
        return dg.EmbeddingChain(3, d, in_features=1, proj_dim=proj, rng=np.random.default_rng(seed))

    def test_update_gate_saturation_returns_embedding(self):
        chain = self._chain()
        chain.f_z.b.data[:] = 500.0  # z -> 1 exactly in float64
        window = Tensor(np.random.default_rng(2).standard_normal((2, 2, 3, 1)))
        out = chain.run(window)
        np.testing.assert_array_equal(out.data[:, 0], out.data[:, 1])

    def test_reset_saturation_depends_only_on_input(self):
        chain = self._chain()
        chain.f_z.b.data[:] = -500.0  # z -> 0
        chain.f_r.b.data[:] = -500.0  # r -> 0
        rng = np.random.default_rng(3)
        window = Tensor(rng.standard_normal((2, 2, 3, 1)))
        out_a = chain.run(window)
        chain.e_init.data[:] = rng.standard_normal(chain.e_init.shape)
        out_b = chain.run(window)
        assert not np.array_equal(out_a.data[:, 1], out_b.data[:, 1])
        np.testing.assert_array_equal(out_a.data[:, 0], out_b.data[:, 0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        chain = self._chain(seed=5)
        window = Parameter(rng.standard_normal((2, 2, 3, 1)), "window")
        r = rng.standard_normal((2, 2, 3, 4))
        reports = finite_diff_check(
            lambda: (chain.run(window) * Tensor(r)).sum(), [("window", window)] + chain.params()
        )
        assert all(rep.passed for rep in reports), [rep.line() for rep in reports]


def chain_run(run, chain, window_val, r):
    """Train forward and backward of ``run`` over a fresh window leaf, plus a no_grad forward."""
    for _, p in chain.params():
        p.zero_grad()
    window = Parameter(window_val.copy())
    out = run(chain, window)
    (out * Tensor(r)).sum().backward()
    with dc.no_grad():
        out_eval = run(chain, Tensor(window_val))
    return out.data, [window.grad] + [p.grad.copy() for _, p in chain.params()], out_eval.data


# Gate biases that saturate the sigmoids: z -> 1 exactly, and z, r -> 0.
SATURATING_BIASES = {
    "none": {},
    "update_open": {"f_z": 500.0},
    "both_closed": {"f_z": -500.0, "f_r": -500.0},
}


@pytest.mark.parametrize("biases", list(SATURATING_BIASES))
def test_fused_gru_matches_composition(biases):
    # The input term is folded into the gate maps, so forward matches the per-step
    # composition to rounding, not bitwise; train and no_grad forwards agree bitwise.
    for t_in in (1, 2, 5):
        rng = np.random.default_rng(40)
        chain = dg.EmbeddingChain(5, 4, in_features=2, proj_dim=3, rng=rng)
        for label, value in SATURATING_BIASES[biases].items():
            getattr(chain, label).b.data[:] = value
        window, r = rng.standard_normal((2, t_in, 5, 2)), rng.standard_normal((2, t_in, 5, 4))
        got, got_grads, got_eval = chain_run(dg.EmbeddingChain.run, chain, window, r)
        want, want_grads, want_eval = chain_run(oracle_chain, chain, window, r)
        assert_within(got, want)
        assert_within(got_eval, want_eval)
        np.testing.assert_array_equal(got, got_eval)
        # the window, e_init and the eight GRU parameters
        assert len(got_grads) == 10
        for g, w in zip(got_grads, want_grads):
            assert_within(g, w)


def group_run(chains, window_val, rs, fused):
    """Train forward and backward of a chain group over a fresh window leaf, plus a no_grad forward.

    ``fused`` runs the chains as one ``run``; otherwise each runs as its own ``chain_node``.
    """

    def run(window):
        if not fused:
            return tuple(chain_node(c, window) for c in chains)
        return chains[0].run(window, *chains[1:]) if len(chains) > 1 else (chains[0].run(window),)

    for c in chains:
        for _, p in c.params():
            p.zero_grad()
    window = Parameter(window_val.copy())
    outs = run(window)
    loss = Tensor(np.zeros(()))
    for out, r in zip(outs, rs):
        loss = loss + (out * Tensor(r)).sum()
    loss.backward()
    with dc.no_grad():
        evals = run(Tensor(window_val))
    grads = [window.grad] + [p.grad.copy() for c in chains for _, p in c.params()]
    return [o.data for o in outs], grads, [o.data for o in evals]


@pytest.mark.parametrize("features", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_fused_group_matches_per_chain_oracle(k, features):
    # k chains of one width as one node against k per-chain nodes, at T_in 1, 2 and 5,
    # in train and no_grad modes: outputs and every gradient within 1e-12 of the largest entry.
    for t_in in (1, 2, 5):
        rng = np.random.default_rng([k, features, t_in])
        chains = [dg.EmbeddingChain(5, 4, in_features=features, proj_dim=3, rng=rng) for _ in range(k)]
        chains[-1].f_z.b.data[:] = 3.0  # one chain leans on its update gate
        window = rng.standard_normal((2, t_in, 5, features))
        rs = [rng.standard_normal((2, t_in, 5, 4)) for _ in chains]
        got, got_grads, got_eval = group_run(chains, window, rs, fused=True)
        want, want_grads, want_eval = group_run(chains, window, rs, fused=False)
        assert len(got) == k and len(got_grads) == 1 + 9 * k
        for g, w in zip(got + got_eval, want + want_eval):
            assert_within(g, w)
        for g, w in zip(got, got_eval):
            np.testing.assert_array_equal(g, w)
        for g, w in zip(got_grads, want_grads):
            assert_within(g, w)


def test_group_of_unequal_chains_rejected():
    rng = np.random.default_rng(50)
    chain = dg.EmbeddingChain(5, 4, in_features=1, proj_dim=3, rng=rng)
    window = Tensor(np.zeros((2, 3, 5, 1)))
    for other in (
        dg.EmbeddingChain(5, 3, in_features=1, proj_dim=3, rng=rng),
        dg.EmbeddingChain(5, 4, in_features=1, proj_dim=2, rng=rng),
        dg.EmbeddingChain(4, 4, in_features=1, proj_dim=3, rng=rng),
    ):
        with pytest.raises(ConfigError, match="embedding chain"):
            chain.run(window, other)


# Embedding-sized temporaries one unrecorded chain run may hold above its output and
# its input terms (three embedding-sized arrays per step). Measured with tracemalloc
# at B=16, N=64, d=F_proj=8, T_in=12: 10.9 above the output and the input terms;
# keeping every step's [z | r] and candidate while unrecorded, as the tape does
# when recorded, would add 33 more.
NO_GRAD_CHAIN_STEP_TEMPS = 20


class TestGruStepNode:
    """``EmbeddingChain.run`` is one tape node per window."""

    def _chain(self, seed=41):
        return dg.EmbeddingChain(5, 4, in_features=1, proj_dim=3, rng=np.random.default_rng(seed))

    def test_parents_are_inputs_and_the_eight_parameters(self):
        chain = self._chain()
        window = Tensor(np.random.default_rng(43).standard_normal((2, 4, 5, 1)))
        out = chain.run(window)
        assert out._parents == (window,) + tuple(p for _, p in chain.params())
        assert len(out._parents) == 10
        assert chain.params()[0] == ("e_init", chain.e_init)

    def test_node_keeps_only_output_and_gates(self):
        # The node keeps every position's embedding, step-major, which its output
        # views, and each step's stacked [z | r] and candidate.
        chain = self._chain()
        t_in = 4
        window = Tensor(np.random.default_rng(45).standard_normal((2, t_in, 5, 1)))
        out = chain.run(window)
        own = {id(p.data) for p in out._parents}
        extra = [v for v in closure_arrays(out) if id(v) not in own]
        (states,) = [v for v in extra if v.size == out.size]
        assert np.shares_memory(states, out.data)
        gates = [v for v in extra if v is not states]
        assert len(gates) == 2 * (t_in - 1), [v.shape for v in gates]
        step = out.size // t_in
        assert sorted(v.size for v in gates) == [step] * (t_in - 1) + [2 * step] * (t_in - 1)

    def test_chain_records_one_node_per_run(self):
        chain = self._chain(seed=46)
        window = Tensor(np.random.default_rng(47).standard_normal((2, 5, 5, 1)))
        embs = chain.run(window)
        leaves = {id(p) for _, p in chain.params()}
        seen, todo = {}, [embs]
        while todo:
            t = todo.pop()
            if id(t) not in leaves and id(t) not in seen and t._track:
                seen[id(t)] = t
                todo.extend(t._parents)
        assert list(seen) == [id(embs)]

    def test_mismatched_shapes_rejected(self):
        chain = self._chain()
        for shape in [(2, 3, 4, 1), (2, 3, 5, 2), (2, 0, 5, 1), (3, 5, 1)]:
            with pytest.raises(ConfigError, match="embedding chain"):
                chain.run(Tensor(np.zeros(shape)))

    def test_no_grad_run_keeps_no_gates(self):
        # Unrecorded, a step's gates and candidate die with the step: the peak is the
        # output, the run's input terms and one step's temporaries. Keeping all
        # 3 * (T_in - 1) embedding-sized gate arrays, as the tape needs, would add 33
        # at T_in = 12.
        chain = dg.EmbeddingChain(64, 8, in_features=1, proj_dim=8, rng=np.random.default_rng(48))
        window = Tensor(np.random.default_rng(49).standard_normal((16, 12, 64, 1)))
        step_bytes = 16 * 64 * 8 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with dc.no_grad():
                out = chain.run(window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == 12 * step_bytes
        inputs = 3 * 11 * step_bytes
        assert peak - base < out.data.nbytes + inputs + NO_GRAD_CHAIN_STEP_TEMPS * step_bytes, peak - base


class TestEmbeddingChain:
    def _chain(self, n=3, d=4, seed=0):
        return dg.EmbeddingChain(n, d, in_features=1, proj_dim=2, rng=np.random.default_rng(seed))

    def test_single_step_window_returns_init_alone(self):
        chain = self._chain()
        window = Tensor(np.zeros((2, 1, 3, 1)))
        embs = chain.run(window)
        assert embs.shape == (2, 1, 3, 4)
        init = np.broadcast_to(chain.e_init.data, (2, 3, 4))
        np.testing.assert_array_equal(embs.data[:, 0], init)

    def test_saturated_update_freezes_chain(self):
        chain = self._chain()
        chain.f_z.b.data[:] = 500.0
        window = Tensor(np.random.default_rng(0).standard_normal((1, 5, 3, 1)))
        embs = chain.run(window)
        assert embs.shape == (1, 5, 3, 4)
        for j in range(5):
            np.testing.assert_array_equal(embs.data[0, j], chain.e_init.data)

    def test_three_step_composition_oracle(self):
        chain = self._chain(seed=7)
        rng = np.random.default_rng(8)
        window = Tensor(rng.standard_normal((2, 3, 3, 1)))
        embs = chain.run(window)
        e2 = broadcast_to(chain.e_init, (2, 3, 4))
        e1 = gru_step(chain, e2, window[:, 1])
        e0 = gru_step(chain, e1, window[:, 0])
        assert_within(embs.data, np.stack([e0.data, e1.data, e2.data], axis=1))


class TestGate:
    def test_zero_projection_halves(self):
        lin = Linear(4, 4, np.random.default_rng(0))
        lin.w.data[:] = 0.0
        e = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
        out = dg.gate(e, Tensor(np.zeros((3, 4))), lin)
        np.testing.assert_allclose(out.data, 0.5 * e.data, atol=1e-15)

    def test_open_and_closed_gate(self):
        lin = Linear(4, 4, np.random.default_rng(0))
        lin.w.data[:] = 0.0
        e = Tensor(np.random.default_rng(2).standard_normal((3, 4)))
        base = Tensor(np.zeros((3, 4)))
        lin.b.data[:] = 1e4  # sigmoid saturates to exactly 1.0
        np.testing.assert_array_equal(dg.gate(e, base, lin).data, e.data)
        lin.b.data[:] = -1e4  # exp underflow: sigmoid exactly 0.0
        np.testing.assert_array_equal(dg.gate(e, base, lin).data, np.zeros((3, 4)))


def dense_logits(u, v, bias=0.0):
    """The (..., N, N) logits w[i, j] = u_i + v_j + b of edge_logits' two projections."""
    return u + np.swapaxes(v, -1, -2) + bias


class TestEdgeLogits:
    def test_zero_embeddings_give_bias(self):
        w = Parameter(np.random.default_rng(0).standard_normal((8, 1)))
        u, v = dg.edge_logits(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))), w)
        assert u.shape == v.shape == (3, 1)
        np.testing.assert_allclose(dense_logits(u.data, v.data, 0.37), np.full((3, 3), 0.37), atol=1e-15)

    def test_matches_per_pair_concat_oracle(self):
        rng = np.random.default_rng(1)
        e_st, e_ed = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        w, b = rng.standard_normal((8, 1)), rng.standard_normal(1)
        u, v = dg.edge_logits(Tensor(e_st), Tensor(e_ed), Parameter(w))
        out = dense_logits(u.data, v.data, b[0])
        for i in range(3):
            for j in range(3):
                pair = np.tanh(np.concatenate([e_st[i], e_ed[j]]))
                np.testing.assert_allclose(out[i, j], pair @ w[:, 0] + b[0], atol=1e-12)

    def test_directionality_preserved(self):
        rng = np.random.default_rng(2)
        e_st, e_ed = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
        u, v = dg.edge_logits(e_st, e_ed, Parameter(rng.standard_normal((8, 1))))
        out = dense_logits(u.data, v.data)
        assert not np.allclose(out, out.T)


def normalized(u, v, alpha=1.0):
    """The dense (..., N, N) normalized logits of (..., N) projections u and v."""
    u_hat, v_hat = dg.normalize_logits(np.asarray(u, float), np.asarray(v, float), alpha)
    return u_hat[..., :, None] + v_hat[..., None, :]


class TestNormalizeLogits:
    def test_constant_input_gives_half_weights(self):
        out = dg.bernoulli_means(normalized(np.full(4, 2.5), np.full(4, -1.0)))
        np.testing.assert_array_equal(out, np.full((4, 4), 0.5))

    def test_closed_form_three_values(self):
        # one start node and three end nodes: w = [[1, 2, 3]]
        out = normalized([0.0], [1.0, 2.0, 3.0], alpha=1.0)
        expected = np.array([[-1.224744871391589, 0.0, 1.224744871391589]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_moment_invariant(self, alpha):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((2, 2, 6)) * 7.0 + 3.0
        out = normalized(u, v, alpha=alpha)
        for b in range(2):
            assert abs(out[b].mean()) < 1e-9
            assert abs(out[b].std() - alpha) < 1e-9

    def test_clamped_range(self):
        out = dg.bernoulli_means(normalized([-1e6, 1e6], [0.0, 0.0]))
        assert out.min() >= dg.OMEGA_CLAMP
        assert out.max() <= 1.0 - dg.OMEGA_CLAMP

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        base=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        spread=st.tuples(*[st.sampled_from([0.0, 1e-13, 1e-7, 1.0, 30.0])] * 2),
        alpha=st.sampled_from([1.0, 20.0]),
        seed=st.integers(0, 2**16),
    )
    def test_closed_form_moments_match_dense_oracle(self, n, base, spread, alpha, seed):
        # Constant (spread 0) and near-constant steps included; alpha = 20 saturates the clamp.
        rng = np.random.default_rng(seed)
        u = base[0] + spread[0] * rng.standard_normal((2, n))
        v = base[1] + spread[1] * rng.standard_normal((2, n))
        w = u[:, :, None] + v[:, None, :]
        got, want = normalized(u, v, alpha), oracle_normalize_logits(Tensor(w), alpha).data
        _, _, rstd, scale = dg._normalize(u, v, alpha)
        # The dense oracle rounds u_i + v_j and its N^2-term sums: allow that rounding,
        # scaled by 1/std, on top of 1e-12 of alpha.
        size = np.abs(u).max(axis=-1) + np.abs(v).max(axis=-1)
        tol = 64 * n * n * np.finfo(float).eps * (size * rstd[:, 0] * alpha + alpha * n) + 1e-12 * alpha
        err = np.abs(got - want).max(axis=(-2, -1))
        assert np.all(err <= tol), (err, tol)
        bern_err = np.abs(dg.bernoulli_means(got) - dg.bernoulli_means(want)).max(axis=(-2, -1))
        assert np.all(bern_err <= tol)
        # The closed-form spread decides liveness exactly; a live step has mean 0 and std alpha.
        live = (np.ptp(u, axis=-1) + np.ptp(v, axis=-1)) > 0
        np.testing.assert_array_equal(scale[:, 0] > 0, live)
        assert np.all(got[~live] == 0.0)
        if max(spread) >= 1.0:
            assert np.all(np.abs(got.mean(axis=(-2, -1))) <= 1e-9 * alpha)
            assert np.all(np.abs(got.std(axis=(-2, -1)) - alpha * live) <= 1e-9 * alpha)


class TestGumbelRelax:
    def test_neutral_point(self):
        p = dg.gumbel_relax(np.array(0.5), 1.0, dg.logistic_noise(np.array(0.5)))
        assert p.item() == 0.5

    def test_median_property(self):
        rng = np.random.default_rng(11)
        n = 100_000
        for w_bar in (0.3, 0.62):
            p = dg.gumbel_relax(np.full(n, w_bar), 1.0, dg.logistic_noise(rng.uniform(size=n)))
            frac = float(np.mean(p > 0.5))
            sigma = np.sqrt(w_bar * (1 - w_bar) / n)
            assert abs(frac - w_bar) < 3 * sigma, (w_bar, frac)

    def test_low_temperature_concentrates(self):
        rng = np.random.default_rng(12)
        n = 50_000
        p = dg.gumbel_relax(np.full(n, 0.4), 0.01, dg.logistic_noise(rng.uniform(size=n)))
        near_edges = np.mean((p < 0.01) | (p > 0.99))
        assert near_edges > 0.95


class TestEdgeSample:
    def test_keep_all(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=(5, 5))
        out = dg.edge_sample(p, dg.keep_pattern(rng.uniform(size=(5, 5)), 1.0))
        np.testing.assert_array_equal(out, p)

    def test_drop_all(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(size=(5, 5))
        out = dg.edge_sample(p, dg.keep_pattern(rng.uniform(size=(5, 5)), 0.0))
        np.testing.assert_array_equal(out, np.zeros((5, 5)))

    def test_keep_rate_forty_percent(self):
        rng = np.random.default_rng(2)
        n = 100_000
        p = np.ones(n)
        out = dg.edge_sample(p, dg.keep_pattern(rng.uniform(size=n), 0.4))
        kept = float(np.mean(out != 0.0))
        assert abs(kept - 0.4) < 0.005


class TestHopSelector:
    def test_zero_weights_uniform(self):
        rng = np.random.default_rng(0)
        lin1, lin2 = Linear(4, 4, rng), Linear(4, 3, rng)
        lin2.w.data[:] = 0.0
        probs = dg.hop_probs(Tensor(rng.standard_normal((5, 4))), lin1, lin2)
        np.testing.assert_allclose(probs.data, np.full((5, 3), 1 / 3), atol=1e-15)

    def test_single_level(self):
        rng = np.random.default_rng(1)
        lin1, lin2 = Linear(4, 4, rng), Linear(4, 1, rng)
        probs = dg.hop_probs(Tensor(rng.standard_normal((5, 4))), lin1, lin2)
        np.testing.assert_array_equal(probs.data, np.ones((5, 1)))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        lin1, lin2 = Linear(6, 6, rng), Linear(6, 4, rng)
        probs = dg.hop_probs(Tensor(rng.standard_normal((7, 6)) * 3), lin1, lin2)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(7), atol=1e-12)

    def test_eval_argmax(self):
        p = Parameter(np.array([[0.1, 0.9]]))
        h, mix = dg.select_hops(p, 1.0)
        assert h[0] == 1  # 0-based index of level 2
        # the plain one-hot of the choice, recorded on no tape
        np.testing.assert_array_equal(mix.data, [[0.0, 1.0]])
        assert not mix._track

    def test_train_requires_draws_shaped_like_probs(self):
        p = Tensor(np.full((3, 2), 0.5))
        for draws in (np.full((3, 3), 0.5), np.full((2,), 0.5)):
            with pytest.raises(ConfigError):
                dg.select_hops(p, 1.0, draws)

    def test_eval_tie_breaks_low(self):
        p = Tensor(np.full((2, 4), 0.25))
        h, mix = dg.select_hops(p, 1.0)
        np.testing.assert_array_equal(h, [0, 0])
        np.testing.assert_array_equal(mix.data, [[1.0, 0.0, 0.0, 0.0]] * 2)

    def test_train_selection_frequencies(self):
        rng = np.random.default_rng(3)
        n = 10_000
        p = Tensor(np.tile([0.3, 0.7], (n, 1)))
        h, mix = dg.select_hops(p, 1.0, rng.uniform(size=p.shape))
        freq = np.bincount(h, minlength=2) / n
        for target, got in zip((0.3, 0.7), freq):
            sigma = np.sqrt(target * (1 - target) / n)
            assert abs(got - target) < 3 * sigma, (target, got)
        # straight-through forward value is the exact one-hot
        np.testing.assert_array_equal(mix.data.sum(axis=-1), np.ones(n))
        assert set(np.unique(mix.data)) <= {0.0, 1.0}


def rows_from_choices(masks, hop_choices):
    """Row i of S^{h[i]} for every leading index, for 0-based ``hop_choices``: the dense hop mask."""
    return masks[hop_choices, np.arange(masks.shape[1]), :]


def hop_masked(a, hop_choices, masks):
    """Row i of ``a`` masked by the reachability row of its 1-based hop radius, as build masks it."""
    pattern = dg.SupportPattern(masks)
    mixing = dg._one_hot(np.asarray(hop_choices) - 1, masks.shape[0])
    return a * pattern.scatter(pattern.hop_mask(mixing))


class TestPrune:
    def test_saturated_group_keeps_reachable(self):
        masks = chain_masks(4, 4)
        a = np.random.default_rng(0).uniform(size=(4, 4))
        out = hop_masked(a, np.full(4, 4), masks)
        reach = masks[-1]
        np.testing.assert_array_equal(out, a * reach)

    def test_radius_one_keeps_consecutive_and_self(self):
        masks = chain_masks(5, 3)
        a = np.ones((5, 5))
        out = hop_masked(a, np.ones(5, dtype=int), masks)
        np.testing.assert_array_equal(out, masks[0])

    def test_mixed_radii_match_bfs_ball_oracle(self):
        n = 5
        masks = chain_masks(n, 3)
        hops = np.array([1, 2, 1, 3, 2])
        a = np.ones((n, n))
        out = hop_masked(a, hops, masks)
        for i in range(n):
            ball = np.zeros(n)
            for j in range(n):
                dist = j - i  # directed chain distance
                ball[j] = 1.0 if 0 <= dist <= hops[i] else 0.0
            np.testing.assert_array_equal(out[i], ball)


def build_block(n=4, t_in=3, levels=2, gamma=0.5, seed=0, edges=None):
    edges = edges if edges is not None else [(i, i + 1) for i in range(n - 1)]
    cfg = ModelConfig(
        num_nodes=n, t_in=t_in, embed_dim=4, hop_dim=4, hidden_dim=5, levels=levels, gamma=gamma
    )
    return dg.GraphConstruction(cfg, make_masks(edges, n, levels), np.random.default_rng(seed))


def drawn(block, window, seed):
    """The graph draws of a train step over ``window``'s batch, from generator ``seed``."""
    return block.draw(np.random.default_rng(seed), window.shape[0])


class TestBuildGraphSequence:
    def test_trivial_composition(self):
        block = build_block(t_in=1, levels=1, gamma=1.0)
        window = Tensor(np.random.default_rng(0).standard_normal((1, 1, 4, 1)))
        seq = block.build(window, "train", draws=drawn(block, window, 1))
        assert len(seq.adjacencies) == 1
        support = seq.adjacencies[0].data[0] != 0
        assert np.all(block.masks[0][support] == 1.0)
        assert np.all(seq.hop_choices == 1)

    def test_eval_deterministic(self):
        block = build_block()
        window = Tensor(np.random.default_rng(2).standard_normal((2, 3, 4, 1)))
        a = block.build(window, "eval")
        b = block.build(window, "eval")
        for x, y in zip(a.adjacencies, b.adjacencies):
            np.testing.assert_array_equal(x.data, y.data)
        np.testing.assert_array_equal(a.hop_choices, b.hop_choices)

    def test_train_reproducible_for_fixed_seed(self):
        block = build_block()
        window = Tensor(np.random.default_rng(3).standard_normal((2, 3, 4, 1)))
        a = block.build(window, "train", draws=drawn(block, window, 42))
        b = block.build(window, "train", draws=drawn(block, window, 42))
        for x, y in zip(a.adjacencies, b.adjacencies):
            np.testing.assert_array_equal(x.data, y.data)

    def test_support_range_and_moment_invariants(self):
        block = build_block(n=5, t_in=4, levels=3, gamma=0.7, seed=9)
        window = Tensor(np.random.default_rng(4).standard_normal((3, 4, 5, 1)))
        seq, diag = block.build(window, "train", draws=drawn(block, window, 5), want_diag=True)
        for t, adj in enumerate(seq.adjacencies):
            a = adj.data
            assert a.min() >= 0.0 and a.max() <= 1.0
            sel = rows_from_choices(block.masks, seq.hop_choices[:, t, :] - 1)
            assert np.all(sel[a != 0] == 1.0)
            pre = diag.prenorm_logits[t]
            for b in range(pre.shape[0]):
                assert abs(pre[b].mean()) < 1e-9
                assert abs(pre[b].std() - 1.0) < 1e-9

    def test_only_training_draws(self):
        block = build_block(gamma=0.2)
        window = Tensor(np.random.default_rng(6).standard_normal((1, 3, 4, 1)))
        plain = block.build(window, "eval")
        given = block.build(window, "eval", draws=drawn(block, window, 7))
        np.testing.assert_array_equal(given.values.data, plain.values.data)
        np.testing.assert_array_equal(given.hop_choices, plain.hop_choices)
        with pytest.raises(ConfigError, match="the step's draws"):
            block.build(window, "train")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_unknown_hop_mode_rejected(self, mode):
        block = build_block()
        window = Tensor(np.random.default_rng(8).standard_normal((1, 3, 4, 1)))
        for hop_mode in ("Hard", "relaxed"):
            with pytest.raises(ConfigError, match=f"hop_mode '{hop_mode}'"):
                block.build(window, mode, draws=drawn(block, window, 9), hop_mode=hop_mode)


class TestGradientFlow:
    def test_init_embeddings_reach_adjacency(self):
        block = build_block(n=4, t_in=3, levels=2, gamma=0.6, seed=1)
        rng_data = np.random.default_rng(10)
        window = Tensor(rng_data.standard_normal((1, 3, 4, 1)))
        weights = [rng_data.standard_normal((1, 4, 4)) for _ in range(3)]

        on_pattern = Tensor(block.pattern.gather(np.stack(weights, axis=1)))

        draws = drawn(block, window, 123)

        def build_loss():
            seq = block.build(window, "train", draws=draws)
            return (seq.values * on_pattern).sum()

        params = [
            ("st.e_init", block.chain_st.e_init),
            ("ed.e_init", block.chain_ed.e_init),
        ]
        reports = finite_diff_check(build_loss, params)
        assert all(r.passed for r in reports), [r.line() for r in reports]

        for _, p in params:
            p.zero_grad()
        block.chain_h.e_init.zero_grad()
        build_loss().backward()
        assert np.any(block.chain_st.e_init.grad != 0.0)
        assert np.any(block.chain_ed.e_init.grad != 0.0)
        # straight-through path: analytic gradient reaches the hop chain too
        assert np.any(block.chain_h.e_init.grad != 0.0)


# -- Tensor-level oracle: the edge pipeline as one diffcore op per stage ----------


def oracle_normalize_logits(w, alpha):
    mu = w.mean(axis=(-2, -1), keepdims=True)
    var = power(w - mu, 2).mean(axis=(-2, -1), keepdims=True)
    spread = w.data.max(axis=(-2, -1), keepdims=True) - w.data.min(axis=(-2, -1), keepdims=True)
    live = (spread > 0).astype(np.float64)
    return (w - mu) * rsqrt_or_zero(var) * (alpha * live)


def oracle_bernoulli_means(w_hat):
    return w_hat.sigmoid().clamp(dg.OMEGA_CLAMP, 1.0 - dg.OMEGA_CLAMP)


def oracle_gumbel_relax(w_bar, tau, delta):
    delta = np.clip(delta, 1e-12, 1.0 - 1e-12)
    noise = np.log(delta) - np.log1p(-delta)
    logits = w_bar.log() - rsub(1.0, w_bar).log()
    return ((logits + noise) * (1.0 / tau)).sigmoid()


def oracle_edge_sample(p, gamma, rho):
    keep = (np.maximum(rho, 1e-300) <= gamma).astype(np.float64)
    return p * keep


def oracle_edge_op(w, mask, alpha, tau, delta=None, gamma=None, rho=None):
    p = oracle_bernoulli_means(oracle_normalize_logits(w, alpha))
    if delta is not None:
        p = oracle_gumbel_relax(p, tau, delta)
    if rho is not None:
        p = oracle_edge_sample(p, gamma, rho)
    return p * mask


def oracle_build(block, window, mode, rng=None, hop_mode="hard"):
    """GraphConstruction.build one step at a time, with every edge stage its own tape node.

    In training each step draws delta, rho and its hop uniforms just before it uses them.
    """
    training = mode == "train"
    emb_st = block.chain_st.run(window)
    emb_ed = block.chain_ed.run(window)
    emb_h = block.chain_h.run(window)
    b, n = window.shape[0], block.num_nodes
    adjacencies, hops = [], []
    for j in range(block.t_in):
        e_st = dg.gate(emb_st[:, j], block.base_st[j], block.gate_st)
        e_ed = dg.gate(emb_ed[:, j], block.base_ed[j], block.gate_ed)
        u, v = dg.edge_logits(e_st, e_ed, block.edge_w)
        w = u + transpose(v, (0, 2, 1))
        delta = rng.uniform(size=(b, n, n)) if training else None
        rho = rng.uniform(size=(b, n, n)) if training else None
        probs = dg.hop_probs(emb_h[:, j], block.hop_l1, block.hop_l2)
        if training:
            uniforms = rng.uniform(size=probs.shape)
            h, mixing = straight_through_hops(probs, block.tau, uniforms, hop_mode == "hard")
            mask = einsum2("bnl,lnj->bnj", mixing, Tensor(block.masks))
        else:
            h = np.argmax(probs.data, axis=-1)
            mask = Tensor(rows_from_choices(block.masks, h))
        adjacencies.append(oracle_edge_op(w, mask, block.alpha, block.tau, delta, block.gamma, rho))
        hops.append(h + 1)
    return adjacencies, np.stack(hops, axis=1)


def straight_through_hops(p, tau, uniforms, straight_through=True):
    """select_hops in training, its straight-through mixing composed as before it was one node.

    The hard one-hot is added to y - y, whose subtrahend is the relaxed softmax y's values off
    the tape: forward sees the one-hot, backward hands y the gradient through two nodes.
    """
    h, y = dg.select_hops(p, tau, uniforms, straight_through=False)
    if not straight_through:
        return h, y
    return h, y - Tensor(y.data) + Tensor(dg._one_hot(h, p.shape[-1]))


def test_straight_through_node_matches_composition():
    rng = np.random.default_rng(31)
    logits = rng.standard_normal((3, 5, 4)) * 2.0
    uniforms = rng.uniform(size=logits.shape)
    r = rng.standard_normal(logits.shape)
    results = []
    for select in (dg.select_hops, straight_through_hops):
        x = Parameter(logits.copy())
        h, mixing = select(dc.softmax(x, axis=-1), 0.7, uniforms)
        if select is dg.select_hops:  # one node, fed only the relaxed softmax
            (y,) = mixing._parents
            assert y._bwd.__qualname__.startswith("softmax.")
        (mixing * Tensor(r)).sum().backward()
        results.append((h, mixing.data, x.grad))
    (h, mixing, grad), (want_h, want_mixing, want_grad) = results
    np.testing.assert_array_equal(h, want_h)
    assert mixing.tobytes() == want_mixing.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def per_step_edge_adjacency(u, v, mixing, pattern, alpha, tau, draws=None):
    """edge_adjacency once per step on time slices of (B, T, ...) inputs, stacked along time.

    The composition that build ran before one node covered the window.
    """
    steps = [
        dg.edge_adjacency(
            u[:, j], v[:, j], mixing[:, j], pattern, alpha, tau,
            None if draws is None else tuple(x[:, j] for x in draws),
        )
        for j in range(u.shape[1])
    ]
    return stack(steps, axis=1)


def grads_after(block, out, weights):
    """Every parameter gradient of sum(out * weights)."""
    for _, p in block.params():
        p.zero_grad()
    (out * Tensor(weights)).sum().backward()
    return {name: p.grad.copy() for name, p in block.params()}


def assert_grads_close(got, want, rtol=1e-12):
    """Within rtol of each gradient's largest entry."""
    for name, g in want.items():
        scale = max(np.abs(g).max(), 1e-300)
        err = np.abs(got[name] - g).max() / scale
        assert err <= rtol, (name, err)


class TestEdgeOp:
    @pytest.mark.parametrize(
        "mode, hop_mode", [("train", "hard"), ("train", "soft"), ("eval", "hard")]
    )
    def test_build_matches_per_op_oracle(self, mode, hop_mode):
        block = build_block(n=5, t_in=4, levels=3, gamma=0.6, seed=11)
        data = np.random.default_rng(12)
        window = Tensor(data.standard_normal((3, 4, 5, 1)))
        weights = data.standard_normal((3, 4, 5, 5))  # (B, T, N, N)
        training = mode == "train"
        rngs = [np.random.default_rng(13) if training else None for _ in range(2)]
        draws = block.draw(rngs[0], window.shape[0]) if training else None
        seq = block.build(window, mode, draws=draws, hop_mode=hop_mode)
        pattern = block.pattern
        adjs, hops = oracle_build(block, window, mode, rng=rngs[1], hop_mode=hop_mode)
        if training:
            # both consumed the same number of draws: the streams continue alike
            assert rngs[0].uniform() == rngs[1].uniform()
        np.testing.assert_array_equal(seq.hop_choices, hops)
        adjs = stack(adjs, axis=1)
        # Closed-form moments round differently from the dense sums: ulps, not bits.
        np.testing.assert_allclose(pattern.scatter(seq.values.data), adjs.data, rtol=1e-12, atol=0.0)
        if training:
            got = grads_after(block, seq.values, pattern.gather(weights))
            assert_grads_close(got, grads_after(block, adjs, weights))
        else:
            assert not seq.values._track  # evaluation records nothing

    def test_degenerate_and_saturated_steps_match_oracle(self):
        rng = np.random.default_rng(14)
        masks = chain_masks(4, 3)
        pattern = dg.SupportPattern(masks)
        u_vals, v_vals = rng.standard_normal((2, 3, 4, 1))
        u_vals[1], v_vals[1] = 0.7, -0.2  # constant step: normalization maps it to 0
        mix_vals = rng.uniform(size=(3, 4, 3))
        delta = rng.uniform(size=(3, 4, 4))
        rho = rng.uniform(size=(3, 4, 4))
        r = rng.standard_normal((3, 4, 4))
        # alpha = 20 pushes the sigmoid past the clamp on the outer logits
        for alpha in (1.0, 20.0):
            results = []
            for fused in (True, False):
                u, v, mixing = (Parameter(x.copy()) for x in (u_vals, v_vals, mix_vals))
                if fused:
                    noise = dg.logistic_noise(pattern.gather(delta))
                    keep = dg.keep_pattern(pattern.gather(rho), 0.7)
                    out = dg.edge_adjacency(u, v, mixing, pattern, alpha, 0.5, (noise, keep))
                    (out * Tensor(pattern.gather(r))).sum().backward()
                    dense = pattern.scatter(out.data)
                else:
                    mask = einsum2("bnl,lnj->bnj", mixing, Tensor(masks))
                    w = u + transpose(v, (0, 2, 1))
                    out = oracle_edge_op(w, mask, alpha, 0.5, delta, 0.7, rho)
                    (out * Tensor(r)).sum().backward()
                    dense = out.data
                results.append((dense, {"u": u.grad, "v": v.grad, "mixing": mixing.grad}))
            (out_f, g_f), (out_o, g_o) = results
            np.testing.assert_allclose(out_f, out_o, rtol=1e-12, atol=0.0)
            assert_grads_close(g_f, g_o)
            assert np.all(g_f["u"][1] == 0.0) and np.all(g_f["v"][1] == 0.0)

    # The ids name (relaxation, thinning): edge_adjacency takes both draws or neither.
    @pytest.mark.parametrize("drawn", [True, False], ids=["True-True", "False-False"])
    def test_one_node_matches_per_step_composition(self, drawn):
        rng = np.random.default_rng(24)
        pattern = dg.SupportPattern(chain_masks(5, 3))
        b, t, nnz = 2, 4, pattern.nnz
        u_vals, v_vals = rng.standard_normal((2, b, t, 5, 1))
        mix_vals = rng.uniform(size=(b, t, 5, 3))
        draws = None
        if drawn:
            noise = dg.logistic_noise(rng.uniform(size=(b, t, nnz)))
            draws = noise, dg.keep_pattern(rng.uniform(size=(b, t, nnz)), 0.6)
        r = rng.standard_normal((b, t, nnz))
        results = []
        for fn in (dg.edge_adjacency, per_step_edge_adjacency):
            u, v, mixing = (Parameter(x.copy()) for x in (u_vals, v_vals, mix_vals))
            out = fn(u, v, mixing, pattern, 1.3, 0.7, draws)
            if drawn:
                (out * Tensor(r)).sum().backward()
            else:
                assert not out._track  # evaluation records nothing: no gradient to compare
            results.append((out.data, [u.grad, v.grad, mixing.grad]))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert_within(g, w)

    @pytest.mark.parametrize("drawn", [True, False], ids=["True-True", "False-False"])
    def test_gradients_match_finite_differences(self, drawn):
        rng = np.random.default_rng(15)
        pattern = dg.SupportPattern(chain_masks(4, 2))
        u = Parameter(rng.standard_normal((2, 4, 1)), "u")
        v = Parameter(rng.standard_normal((2, 4, 1)), "v")
        mixing = Parameter(rng.uniform(size=(2, 4, 2)), "mixing")
        # Undrawn, the training form is differenced with neutral draws: no noise, nothing thinned.
        draws = np.zeros((2, pattern.nnz)), np.ones((2, pattern.nnz), dtype=bool)
        if drawn:
            noise = dg.logistic_noise(pattern.gather(rng.uniform(size=(2, 4, 4))))
            draws = noise, dg.keep_pattern(pattern.gather(rng.uniform(size=(2, 4, 4))), 0.6)
        r = pattern.gather(rng.standard_normal((2, 4, 4)))
        reports = finite_diff_check(
            lambda: (dg.edge_adjacency(u, v, mixing, pattern, 1.5, 0.7, draws) * Tensor(r)).sum(),
            [("u", u), ("v", v), ("mixing", mixing)],
        )
        assert all(rep.passed for rep in reports), [rep.line() for rep in reports]

    def test_without_draws_records_nothing(self):
        rng = np.random.default_rng(25)
        pattern = dg.SupportPattern(chain_masks(4, 2))
        u, v = (Parameter(rng.standard_normal((2, 4, 1))) for _ in "uv")
        mixing = Parameter(rng.uniform(size=(2, 4, 2)))
        out = dg.edge_adjacency(u, v, mixing, pattern, 1.0, 1.0)  # grad mode is on
        assert not out._track and out._parents == () and out._bwd is None

    def test_keeps_thinning_pattern_as_bool(self):
        keep = dg.keep_pattern(np.random.default_rng(16).uniform(size=(2, 3, 3)), 0.5)
        assert keep.dtype == np.bool_


# Tensors of shape (..., N, N) that one train-mode build step may leave on the tape:
# none, since the adjacency weights live on the support pattern.
NN_ARRAYS_PER_STEP = 0


def test_train_build_tape_holds_few_nn_arrays_per_step():
    n, t_in = 6, 3
    block = build_block(n=n, t_in=t_in, levels=2, gamma=0.5, seed=17)
    window = Tensor(np.random.default_rng(18).standard_normal((2, t_in, n, 1)))
    seq = block.build(window, "train", draws=drawn(block, window, 19))
    seen, stack = {}, [seq.values]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    square = [t for t in seen.values() if t.ndim >= 2 and t.shape[-2:] == (n, n)]
    assert len(square) <= NN_ARRAYS_PER_STEP * t_in, len(square)


def test_graph_nodes_keep_only_pattern_sized_arrays():
    n, t_in, b = 6, 3, 3  # b * t_in != n: the (B * T_in, N) rows are not N x N
    block = build_block(n=n, t_in=t_in, levels=2, gamma=0.5, seed=20)
    nnz = block.pattern.nnz
    assert nnz < n * n
    window = Tensor(np.random.default_rng(21).standard_normal((b, t_in, n, 1)))
    seq = block.build(window, "train", draws=drawn(block, window, 22))
    node = seq.values
    assert node.shape == (b, t_in, nnz)
    held = closure_arrays(node)
    square = [v.shape for v in held if v.ndim >= 2 and v.shape[-2:] == (n, n)]
    assert not square, square
    assert max(v.size for v in held) <= b * t_in * max(nnz, n * block.pattern.levels)
    cells = dict(zip(node._bwd.__code__.co_freevars, node._bwd.__closure__))
    noise, keep = cells["noise"].cell_contents, cells["keep"].cell_contents
    assert noise.shape == keep.shape == (b * t_in, nnz)
    assert keep.dtype == np.bool_


class TestSupportPattern:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 7),
        levels=st.integers(1, 4),
        pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
        symmetrize=st.booleans(),
    )
    def test_pattern_is_widest_mask_and_first_radius(self, n, levels, pairs, symmetrize):
        edges = [(i, j) for i, j in pairs if i < n and j < n]
        masks = make_masks(edges, n, levels, symmetrize)
        pattern = dg.SupportPattern(masks)
        rows, cols = np.nonzero(masks[-1])
        np.testing.assert_array_equal(pattern.rows, rows)
        np.testing.assert_array_equal(pattern.cols, cols)
        np.testing.assert_array_equal(pattern.flat, rows * n + cols)
        for level in range(levels):
            np.testing.assert_array_equal(masks[level, rows, cols] == 1.0, pattern.first <= level)
        # every one-hot radius choice gives the dense rows of its mask
        h = np.random.default_rng(n * 31 + levels).integers(0, levels, size=(3, n))
        dense = pattern.scatter(pattern.hop_mask(dg._one_hot(h, levels)))
        np.testing.assert_array_equal(dense, rows_from_choices(masks, h))

    def test_soft_mask_matches_einsum(self):
        masks = make_masks([(0, 1), (1, 2), (3, 1), (2, 4)], 5, 3, symmetrize=True)
        pattern = dg.SupportPattern(masks)
        mixing = np.random.default_rng(23).uniform(size=(2, 5, 3))
        dense = pattern.scatter(pattern.hop_mask(mixing))
        np.testing.assert_allclose(dense, np.einsum("bnl,lnj->bnj", mixing, masks), rtol=1e-15, atol=0)

    def test_non_nested_masks_rejected(self):
        masks = chain_masks(4, 2)[::-1]
        with pytest.raises(ConfigError):
            dg.SupportPattern(masks)


class TestChainGroups:
    """Chains of one width run as one recurrence; chain_h joins only when hop_dim == embed_dim."""

    def _block(self, hop_dim):
        cfg = ModelConfig(num_nodes=4, t_in=3, embed_dim=4, hop_dim=hop_dim, hidden_dim=5, levels=2)
        return dg.GraphConstruction(cfg, chain_masks(4, 2), np.random.default_rng(0))

    def test_equal_widths_form_one_group(self):
        block = self._block(4)
        assert block.chain_groups == [[block.chain_st, block.chain_ed, block.chain_h]]

    def test_hop_width_apart_forms_two_groups(self):
        block = self._block(3)
        assert block.chain_groups == [[block.chain_st, block.chain_ed], [block.chain_h]]

    @pytest.mark.parametrize("hop_dim", [4, 3])
    def test_grouped_build_matches_chains_run_alone(self, hop_dim):
        results = []
        for alone in (False, True):
            block = self._block(hop_dim)
            if alone:
                block.chain_groups = [[c] for c in (block.chain_st, block.chain_ed, block.chain_h)]
            window = Tensor(np.random.default_rng(1).standard_normal((2, 3, 4, 1)))
            seq = block.build(window, "train", draws=drawn(block, window, 2), hop_mode="soft")
            (seq.values * Tensor(np.random.default_rng(3).standard_normal(seq.values.shape))).sum().backward()
            results.append((seq.values.data, [p.grad.copy() for _, p in block.params()]))
        (got, got_grads), (want, want_grads) = results
        assert_within(got, want)
        for g, w in zip(got_grads, want_grads):
            assert_within(g, w)
