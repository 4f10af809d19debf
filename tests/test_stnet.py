"""Spatial/temporal layers against brute-force oracles, plus schedule checks."""

import numpy as np
import pytest

from tglrn import diffcore as dc
from tglrn import dyngraph as dg
from tglrn import stnet
from tglrn.diffcore import Parameter, Tensor
from tglrn.errors import ConfigError
from tglrn.gradcheck import finite_diff_check

from tensor_ops import (
    getitem, matmul, mean, power, reduce_sum, relu, reshape, safe_recip, sigmoid, stack, sub, tanh, transpose,
    weighted_sum,
)


def naive_diffusion(x, a, theta, k_steps):
    """Triple-loop oracle over channels, steps, and explicit matrix powers."""
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


def naive_gtu(x, kernel, ks):
    """Sliding-window dot-product oracle along the time axis."""
    t_in, n, d = x.shape
    t_out = t_in - ks + 1
    twod = kernel.shape[-1]
    pre = np.zeros((t_out, n, twod))
    for t in range(t_out):
        for s in range(ks):
            pre[t] += x[t + s] @ kernel[s]
    u, v = pre[..., : twod // 2], pre[..., twod // 2 :]
    return np.tanh(u) / (1.0 + np.exp(-v))


# -- the Tensor-level compositions the fused nodes replaced, kept as oracles ------------


def oracle_diffusion_conv(x, a, theta, num_steps):
    """diffusion_conv built from per-op tape nodes."""
    a_rev = transpose(a, (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2))
    inv_out = safe_recip(reduce_sum(a, axis=-1, keepdims=True))
    inv_in = safe_recip(reduce_sum(a_rev, axis=-1, keepdims=True))
    z_fwd, z_rev = x, x
    out = matmul(z_fwd, getitem(theta, (0, 0))) + matmul(z_rev, getitem(theta, (0, 1)))
    for k in range(1, num_steps):
        z_fwd = matmul(a, z_fwd) * inv_out
        z_rev = matmul(a_rev, z_rev) * inv_in
        out = out + matmul(z_fwd, getitem(theta, (k, 0))) + matmul(z_rev, getitem(theta, (k, 1)))
    return out


def dense_grad(g, x, a, theta, num_steps):
    """``_diffuse_grad`` with a's degrees taken densely and their terms added to the dense da."""
    inv = stnet._degrees(a)
    dx, da, dtheta, d_out, d_in = stnet._diffuse_grad(
        g, x, a, *inv, theta, stnet._transposed(theta), num_steps
    )
    return dx, da + d_out[..., :, None] + d_in[..., None, :], dtheta


def dense_spl(x, graphs, theta, num_steps):
    """spl over T dense (B, N, N) adjacency tensors, one parent each: the node spl replaced.

    It runs the same kernels on the same dense arrays, so spl matches it bitwise
    forward while N < 8: numpy then sums a row one entry at a time, in the
    order the sums on the pattern take.
    """
    graphs = tuple(graphs)
    out = np.empty(x.shape)
    for t, a in enumerate(graphs):
        pre = stnet._diffuse(x.data[:, t], a.data, *stnet._degrees(a.data), theta.data, num_steps)
        pre += x.data[:, t]
        np.maximum(pre, 0.0, out=out[:, t])

    def bwd(g):
        g = np.where(out > 0, g, 0.0)
        dtheta = np.zeros_like(theta.data)
        for t, a in enumerate(graphs):
            dx_t, da, dth = dense_grad(g[:, t], x.data[:, t], a.data, theta.data, num_steps)
            dx_t += g[:, t]
            g[:, t] = dx_t
            a._acc(da)
            dtheta += dth
        x._acc(g)
        theta._acc(dtheta)

    return Tensor._from_op(out, (x, theta) + graphs, bwd)


def dense_degree_spl(x, graphs, theta, num_steps):
    """spl as one node that takes each slice's degrees from its dense scratch: the spl that
    summed dense rows and columns per slice and added the degree terms to the dense gradient."""
    values, pattern = graphs.values, graphs.pattern
    b, t_len, n = x.shape[:3]
    first = values.shape[1] - t_len

    def dense_steps():
        scratch = np.zeros((b, n * n))
        a = scratch.reshape(b, n, n)
        for t in range(t_len):
            scratch[:, pattern.flat] = values.data[:, first + t]
            yield t, a

    out = np.empty(x.shape)
    for t, a in dense_steps():
        pre = stnet._diffuse(x.data[:, t], a, *stnet._degrees(a), theta.data, num_steps)
        pre += x.data[:, t]
        np.maximum(pre, 0.0, out=out[:, t])

    def bwd(g):
        g = np.where(out > 0, g, 0.0)
        dtheta = np.zeros_like(theta.data)
        dvalues = np.zeros(values.shape)
        for t, a in dense_steps():
            dx_t, da, dth = dense_grad(g[:, t], x.data[:, t], a, theta.data, num_steps)
            dx_t += g[:, t]
            g[:, t] = dx_t
            dvalues[:, first + t] = pattern.gather(da)
            dtheta += dth
        x._acc(g)
        theta._acc(dtheta)
        values._acc(dvalues)

    return Tensor._from_op(out, (x, theta, values), bwd)


def on_pattern(graphs):
    """The pattern of the nonzeros of T dense (B, N, N) arrays, and their (B, T, nnz) values on it."""
    dense = np.stack(graphs, axis=1)
    pattern = dg.SupportPattern((dense != 0).any(axis=(0, 1))[None].astype(np.float64))
    return pattern, pattern.gather(dense)


def sequence(values, pattern):
    """A GraphSequence holding the (B, T, nnz) ``values`` tensor; every hop choice is 1."""
    b, t = values.shape[:2]
    return dg.GraphSequence(values, pattern, np.ones((b, t, pattern.n), dtype=int))


def scattered(values, pattern):
    """The T dense (B, N, N) adjacencies of ``values`` as tape nodes, through a 0/1 matmul."""
    n = pattern.n
    onto = np.zeros((pattern.nnz, n * n))
    onto[np.arange(pattern.nnz), pattern.flat] = 1.0
    b = values.shape[0]
    steps = [getitem(values, (slice(None), t)) for t in range(values.shape[1])]
    return [reshape(matmul(step, Tensor(onto)), (b, n, n)) for step in steps]


def oracle_spl(x, graphs, theta, num_steps):
    """spl as one residual ReLU per time slice, stacked along time."""
    slices = []
    for t, a in enumerate(graphs):
        x_t = getitem(x, (slice(None), t))
        slices.append(relu(oracle_diffusion_conv(x_t, a, theta, num_steps) + x_t))
    return stack(slices, axis=1)


def oracle_gtu_conv(x, kernel, ks):
    t_out = x.shape[-3] - ks + 1
    acc = None
    for s in range(ks):
        window = getitem(x, (Ellipsis, slice(s, s + t_out), slice(None), slice(None)))
        term = matmul(window, getitem(kernel, s))
        acc = term if acc is None else acc + term
    d = x.shape[-1]
    return tanh(getitem(acc, (Ellipsis, slice(None, d)))) * sigmoid(getitem(acc, (Ellipsis, slice(d, None))))


def oracle_layer_norm(x, scale, shift):
    mu = mean(x, axis=-1, keepdims=True)
    var = mean(power(sub(x, mu), 2), axis=-1, keepdims=True)
    return sub(x, mu) * power(var + stnet.LN_EPS, -0.5) * scale + shift


def oracle_tpl(x, kernel, ks, scale, shift, keep=None, rate=0.0):
    """tpl plus the separate inverted-dropout node the block used to apply."""
    residual = getitem(x, (Ellipsis, slice(ks - 1, None), slice(None), slice(None)))
    out = oracle_layer_norm(oracle_gtu_conv(x, kernel, ks) + residual, scale, shift)
    return out if keep is None else out * Tensor(keep / (1.0 - rate))


def oracle_output(layer, x):
    acc = None
    for s in range(layer.t_in):
        term = matmul(getitem(x, (Ellipsis, s, slice(None), slice(None))), getitem(layer.kernel, s))
        acc = term if acc is None else acc + term
    return acc + layer.bias


def block_keeps(block, stream, dropout):
    """(keeps, rate) for ``block.forward`` from a (rate, generator) pair, or (None, 0) for None.

    One keep pattern per temporal conv, drawn in conv order, as oracle_block_forward draws them.
    """
    if dropout is None:
        return None, 0.0
    rate, rng = dropout
    b, t, n, d = stream.shape
    keeps = []
    for _ in range(stnet.TPL_PER_BLOCK):
        t -= block.ks - 1
        keeps.append(rng.uniform(size=(b, t, n, d)) >= rate)
    return keeps, rate


def oracle_block_forward(block, stream, seq, dropout=None):
    """SpatioTemporalBlock.forward from per-op nodes, drawing the dropout masks in the same order.

    The stream is end-aligned with the graphs: a length-T stream uses the last T of them.
    """
    graphs = scattered(seq.values, seq.pattern)
    for theta, lam, scale, shift in zip(block.thetas, block.lams, block.ln_scales, block.ln_shifts):
        stream = oracle_spl(stream, graphs[len(graphs) - stream.shape[1] :], theta, block.diff_steps)
        stream = oracle_tpl(stream, lam, block.ks, scale, shift)
        if dropout is not None and dropout[0] > 0.0:
            rate, rng = dropout
            stream = stream * Tensor((rng.uniform(size=stream.shape) >= rate) / (1.0 - rate))
    return stream, oracle_output(block.output, stream)


def closure_arrays(node):
    """Every ndarray a tape node's backward closure holds, looking into Tensors and tuples."""
    found, todo = [], [c.cell_contents for c in node._bwd.__closure__ or ()]
    while todo:
        v = todo.pop()
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, Tensor):
            found.append(v.data)
        elif isinstance(v, (tuple, list)):
            todo.extend(v)
    return found


class TestDiffusionConv:
    def test_k1_is_graph_independent(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((5, 3)))
        theta = Parameter(rng.standard_normal((1, 2, 3, 3)))
        a1 = Tensor(rng.uniform(size=(5, 5)))
        a2 = Tensor(rng.uniform(size=(5, 5)))
        out1 = stnet.diffusion_conv(x, a1, theta, 1)
        out2 = stnet.diffusion_conv(x, a2, theta, 1)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_identity_adjacency_scalar_channels(self):
        # with A = I both transitions are I, so out = (sum of all four theta) * x
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 1)))
        theta_vals = rng.standard_normal((2, 2, 1, 1))
        out = stnet.diffusion_conv(x, Tensor(np.eye(4)), Parameter(theta_vals), 2)
        np.testing.assert_allclose(out.data, theta_vals.sum() * x.data, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d_in))
        a = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        theta = rng.standard_normal((k, 2, d_in, d_out))
        got = stnet.diffusion_conv(Tensor(x), Tensor(a), Parameter(theta), k)
        np.testing.assert_allclose(got.data, naive_diffusion(x, a, theta, k), atol=1e-12)

    def test_zero_degree_rows_stay_finite(self):
        x = Tensor(np.ones((3, 2)))
        a = Tensor(np.zeros((3, 3)))
        theta = Parameter(np.ones((2, 2, 2, 2)))
        out = stnet.diffusion_conv(x, a, theta, 2)
        assert np.all(np.isfinite(out.data))
        # k=0 term still contributes; k=1 term vanished with the zero transitions
        np.testing.assert_array_equal(out.data, np.full((3, 2), 4.0))


def transition_diffusion(x, a, theta, k_steps):
    """Tensor-level oracle: form both transition matrices, then take their powers."""
    a_rev = transpose(a, (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2))
    p_fwd = a * safe_recip(reduce_sum(a, axis=-1, keepdims=True))
    p_rev = a_rev * safe_recip(reduce_sum(a_rev, axis=-1, keepdims=True))
    z_fwd, z_rev = x, x
    out = matmul(x, getitem(theta, (0, 0))) + matmul(x, getitem(theta, (0, 1)))
    for k in range(1, k_steps):
        z_fwd = matmul(p_fwd, z_fwd)
        z_rev = matmul(p_rev, z_rev)
        out = out + matmul(z_fwd, getitem(theta, (k, 0))) + matmul(z_rev, getitem(theta, (k, 1)))
    return out


def zero_degree_adjacency(rng, n):
    """Random weights with node 1 lacking out-edges and node 3 lacking in-edges."""
    keep = np.ones((n, n))
    keep[1, :] = 0.0
    keep[:, 3] = 0.0
    return rng.uniform(size=(2, n, n)) * keep, keep


class TestDiffusionWithoutTransitions:
    def test_matches_transition_oracle_with_zero_degrees(self):
        rng = np.random.default_rng(20)
        a_vals, _ = zero_degree_adjacency(rng, 5)
        x_vals = rng.standard_normal((2, 5, 3))
        theta_vals = rng.standard_normal((3, 2, 3, 3))
        r = rng.standard_normal((2, 5, 3))
        results = []
        for fn in (stnet.diffusion_conv, transition_diffusion):
            x, a, theta = Parameter(x_vals.copy()), Parameter(a_vals.copy()), Parameter(theta_vals.copy())
            out = fn(x, a, theta, 3)
            weighted_sum(out, r).backward()
            results.append((out.data, [x.grad, a.grad, theta.grad]))
        (got, got_g), (want, want_g) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        for g, w in zip(got_g, want_g):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_gradients_with_zero_degree_rows(self):
        rng = np.random.default_rng(21)
        _, keep = zero_degree_adjacency(rng, 5)
        x = Parameter(rng.standard_normal((2, 5, 3)), "x")
        a_raw = Parameter(rng.standard_normal((2, 5, 5)), "a_raw")
        theta = Parameter(rng.standard_normal((3, 2, 3, 3)) * 0.4, "theta")
        r = rng.standard_normal((2, 5, 3))
        reports = finite_diff_check(
            lambda: weighted_sum(stnet.diffusion_conv(x, sigmoid(a_raw) * Tensor(keep), theta, 3), r),
            [("x", x), ("a_raw", a_raw), ("theta", theta)],
        )
        assert all(rep.passed for rep in reports), [rep.line() for rep in reports]

    def test_tape_holds_no_nn_product(self):
        # One node whose closure keeps only its parents: no N x N array but ``a`` itself.
        rng = np.random.default_rng(22)
        n = 6
        a = Parameter(rng.uniform(size=(2, n, n)))
        out = stnet.diffusion_conv(Tensor(rng.standard_normal((2, n, 4))), a, Parameter(np.ones((3, 2, 4, 4))), 3)
        assert all(p._bwd is None for p in out._parents)
        held = closure_arrays(out)
        square = [v for v in held if v.shape[-2:] == (n, n) and not np.shares_memory(v, a.data)]
        assert square == []


def full_sequence(*graphs):
    """A GraphSequence of dense (B, N, N) arrays on the all-pairs pattern."""
    pattern = dg.SupportPattern(np.ones((1,) + graphs[0].shape[-2:]))
    return sequence(Tensor(pattern.gather(np.stack(graphs, axis=1))), pattern)


class TestSpl:
    def test_zero_filter_is_residual_relu(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 4, 3))
        theta = Parameter(np.zeros((2, 2, 3, 3)))
        out = stnet.spl(Tensor(x), full_sequence(np.eye(4)[None]), theta, 2)
        np.testing.assert_array_equal(out.data, np.maximum(x, 0.0))

    def test_nonpositive_input_zero_filter(self):
        x = -np.abs(np.random.default_rng(3).standard_normal((1, 1, 4, 3)))
        theta = Parameter(np.zeros((2, 2, 3, 3)))
        out = stnet.spl(Tensor(x), full_sequence(np.eye(4)[None]), theta, 2)
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, 4, 3)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="spl"):
            theta = Parameter(np.ones((1, 2, 2, 3)))
            stnet.spl(Tensor(np.ones((1, 1, 3, 2))), full_sequence(np.eye(3)[None]), theta, 1)

    @pytest.mark.parametrize("t_len", [1, 3])
    def test_graph_count_and_shape_rejected(self, t_len):
        # One graph step for a three-step stream; or three whose batch does not match.
        x = Tensor(np.ones((2, 3, 4, 2)))
        batch = 2 if t_len == 1 else 1
        seq = full_sequence(*[np.ones((batch, 4, 4))] * t_len)
        with pytest.raises(ConfigError, match="spl"):
            stnet.spl(x, seq, Parameter(np.ones((1, 2, 2, 2))), 1)

    # The ids keep the names the cases had when spl also took the first graph step.
    @pytest.mark.parametrize(
        "shape",
        [(2, 5, 15), (2, 5), (2, 5, 16, 1), (2, 2, 16)],
        ids=["shape0-0", "shape1-0", "shape2-0", "shape3-3"],
    )
    def test_values_not_b_t_nnz_rejected(self, shape):
        # The pattern has 16 pairs and the stream 3 steps: only (2, T >= 3, 16) fits.
        seq = full_sequence(np.ones((2, 4, 4)))
        seq.values = Tensor(np.ones(shape))
        with pytest.raises(ConfigError, match="spl"):
            stnet.spl(Tensor(np.ones((2, 3, 4, 2))), seq, Parameter(np.ones((1, 2, 2, 2))), 1)

    def test_gradients_four_node_instance(self):
        rng = np.random.default_rng(4)
        pattern = dg.SupportPattern(np.ones((1, 4, 4)))
        x = Parameter(rng.standard_normal((1, 2, 4, 3)), "x")
        a_raw = [
            Parameter(pattern.gather(rng.standard_normal((1, 4, 4))), f"a_raw{t}") for t in range(2)
        ]
        theta = Parameter(rng.standard_normal((2, 2, 3, 3)) * 0.4, "theta")
        r = rng.standard_normal((1, 2, 4, 3))

        def build():
            seq = sequence(stack([sigmoid(a) for a in a_raw], axis=1), pattern)
            return weighted_sum(stnet.spl(x, seq, theta, 2), r)

        reports = finite_diff_check(
            build, [("x", x), ("a_raw0", a_raw[0]), ("a_raw1", a_raw[1]), ("theta", theta)]
        )
        assert all(rep.passed for rep in reports), [rep.line() for rep in reports]

    @pytest.mark.parametrize("lead, t_len, n, num_steps", [(0, 3, 5, 3), (2, 3, 7, 2), (1, 1, 6, 1)])
    def test_matches_dense_oracle(self, lead, t_len, n, num_steps):
        # Forward bitwise; the value gradient against the gathered dense gradients. The
        # stream is end-aligned: it uses the last t_len of lead + t_len graph steps.
        rng = np.random.default_rng(60 + n)
        t_total, b = lead + t_len, 2
        keep = rng.uniform(size=(n, n)) < 0.4
        keep[1, :] = False  # a node with no out-edges
        keep[:, 3] = False  # and one with no in-edges
        pattern = dg.SupportPattern(keep[None].astype(np.float64))
        x_vals = rng.standard_normal((b, t_len, n, 3))
        v_vals = rng.uniform(size=(b, t_total, pattern.nnz))
        theta_vals = rng.standard_normal((num_steps, 2, 3, 3)) * 0.5
        r = rng.standard_normal(x_vals.shape)

        x, values, theta = (Parameter(v.copy()) for v in (x_vals, v_vals, theta_vals))
        out = stnet.spl(x, sequence(values, pattern), theta, num_steps)
        weighted_sum(out, r).backward()

        ox, otheta = Parameter(x_vals.copy()), Parameter(theta_vals.copy())
        dense = [Parameter(pattern.scatter(v_vals[:, lead + t])) for t in range(t_len)]
        want = dense_spl(ox, dense, otheta, num_steps)
        weighted_sum(want, r).backward()

        np.testing.assert_array_equal(out.data, want.data)
        assert_within(x.grad, ox.grad)
        assert_within(theta.grad, otheta.grad)
        want_dv = np.zeros(v_vals.shape)
        want_dv[:, lead:] = pattern.gather(np.stack([a.grad for a in dense], axis=1))
        assert_within(values.grad, want_dv)


@pytest.mark.parametrize("b, t_in, t_len, n", [(3, 5, 3, 5), (2, 4, 2, 9), (2, 3, 3, 8), (1, 2, 1, 6)])
def test_spl_matches_dense_degree_oracle(b, t_in, t_len, n):
    # Degrees from sums on the pattern against dense row and column sums per slice,
    # with a zero-degree row and column, an all-zero slice, B > 1 and T < T_in.
    rng = np.random.default_rng([b, t_in, n])
    keep = rng.uniform(size=(n, n)) < 0.5
    keep[1, :] = False
    keep[:, 3] = False
    pattern = dg.SupportPattern(keep[None].astype(np.float64))
    x_vals = rng.standard_normal((b, t_len, n, 3))
    v_vals = rng.uniform(size=(b, t_in, pattern.nnz))
    v_vals[0, -1] = 0.0
    theta_vals = rng.standard_normal((2, 2, 3, 3)) * 0.5

    def build(fn):
        return lambda x, v, th: fn(x, sequence(v, pattern), th, 2)

    got, got_grads, got_eval = forward_backward(build(stnet.spl), [x_vals, v_vals, theta_vals], 7)
    want, want_grads, want_eval = forward_backward(build(dense_degree_spl), [x_vals, v_vals, theta_vals], 7)
    assert_within(got, want)
    assert_within(got_eval, want_eval)
    np.testing.assert_array_equal(got, got_eval)
    for g, w in zip(got_grads, want_grads):
        assert_within(g, w)


class TestGtuConv:
    def test_zero_kernel_zero_output(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 3, 2)))
        out = stnet.gtu_conv(x, Parameter(np.zeros((2, 2, 4))), 2)
        np.testing.assert_array_equal(out.data, np.zeros((4, 3, 2)))

    def test_kernel_spanning_window_leaves_one_step(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 3, 2)))
        out = stnet.gtu_conv(x, Parameter(rng.standard_normal((4, 2, 4))), 4)
        assert out.shape == (1, 3, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sliding_window_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t_in = int(rng.integers(2, 8))
        ks = int(rng.integers(1, t_in + 1))
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        x = rng.standard_normal((t_in, n, d))
        kernel = rng.standard_normal((ks, d, 2 * d))
        got = stnet.gtu_conv(Tensor(x), Parameter(kernel), ks)
        np.testing.assert_allclose(got.data, naive_gtu(x, kernel, ks), atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5, 2, 2))
        kernel = rng.standard_normal((2, 2, 4))
        batched = stnet.gtu_conv(Tensor(x), Parameter(kernel), 2)
        for b in range(3):
            single = stnet.gtu_conv(Tensor(x[b]), Parameter(kernel), 2)
            np.testing.assert_array_equal(batched.data[b], single.data)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError, match="gtu"):
            stnet.gtu_conv(Tensor(np.ones((2, 3, 2))), Parameter(np.ones((3, 2, 4))), 3)


class TestTpl:
    def test_zero_kernel_is_layernorm_of_tail(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 3, 4))
        scale = Parameter(rng.standard_normal(4))
        shift = Parameter(rng.standard_normal(4))
        out = stnet.tpl(Tensor(x), Parameter(np.zeros((2, 4, 8))), 2, scale, shift)
        expected, _, _ = stnet.layer_norm(x[1:], scale.data, shift.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    def test_output_length(self):
        x = Tensor(np.random.default_rng(6).standard_normal((2, 7, 3, 2)))
        out = stnet.tpl(
            x, Parameter(np.random.default_rng(7).standard_normal((3, 2, 4))), 3,
            Parameter(np.ones(2)), Parameter(np.zeros(2)),
        )
        assert out.shape == (2, 5, 3, 2)

    def test_gradients_including_layernorm(self):
        rng = np.random.default_rng(8)
        x = Parameter(rng.standard_normal((4, 2, 3)), "x")
        lam = Parameter(rng.standard_normal((2, 3, 6)) * 0.5, "lam")
        scale = Parameter(rng.standard_normal(3), "scale")
        shift = Parameter(rng.standard_normal(3), "shift")
        r = rng.standard_normal((3, 2, 3))
        reports = finite_diff_check(
            lambda: weighted_sum(stnet.tpl(x, lam, 2, scale, shift), r),
            [("x", x), ("lam", lam), ("scale", scale), ("shift", shift)],
        )
        assert all(rep.passed for rep in reports), [rep.line() for rep in reports]


class TestOutputLayer:
    def test_single_step_acts_as_channel_map(self):
        rng = np.random.default_rng(0)
        layer = stnet.OutputLayer(1, 3, rng)
        x = rng.standard_normal((1, 4, 3))
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data, x[0] @ layer.kernel.data[0] + layer.bias.data, atol=1e-14)

    def test_averaging_kernel_two_steps(self):
        layer = stnet.OutputLayer(2, 2, np.random.default_rng(1))
        w = np.random.default_rng(2).standard_normal((2, 2))
        layer.kernel.data[0] = 0.5 * w
        layer.kernel.data[1] = 0.5 * w
        layer.bias.data[:] = 0.0
        x = np.random.default_rng(3).standard_normal((2, 3, 2))
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=0) @ w, atol=1e-12)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(4)
        layer = stnet.OutputLayer(5, 6, rng)
        out = layer(Tensor(rng.standard_normal((2, 5, 7, 6))))
        assert out.shape == (2, 7, 6)


class TestSchedule:
    def test_paper_kernel_single_block(self):
        # one block, window 12, kernel 6: stream 12 -> 7 -> 2
        lengths = list(stnet.block_schedule(12, 1, 6))
        assert lengths == [2]

    def test_desk_default_three_blocks(self):
        assert list(stnet.block_schedule(12, 3, 2)) == [10, 8, 6]

    def test_underflow_rejected(self):
        with pytest.raises(ConfigError, match="underflow"):
            stnet.block_schedule(12, 3, 6)

    def test_underflow_message_names_block(self):
        with pytest.raises(ConfigError, match="block 1"):
            stnet.block_schedule(12, 2, 6)


class TestBlock:
    def _graphs(self, count, n, rng, batch=2):
        return full_sequence(*[rng.uniform(size=(batch, n, n)) for _ in range(count)])

    def test_shapes_and_alignment(self, monkeypatch):
        rng = np.random.default_rng(10)
        block = stnet.SpatioTemporalBlock(width=4, diff_steps=2, ks=2, t_out=3, rng=rng)
        stream = Tensor(rng.standard_normal((2, 5, 3, 4)))
        used, spl = [], stnet.spl

        def logged_spl(x, graphs, theta, num_steps):
            out = spl(x, graphs, theta, num_steps)
            # End-aligned: the call equals one given only the last T graph steps.
            last = sequence(Tensor(graphs.values.data[:, -x.shape[1] :]), graphs.pattern)
            np.testing.assert_array_equal(out.data, spl(x, last, theta, num_steps).data)
            used.append(x.shape[1])
            return out

        monkeypatch.setattr(stnet, "spl", logged_spl)
        out_stream, block_out = block.forward(stream, self._graphs(5, 3, rng))
        assert out_stream.shape == (2, 3, 3, 4)
        assert block_out.shape == (2, 3, 4)
        # first pass takes graphs 0..4, second (after one conv) graphs 1..4
        assert used == [5, 4]

    def test_paper_kernel_single_block_shapes(self):
        # window 12, kernel 6: stream shrinks 12 -> 7 -> 2, output kernel spans 2
        rng = np.random.default_rng(20)
        (t_out,) = stnet.block_schedule(12, 1, 6)
        block = stnet.SpatioTemporalBlock(width=4, diff_steps=2, ks=6, t_out=t_out, rng=rng)
        assert block.output.t_in == 2
        stream = Tensor(rng.standard_normal((1, 12, 3, 4)))
        out_stream, block_out = block.forward(stream, self._graphs(12, 3, rng, batch=1))
        assert out_stream.shape == (1, 2, 3, 4)
        assert block_out.shape == (1, 3, 4)

    def test_zero_parameters_finite(self):
        rng = np.random.default_rng(11)
        block = stnet.SpatioTemporalBlock(width=4, diff_steps=2, ks=2, t_out=2, rng=rng)
        for _, p in block.params():
            p.data[:] = 0.0
        stream = Tensor(rng.standard_normal((1, 4, 3, 4)))
        out_stream, block_out = block.forward(stream, self._graphs(4, 3, rng, batch=1))
        assert np.all(np.isfinite(out_stream.data))
        np.testing.assert_array_equal(block_out.data, np.zeros((1, 3, 4)))

    def test_dropout_train_only_changes_stream(self):
        rng = np.random.default_rng(12)
        block = stnet.SpatioTemporalBlock(width=4, diff_steps=2, ks=2, t_out=2, rng=rng)
        stream = Tensor(rng.standard_normal((1, 4, 3, 4)))
        graphs = self._graphs(4, 3, rng, batch=1)
        plain, _ = block.forward(stream, graphs)
        keeps, rate = block_keeps(block, stream, (0.5, np.random.default_rng(1)))
        dropped, _ = block.forward(stream, graphs, keeps, rate)
        assert not np.array_equal(plain.data, dropped.data)


# -- fused nodes against the per-op compositions they replaced -------------------------


def assert_within(got, want):
    """|got - want| <= 1e-12 of want's largest entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def forward_backward(build, values, seed):
    """Train forward and backward of ``build`` over fresh Parameters, plus a no_grad forward."""
    leaves = [Parameter(v.copy()) for v in values]
    out = build(*leaves)
    r = np.random.default_rng(seed).standard_normal(out.shape)
    weighted_sum(out, r).backward()
    with dc.no_grad():
        eval_out = build(*[Tensor(v) for v in values])
    assert not eval_out._track and eval_out._parents == ()
    return out.data, [p.grad for p in leaves], eval_out.data


def fused_cases():
    rng = np.random.default_rng(40)
    a_vals, _ = zero_degree_adjacency(rng, 5)
    stream = rng.standard_normal((2, 3, 5, 3))
    pattern, values = on_pattern([zero_degree_adjacency(rng, 5)[0] for _ in range(3)])
    theta = rng.standard_normal((3, 2, 3, 3)) * 0.5
    x6 = rng.standard_normal((2, 6, 4, 3))
    kernel = rng.standard_normal((3, 3, 6)) * 0.5
    scale, shift = rng.standard_normal(3), rng.standard_normal(3)
    keep = rng.uniform(size=(2, 4, 4, 3)) >= 0.3
    out_x = rng.standard_normal((2, 3, 5, 4))
    out_k, out_b = rng.standard_normal((3, 4, 4)), rng.standard_normal(4)

    def output(fn):
        def build(x, k, b):
            layer = stnet.OutputLayer(3, 4, np.random.default_rng(0))
            layer.kernel, layer.bias = k, b
            return fn(layer, x)

        return build

    return {
        "diffusion_conv": (
            lambda x, a, th: stnet.diffusion_conv(x, a, th, 3),
            lambda x, a, th: oracle_diffusion_conv(x, a, th, 3),
            [stream[:, 0], a_vals, theta],
        ),
        "spl": (
            lambda x, v, th: stnet.spl(x, sequence(v, pattern), th, 3),
            lambda x, v, th: oracle_spl(x, scattered(v, pattern), th, 3),
            [stream, values, theta],
        ),
        "gtu_conv": (
            lambda x, k: stnet.gtu_conv(x, k, 3),
            lambda x, k: oracle_gtu_conv(x, k, 3),
            [x6, kernel],
        ),
        "tpl": (
            lambda x, k, sc, sh: stnet.tpl(x, k, 3, sc, sh),
            lambda x, k, sc, sh: oracle_tpl(x, k, 3, sc, sh),
            [x6, kernel, scale, shift],
        ),
        "tpl_dropout": (
            lambda x, k, sc, sh: stnet.tpl(x, k, 3, sc, sh, keep, 0.3),
            lambda x, k, sc, sh: oracle_tpl(x, k, 3, sc, sh, keep, 0.3),
            [x6, kernel, scale, shift],
        ),
        "output_layer": (
            output(lambda layer, x: layer(x)),
            output(oracle_output),
            [out_x, out_k, out_b],
        ),
    }


@pytest.mark.parametrize("name", list(fused_cases()))
def test_fused_node_matches_composition(name):
    fused, oracle, values = fused_cases()[name]
    got, got_grads, got_eval = forward_backward(fused, values, 41)
    want, want_grads, want_eval = forward_backward(oracle, values, 41)
    assert_within(got, want)
    assert_within(got_eval, want_eval)
    np.testing.assert_array_equal(got, got_eval)
    for g, w in zip(got_grads, want_grads):
        assert_within(g, w)


@pytest.mark.parametrize("name", ["spl", "gtu_conv", "tpl", "tpl_dropout"])
def test_untracked_parent_leaves_the_tracked_gradients(name):
    # Backward computes every parent's gradient; an untracked parent's is dropped unread.
    fused, _, values = fused_cases()[name]
    _, want, _ = forward_backward(fused, values, 42)
    for skip in range(len(values)):
        leaves = [Tensor(v.copy()) if i == skip else Parameter(v.copy()) for i, v in enumerate(values)]
        out = fused(*leaves)
        weighted_sum(out, np.random.default_rng(42).standard_normal(out.shape)).backward()
        assert leaves[skip].grad is None
        for i, (leaf, w) in enumerate(zip(leaves, want)):
            if i != skip:
                assert leaf.grad.tobytes() == w.tobytes(), (skip, i)


class TestFusedBlock:
    def _run(self, forward, stream, graphs, dropout_seed):
        rng = np.random.default_rng(30)
        block = stnet.SpatioTemporalBlock(width=4, diff_steps=2, ks=2, t_out=3, rng=rng)
        stream = Parameter(stream.copy())
        pattern, values = on_pattern(graphs)
        values = Parameter(values)
        dropout = None if dropout_seed is None else (0.4, np.random.default_rng(dropout_seed))
        out_stream, block_out = forward(block, stream, sequence(values, pattern), dropout)
        r = np.random.default_rng(31)
        loss = weighted_sum(out_stream, r.standard_normal(out_stream.shape))
        (loss + weighted_sum(block_out, r.standard_normal(block_out.shape))).backward()
        grads = [stream.grad, values.grad] + [p.grad for _, p in block.params()]
        return out_stream.data, block_out.data, grads

    @pytest.mark.parametrize("dropout_seed", [None, 5])
    def test_matches_per_slice_composition(self, dropout_seed):
        rng = np.random.default_rng(32)
        stream = rng.standard_normal((2, 5, 6, 4))
        graphs = [rng.uniform(size=(2, 6, 6)) * (rng.uniform(size=(2, 6, 6)) < 0.5) for _ in range(5)]
        def fused_forward(block, stream, seq, dropout):
            return block.forward(stream, seq, *block_keeps(block, stream, dropout))

        fused = self._run(fused_forward, stream, graphs, dropout_seed)
        oracle = self._run(oracle_block_forward, stream, graphs, dropout_seed)
        assert_within(fused[0], oracle[0])
        assert_within(fused[1], oracle[1])
        for g, w in zip(fused[2], oracle[2]):
            assert_within(g, w)

    def test_train_forward_records_at_most_five_nodes(self):
        rng = np.random.default_rng(33)
        block = stnet.SpatioTemporalBlock(width=4, diff_steps=2, ks=2, t_out=3, rng=rng)
        stream = Parameter(rng.standard_normal((2, 5, 3, 4)))
        graphs = full_sequence(*[rng.uniform(size=(2, 3, 3)) for _ in range(5)])
        graphs.values = Parameter(graphs.values.data)
        out_stream, block_out = block.forward(stream, graphs, *block_keeps(block, stream, (0.3, rng)))
        inputs = {id(t) for t in [stream, graphs.values] + [p for _, p in block.params()]}
        seen, todo = {}, [out_stream, block_out]
        while todo:
            t = todo.pop()
            if id(t) not in inputs and id(t) not in seen:
                seen[id(t)] = t
                todo.extend(t._parents)
        assert len(seen) <= 5

    def test_nodes_keep_only_parents_output_and_row_statistics(self):
        rng = np.random.default_rng(34)
        block = stnet.SpatioTemporalBlock(width=4, diff_steps=2, ks=2, t_out=3, rng=rng)
        stream = Parameter(rng.standard_normal((2, 5, 3, 4)))
        graphs = full_sequence(*[rng.uniform(size=(2, 3, 3)) for _ in range(5)])
        graphs.values = Parameter(graphs.values.data)
        out_stream, block_out = block.forward(stream, graphs, *block_keeps(block, stream, (0.3, rng)))
        node, checked = out_stream, 0
        while node is not stream:
            own = {id(node.data)} | {id(p.data) for p in node._parents}
            extra = [v for v in closure_arrays(node) if id(v) not in own]
            # tpl: the (..., 1) mean and rstd and the boolean keep pattern; spl: nothing
            assert all(v.shape[-1] == 1 or v.dtype == bool for v in extra), [v.shape for v in extra]
            node, checked = node._parents[0], checked + 1
        assert checked == 4
