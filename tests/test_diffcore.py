"""Engine-level checks: op correctness, gradient exactness, determinism."""

import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tglrn import diffcore as dc
from tglrn.diffcore import Linear, Parameter, Tensor
from tglrn.errors import ConfigError, StateError
from tglrn.gradcheck import GradCheckReport, _weighted_sum, finite_diff_check, max_relative_error

from tensor_ops import (
    absolute, broadcast_to, clamp, concat, div, einsum2, exp, getitem, is_basic_index, linear, log, matmul,
    mean, neg, power, reduce_sum, relu, reshape, rsqrt_or_zero, safe_recip, sigmoid, softmax, sqrt,
    stack, sub, tanh, transpose, weighted_sum,
)


class TestForwardBasics:
    def test_identity_passthrough(self):
        t = Tensor([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(t.data, [1.0, 2.0, 3.0])

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_gtu_style_zero_input(self):
        # tanh(0) * sigmoid(0) == 0
        z = Tensor(0.0)
        assert (tanh(z) * sigmoid(z)).item() == 0.0

    def test_everything_float64(self):
        t = Tensor(np.arange(3, dtype=np.float32))
        assert t.data.dtype == np.float64
        assert (t + 1).data.dtype == np.float64

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ConfigError, match="add"):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 5)))
        with pytest.raises(ConfigError, match="sub"):
            sub(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        with pytest.raises(ConfigError, match="matmul"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 5))
        f = lambda: reduce_sum(sigmoid(matmul(tanh(Tensor(x)), Tensor(x)))).item()
        assert f() == f()


class TestBackwardBasics:
    def test_scalar_parameter_gradient_is_one(self):
        p = Parameter(4.0)
        p.backward()
        assert p.grad == 1.0

    def test_square_gradient(self):
        p = Parameter(3.0)
        (p * p).backward()
        assert p.grad == 6.0

    def test_backward_requires_scalar(self):
        p = Parameter(np.ones(3))
        with pytest.raises(StateError):
            (p * 2).backward()

    def test_backward_without_tape_is_state_error(self):
        with pytest.raises(StateError):
            Tensor(1.0).backward()
        with dc.no_grad():
            p = Parameter(2.0)
            out = p * p
        with pytest.raises(StateError):
            out.backward()

    def test_grad_accumulates_across_uses(self):
        p = Parameter(2.0)
        (p * p + p).backward()  # d/dp (p^2 + p) = 2p + 1
        assert p.grad == 5.0

    def test_no_grad_skips_tape(self):
        p = Parameter(2.0)
        with dc.no_grad():
            out = p * p
        assert out._parents == ()

    def test_grad_mode_is_per_thread(self):
        # A enters no_grad, B enters, A exits, then B reads its mode; events fix the order.
        p = Parameter(2.0)
        a_entered, b_entered, a_exited = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with dc.no_grad():
                a_entered.set()
                seen["a_saw_b_enter"] = b_entered.wait(10)
            a_exited.set()

        def thread_b():
            seen["b_saw_a_enter"] = a_entered.wait(10)
            with dc.no_grad():
                b_entered.set()
                seen["b_saw_a_exit"] = a_exited.wait(10)
                seen["b_recording"] = dc.recording([p])

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert seen == {
            "a_saw_b_enter": True, "b_saw_a_enter": True, "b_saw_a_exit": True, "b_recording": False
        }
        assert dc.recording([p])


class TestGradLanes:
    def test_lane_keeps_gradients_out_of_grad_until_merged(self):
        w = Parameter(np.array([1.0, -2.0, 3.0]))
        untouched = Parameter(np.ones(2))
        x = np.array([0.5, 0.25, -1.0])
        weighted_sum(w, x).backward()
        with dc.grad_lane() as lane:
            weighted_sum(w, x).backward()
            weighted_sum(w, 2.0 * x).backward()
        np.testing.assert_array_equal(w.grad, x)
        assert set(lane.grads) == {w}  # only parameters that got a gradient have a buffer
        np.testing.assert_array_equal(lane.grads[w], 3.0 * x)
        lane.merge()
        np.testing.assert_array_equal(w.grad, 4.0 * x)
        np.testing.assert_array_equal(untouched.grad, np.zeros(2))
        weighted_sum(w, x).backward()  # outside the lane again: straight into grad
        np.testing.assert_array_equal(w.grad, 5.0 * x)

    def test_concurrent_lanes_lose_no_update(self):
        # More threads than CPUs, switching as often as the interpreter allows, all
        # adding into one shared parameter: each lane must hold exactly its own sum.
        w = Parameter(np.zeros(50_000))
        ones = Tensor(np.ones(50_000))
        threads, passes = 8, 40

        def run(k):
            with dc.grad_lane() as lane:
                for _ in range(passes):
                    reduce_sum(w * (ones * float(k + 1))).backward()
            return lane

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(run, k) for k in range(threads)]
                lanes = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(w.grad, 0.0)
        for k, lane in enumerate(lanes):
            np.testing.assert_array_equal(lane.grads[w], passes * (k + 1.0))
            lane.merge()
        np.testing.assert_array_equal(w.grad, passes * threads * (threads + 1) / 2)


def _random_graph_loss(rng, params):
    """A composite op graph touching most primitives."""
    a, b = params  # both (n, m)
    m = concat([tanh(a), sigmoid(b)], axis=-1)  # (n, 2m)
    m = matmul(m, Tensor(rng.standard_normal((m.shape[-1], 4))))
    bt = transpose(b, (1, 0))
    m = softmax(m) + mean(relu(matmul(a, bt)), axis=-1, keepdims=True)
    m = reduce_sum(stack([m, m * 2.0], axis=0), axis=0)
    v = mean(power(sub(m, mean(m, axis=-1, keepdims=True)), 2))
    return (reduce_sum(absolute(m)) + sqrt(v + 1e-3) + reduce_sum(safe_recip(v + 1.0))) * 0.5


@pytest.mark.parametrize("seed", range(20))
def test_composite_graph_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 9, size=2)
    a = Parameter(rng.standard_normal((dims[0], dims[1])), "a")
    b = Parameter(rng.standard_normal((dims[0], dims[1])), "b")
    reports = finite_diff_check(
        lambda: _random_graph_loss(np.random.default_rng(seed + 77), [a, b]), [a, b]
    )
    assert all(r.passed for r in reports), [r.line() for r in reports]


@pytest.mark.parametrize(
    "op",
    [
        lambda x: exp(x),
        lambda x: log(x * x + 1.0),
        lambda x: sqrt(x * x + 0.5),
        lambda x: clamp(x, -0.5, 0.5),
        lambda x: rsqrt_or_zero(x * x + 0.1),
        lambda x: reduce_sum(broadcast_to(x, (3,) + x.shape), axis=0),
        lambda x: transpose(x, (1, 0)),
        lambda x: reshape(x, (x.size, 1)),
        lambda x: getitem(x, (slice(1, None), slice(None))),
        lambda x: power(x, 3),
        lambda x: div(1.0, x * x + 1.0),
        lambda x: neg(x),
        lambda x: sub(2.0, x * x),
        lambda x: sigmoid(x),
        lambda x: absolute(x),
        lambda x: reduce_sum(x),
        lambda x: reduce_sum(x, axis=1, keepdims=True),
        lambda x: sub(reduce_sum(x, axis=0, keepdims=True), x),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_unary_op_gradients(op, seed):
    rng = np.random.default_rng(seed)
    p = Parameter(rng.standard_normal((4, 3)), "p")
    r = rng.standard_normal(op(Tensor(p.data)).shape)
    reports = finite_diff_check(lambda: weighted_sum(op(p), r), [p])
    assert reports[0].passed, reports[0].line()


@pytest.mark.parametrize("axis", [0, 1, 2, -1, -3])
def test_stack_gradients(axis):
    rng = np.random.default_rng(4)
    ps = [Parameter(rng.standard_normal((3, 2)), f"p{i}") for i in range(3)]
    out = stack(ps, axis=axis)
    want = np.stack([p.data for p in ps], axis=axis)
    assert out.shape == want.shape and out.data.tobytes() == want.tobytes()
    r = rng.standard_normal(want.shape)
    reports = finite_diff_check(lambda: weighted_sum(stack(ps, axis=axis), r), ps)
    assert all(rep.passed for rep in reports), [rep.line() for rep in reports]
    # each input receives exactly its own slice of the output gradient
    for p in ps:
        p.zero_grad()
    weighted_sum(stack(ps, axis=axis), r).backward()
    for i, p in enumerate(ps):
        assert p.grad.tobytes() == np.take(r, i, axis=axis).tobytes()


def test_stack_then_reshape_is_the_channel_concat():
    """The prediction head's layout: (B, N, K, D) stacked on -2 is (B, N, K * D) concatenated."""
    rng = np.random.default_rng(5)
    vals = [rng.standard_normal((2, 3, 4)) for _ in range(3)]
    r = rng.standard_normal((2, 3, 12))
    results = []
    stacked = lambda ts: reshape(stack(ts, axis=-2), (2, 3, -1))
    for join in (stacked, lambda ts: concat(ts, axis=-1)):
        ps = [Parameter(v.copy()) for v in vals]
        out = join(ps)
        weighted_sum(out, r).backward()
        results.append([out.data.tobytes()] + [p.grad.tobytes() for p in ps])
    assert results[0] == results[1]


def test_stack_rejects_mismatched_shapes():
    with pytest.raises(ConfigError, match="stack"):
        stack([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))])


def test_einsum2_gradients():
    rng = np.random.default_rng(5)
    a = Parameter(rng.standard_normal((2, 4, 3)), "a")
    b = Parameter(rng.standard_normal((3, 4, 5)), "b")
    r = rng.standard_normal((2, 4, 5))
    reports = finite_diff_check(
        lambda: weighted_sum(einsum2("bnl,lnj->bnj", a, b), r), [a, b]
    )
    assert all(rep.passed for rep in reports)


@pytest.mark.parametrize("tracked", ["a", "b"])
def test_untracked_operand_gets_no_contraction(monkeypatch, tracked):
    """Backward through einsum2 and @ contracts only for the tracked operand, to the same bits."""
    rng = np.random.default_rng(6)
    a_vals, b_vals = rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 4, 2))
    m_vals = rng.standard_normal((5, 2))
    r = rng.standard_normal((3, 4, 2))

    def grads(track_both):
        leaves = {}
        for name, vals in (("a", a_vals), ("b", b_vals), ("m", m_vals)):
            keep = track_both or name == tracked or (name == "m" and tracked == "b")
            leaves[name] = Parameter(vals.copy()) if keep else Tensor(vals)
        out = einsum2("inl,lnj->inj", leaves["a"], leaves["b"]) + matmul(leaves["a"], leaves["m"])
        weighted_sum(out, r).backward()
        return leaves

    want = grads(track_both=True)
    einsums, swapped = [], []
    real_einsum, real_swapaxes = np.einsum, np.swapaxes
    monkeypatch.setattr(np, "einsum", lambda sub, *ops: einsums.append(sub) or real_einsum(sub, *ops))
    monkeypatch.setattr(np, "swapaxes", lambda x, *ax: swapped.append(x.shape) or real_swapaxes(x, *ax))
    got = grads(track_both=False)
    monkeypatch.undo()

    if tracked == "a":
        # einsum: the forward plus dA; matmul: dA = g @ m^T only.
        assert einsums == ["inl,lnj->inj", "inj,lnj->inl"]
        assert swapped == [m_vals.shape]
        np.testing.assert_array_equal(got["a"].grad, want["a"].grad)
    else:
        # einsum: the forward plus dB; matmul: dM = a^T @ g only.
        assert einsums == ["inl,lnj->inj", "inl,inj->lnj"]
        assert swapped == [a_vals.shape]
        np.testing.assert_array_equal(got["b"].grad, want["b"].grad)
        np.testing.assert_array_equal(got["m"].grad, want["m"].grad)


def test_einsum2_rejects_unsupported_subscripts():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
    with pytest.raises(ConfigError):
        einsum2("ii,jk->jk", a, b)
    with pytest.raises(ConfigError):
        einsum2("ij,kl->il", a, b)  # j summed but invisible to the other operand


def test_finite_differences_perturb_a_non_contiguous_parameter():
    rng = np.random.default_rng(5)
    p = Parameter(rng.standard_normal((3, 4)).T, "p")  # a transposed view
    assert not p.data.flags.c_contiguous
    r = rng.standard_normal(p.shape)
    reports = finite_diff_check(lambda: weighted_sum(p * p, r), [p])
    assert reports[0].passed, reports[0].line()


def test_corrupted_gradient_fails_check():
    p = Parameter(1.5, "p")

    def wrong_double(t):
        # forward 2x, backward deliberately claims 3x
        return Tensor._from_op(t.data * 2.0, (t,), lambda g: t._acc(g * 3.0))

    reports = finite_diff_check(lambda: reduce_sum(wrong_double(p)), [p])
    assert not reports[0].passed


def test_safe_recip_zero_row():
    x = Tensor(np.array([0.0, 2.0]))
    out = safe_recip(x)
    np.testing.assert_array_equal(out.data, [0.0, 0.5])


def test_rsqrt_or_zero_at_zero_has_zero_grad():
    p = Parameter(np.array([0.0, 4.0]))
    reduce_sum(rsqrt_or_zero(p)).backward()
    np.testing.assert_array_equal(p.grad, [0.0, -0.5 * 4.0 ** -1.5])


def test_parameter_gradient_shape_invariant():
    p = Parameter(np.ones((2, 3)))
    assert p.grad.shape == p.data.shape
    (reduce_sum(p) * 2.0).backward()
    assert p.grad.shape == p.data.shape
    np.testing.assert_array_equal(p.grad, np.full((2, 3), 2.0))


def test_linear_validates_width():
    lin = Linear(3, 2, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="linear"):
        lin(Tensor(np.ones((4, 5))))


def test_linear_node_matches_composition():
    # One node, x @ w + b: forward bitwise the two-node composition, gradients within 1e-12.
    rng = np.random.default_rng(7)
    lin = Linear(3, 5, rng)
    lin.b.data[:] = rng.standard_normal(5)
    x_vals, r = rng.standard_normal((2, 4, 6, 3)), rng.standard_normal((2, 4, 6, 5))
    results = []
    for call in (lin, lambda x: linear(lin, x)):
        for p in (lin.w, lin.b):
            p.zero_grad()
        x = Parameter(x_vals.copy())
        out = call(x)
        weighted_sum(out, r).backward()
        results.append((out.data, [x.grad, lin.w.grad.copy(), lin.b.grad.copy()]))
    (got, got_grads), (want, want_grads) = results
    assert got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_linear_node_keeps_only_its_parents():
    lin = Linear(3, 5, np.random.default_rng(8))
    x = Tensor(np.random.default_rng(9).standard_normal((2, 4, 6, 3)))
    out = lin(x)
    assert out._parents == (x, lin.w, lin.b)
    cells = [c.cell_contents for c in out._bwd.__closure__]
    arrays = [v for v in cells if isinstance(v, np.ndarray)]
    tensors = [v for v in cells if isinstance(v, Tensor)]
    assert arrays == [] and all(any(t is p for p in out._parents) for t in tensors)


def test_max_relative_error_floor():
    assert max_relative_error(np.array([1e-9]), np.array([2e-9])) < 1e-4
    assert max_relative_error(np.array([1.0]), np.array([1.0 + 2e-4])) > 1e-4


def test_probe_node_is_bitwise_the_product_and_sum():
    # Gradcheck's probe: one node over every (output, weights) pair, against a product
    # node and a sum node per pair, added.
    rng = np.random.default_rng(15)
    vals = [rng.standard_normal((3, 4)), rng.standard_normal((2, 1, 5))]
    weights = [rng.standard_normal(v.shape) for v in vals]
    probes = [
        lambda outs: _weighted_sum(*zip(outs, weights)),
        lambda outs: sum(weighted_sum(out, w) for out, w in zip(outs, weights)),
        lambda outs: _weighted_sum((outs[0], weights[0])),
        lambda outs: weighted_sum(outs[0], weights[0]),
    ]
    results = []
    for probe in probes:
        ps = [Parameter(v.copy()) for v in vals]
        outs = [p * 2.0 for p in ps]
        loss = probe(outs)
        loss.backward()
        results.append([loss.data.tobytes()] + [p.grad.tobytes() for p in ps])
    assert results[0] == results[1] and results[2] == results[3]
    outs = [Parameter(v) * 2.0 for v in vals]
    node = _weighted_sum(*zip(outs, weights))
    assert node._parents == tuple(outs)
    with pytest.raises(ConfigError, match="probe"):
        _weighted_sum((outs[0], weights[1]))


def test_report_line_format():
    rep = GradCheckReport("layer/w", 1e-6)
    assert rep.passed and "PASS" in rep.line() and "(tol 0.0001)" in rep.line()
    assert "FAIL" in GradCheckReport("layer/w", 1e-4).line()


# -- streaming backward -----------------------------------------------------------


BASIC_INDICES = [
    2,
    -1,
    np.int64(3),
    slice(None, None, -2),
    slice(4, 0, -1),
    (Ellipsis, slice(1, 3)),
    (None, slice(None), 2),
    (slice(None), None, Ellipsis, -2),
    (1, Ellipsis),
    (slice(3, None, -1), 0, slice(None, None, 2)),
]


def _slice_grad(idx, seed):
    """Gradient a tracked leaf receives from one slice (kept by reference), and the
    np.add.at oracle for it."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((5, 4, 3)))
    x._track = True
    r = rng.standard_normal(x.data[idx].shape)
    r.flat[0] = -0.0  # signed zeros must come through exactly as np.add.at gives them
    weighted_sum(getitem(x, idx), r).backward()
    oracle = np.zeros_like(x.data)
    np.add.at(oracle, idx, r)
    return x.grad, oracle


@pytest.mark.parametrize("idx", BASIC_INDICES, ids=repr)
def test_basic_slice_backward_matches_add_at_bitwise(idx):
    assert is_basic_index(idx)
    grad, oracle = _slice_grad(idx, 11)
    assert grad.tobytes() == oracle.tobytes()


@pytest.mark.parametrize(
    "idx",
    [np.array([0, 2, 0, 0]), (slice(None), [1, 1, 3]), ([4, 4], Ellipsis, [0, 0])],
    ids=repr,
)
def test_advanced_index_backward_accumulates_duplicates(idx):
    assert not is_basic_index(idx)
    grad, oracle = _slice_grad(idx, 12)
    assert grad.tobytes() == oracle.tobytes()


def test_boolean_scalar_index_is_not_basic():
    assert not is_basic_index(True)
    assert not is_basic_index((slice(None), np.bool_(False)))


def test_shared_gradient_array_is_never_written():
    # d's backward hands one array to both c and a; a then gets a second
    # contribution from c. An in-place sum into a's first gradient would
    # also change c's, and so what c passes on to b.
    rng = np.random.default_rng(13)
    p1 = Parameter(rng.standard_normal(4))
    p2 = Parameter(rng.standard_normal(4))
    w = rng.standard_normal(4)
    a, b = p1 * 1.0, p2 * 1.0
    c = a + b
    d = c + a
    weighted_sum(d, w).backward()
    np.testing.assert_array_equal(p1.grad, 2.0 * w)
    np.testing.assert_array_equal(p2.grad, w)


def test_backward_frees_interior_nodes_and_keeps_parameter_grads():
    rng = np.random.default_rng(14)
    p = Parameter(rng.standard_normal((3, 3)))
    h = tanh(p * 2.0)
    h_data = weakref.ref(h.data)
    loss = reduce_sum(h * h)
    expected = 2.0 * h.data * (1.0 - h.data**2) * 2.0
    del h
    loss.backward()
    assert h_data() is None
    assert loss.grad is None and loss._parents == ()
    np.testing.assert_allclose(p.grad, expected, rtol=1e-15)


def test_second_backward_is_state_error():
    p = Parameter(np.arange(3.0))
    h = p * 2.0
    loss = reduce_sum(h * h)
    loss.backward()
    first = p.grad.copy()
    with pytest.raises(StateError, match="consumed"):
        loss.backward()
    with pytest.raises(StateError, match="consumed"):
        reduce_sum(h + 1.0).backward()  # a new graph over an already consumed node
    np.testing.assert_array_equal(p.grad, first)


def test_sigmoid_array_is_bitwise_the_two_divide_form():
    # The form this one replaced: z / (1 + z) where x < 0 and 1 / (1 + z) elsewhere, z = exp(-|x|).
    x = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 710.0, -710.0, np.inf, -np.inf])
    x = np.concatenate([x, np.random.default_rng(0).standard_normal(200) * 40])
    z = np.exp(-np.abs(x))
    want = np.where(x < 0, z / (1.0 + z), 1.0 / (1.0 + z))
    assert dc.sigmoid_array(x).tobytes() == want.tobytes()
    for v, w in zip(x[:12], want[:12]):
        assert np.asarray(dc.sigmoid_array(v)).tobytes() == w.tobytes()
