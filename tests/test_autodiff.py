"""Gradient and numeric-core tests.

Oracle values were computed by hand / with standalone scripts before the
implementation and are frozen as literals here.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from retforge import autodiff as ad
from retforge.errors import DeterminismError, DimensionError, DomainError


def test_tensor_rejects_non_finite():
    with pytest.raises(DomainError):
        ad.Tensor([1.0, float("nan")])
    with pytest.raises(DomainError):
        ad.Tensor([float("inf")])


OPS_CHECKED_BY_NAME = {
    "add": lambda a, b: ad.add(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "matmul": lambda a, b: ad.matmul(a, b),
    "exp": lambda a, b: ad.exp(a),
    "power": lambda a, b: ad.power(a, 2.0),
    "neg": lambda a, b: ad.neg(a),
    "scale": lambda a, b: ad.scale(a, 2.0),
    "transpose": lambda a, b: ad.transpose(a, (1, 0)),
    "reshape": lambda a, b: ad.reshape(a, (4,)),
    "concat": lambda a, b: ad.concat([a, b], axis=1),
    "take_position": lambda a, b: ad.take_position(a, 0),
    "embedding": lambda a, b: ad.embedding(a, np.array([1, 0])),
    "reduce_sum": lambda a, b: ad.reduce_sum(a, axis=0),
    "log": lambda a, b: ad.log(a),
    "gelu": lambda a, b: ad.gelu(a),
    "tanh": lambda a, b: ad.tanh(a),
    "softmax": lambda a, b: ad.softmax(a),
    "logsumexp": lambda a, b: ad.logsumexp(a),
    "cross_entropy_rows": lambda a, b: ad.cross_entropy_rows(a, np.array([0, 1])),
    # the fused layer ops
    "layer_norm": lambda a, b: ad.layer_norm(a, b, b, 1e-5),
    "linear": lambda a, b: ad.linear(a, b, b),
    "attention": lambda a, b: ad.attention(a, b, b, 2, mask=np.zeros((2, 2)), bias=b),
}


@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
@pytest.mark.parametrize("op", sorted(OPS_CHECKED_BY_NAME))
def test_op_output_checked_once_and_named(op, grad, monkeypatch):
    fn = OPS_CHECKED_BY_NAME[op]
    a = ad.Parameter(np.full((2, 2), 0.5), name="a")
    b = ad.Parameter(np.full((2, 2), 0.25), name="b")
    scans = []
    real_check = ad._check_finite

    def counting_check(arr, where):
        scans.append(where)
        real_check(arr, where)

    monkeypatch.setattr(ad, "_check_finite", counting_check)
    with ad.no_grad() if not grad else contextlib.nullcontext():
        fn(a, b)
        assert scans == [op]  # one scan of the output, under the op's name
        a.data[0, 0] = np.nan  # a NaN that bypassed construction reaches the op
        with pytest.raises(DomainError, match=f"^{op}: non-finite"):
            fn(a, b)


@pytest.mark.parametrize("op", sorted(OPS_CHECKED_BY_NAME))
def test_op_over_inputs_needing_no_gradient_records_no_graph(op):
    fn = OPS_CHECKED_BY_NAME[op]
    frozen = ad.Parameter(np.full((2, 2), 0.5), name="frozen")
    frozen.requires_grad = False
    out = fn(frozen, ad.Tensor(np.full((2, 2), 0.25)))
    assert out._parents == () and out._backward_fn is None
    assert not out.requires_grad
    live = ad.Parameter(np.full((2, 2), 0.25), name="live")
    assert fn(live, frozen)._parents[0] is live  # one live input keeps the graph


# No-grad mode ------------------------------------------------------------


def _small_graph(w: ad.Parameter) -> ad.Tensor:
    h = ad.gelu(ad.matmul(ad.Tensor(np.ones((2, 3))), w))
    return ad.reduce_sum(ad.softmax(h) * h)


def test_no_grad_outputs_are_detached():
    w = ad.Parameter(np.linspace(-1.0, 1.0, 6).reshape(3, 2), name="w")
    with_graph = _small_graph(w)
    with ad.no_grad():
        assert not ad.grad_enabled()
        out = _small_graph(w)
    assert out._parents == () and out._backward_fn is None
    assert not out.requires_grad
    assert out.item() == with_graph.item()  # same values, bit for bit
    out.backward()
    np.testing.assert_array_equal(w.grad, np.zeros_like(w.data))
    with_graph.backward()
    assert np.abs(w.grad).sum() > 0
    with ad.no_grad():
        assert ad.Parameter(np.ones(2), name="p").requires_grad  # leaves keep the flag


def test_no_grad_restored_after_nesting_and_exceptions():
    assert ad.grad_enabled()
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.grad_enabled()
        assert not ad.grad_enabled()  # the inner exit restores the outer mode
    assert ad.grad_enabled()
    with pytest.raises(DomainError):
        with ad.no_grad():
            ad.log(ad.Tensor([-1.0]))
    assert ad.grad_enabled()

    @ad.no_grad()
    def failing():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        failing()
    assert ad.grad_enabled()


def test_square_gradient_hand_value():
    # d/dx x^2 at x=3 is 6
    x = ad.Parameter(np.array([3.0]), name="x")
    y = ad.reduce_sum(ad.mul(x, x))
    y.backward()
    assert y.item() == 9.0
    assert abs(x.grad[0] - 6.0) < 1e-10


def test_add_broadcast_backward():
    a = ad.Parameter(np.ones((2, 3)), name="a")
    b = ad.Parameter(np.ones((1, 3)), name="b")
    out = ad.reduce_sum(a + b)
    out.backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (1, 3)
    # b is broadcast over 2 rows, so each element receives 2 units of gradient
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 2.0))


def test_matmul_shape_error():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((4, 2)))
    with pytest.raises(DimensionError):
        ad.matmul(a, b)


def test_scaled_softmax_hand_values():
    # softmax([2, 0], tau=2) = [e/(e+1), 1/(e+1)]
    p = ad.scaled_softmax(ad.Tensor([2.0, 0.0]), tau=2.0)
    assert p.data[0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert p.data[1] == pytest.approx(0.2689414213699951, abs=1e-15)
    assert p.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_scaled_softmax_rejects_bad_inputs():
    with pytest.raises(DomainError):
        ad.scaled_softmax(ad.Tensor([1.0, 2.0]), tau=0.0)
    with pytest.raises(DomainError):
        ad.scaled_softmax(ad.Tensor([1.0, 2.0]), tau=-1.0)
    with pytest.raises(DomainError):
        ad.scaled_softmax(ad.Tensor(np.ones((2, 2))), tau=1.0)


def test_softmax_extreme_scores_no_overflow():
    p = ad.scaled_softmax(ad.Tensor([1000.0, 0.0, -1000.0]), tau=1.0)
    assert np.isfinite(p.data).all()
    assert p.data[0] == pytest.approx(1.0)


def test_nll_hand_value_and_floor():
    p = ad.Tensor([0.5, 0.5])
    loss = ad.nll(p, 0)
    assert loss.item() == pytest.approx(0.6931471805599453, abs=1e-15)
    assert loss.meta is None

    tiny = ad.Tensor([1e-300, 1.0])
    clamped = ad.nll(tiny, 0)
    assert clamped.item() == pytest.approx(-math.log(1e-30))
    assert clamped.meta == {"clamped_floor": True}


def test_logsumexp_hand_value():
    v = ad.Tensor([1.0, 2.0, 3.0])
    assert ad.logsumexp(v).item() == pytest.approx(3.40760596444438, abs=1e-14)


def test_gelu_hand_value():
    x = ad.Tensor([1.0])
    assert ad.gelu(x).data[0] == pytest.approx(0.8411919906082768, abs=1e-15)


GELU_C = math.sqrt(2.0 / math.pi)


def gelu_t_reference(x):
    """GELU's tanh term with numpy's own `x**3`, as the forward always had it."""
    return np.tanh(GELU_C * (x + 0.044715 * x**3))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_gelu_matches_reference(x):
    assert np.count_nonzero(x < 0) >= ad.GELU_FAST_MIN_NEGATIVES  # the fast path runs
    t = gelu_t_reference(x)
    assert np.array_equal(bits(ad._gelu_tanh(x)), bits(t))
    assert np.array_equal(bits(ad.gelu(ad.Tensor(x)).data), bits(0.5 * x * (1.0 + t)))


def gelu_edge_inputs():
    """Zeros, subnormals, underflowing and overflowing cubes, and negative
    inputs where one ulp of the cube moves t, with their neighbours a few
    ulp away, amid a normal sample."""
    rng = np.random.default_rng(17)
    tiny = np.finfo(np.float64).tiny
    special = np.array([
        0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, 1e-310, -1e-310, 1e-110, -1e-110,
        -1e-103, -2.9e-103, 1e-200, -1e-200, 4.6e102, -4.6e102, -4.65e102, -5.6e102,
        -5.7e102, 1e103, -1e103, 1e200, -1e200,
    ])
    x = -np.abs(rng.normal(0.0, 1.8, 200_000))
    off_by_an_ulp = gelu_t_reference(x) != np.tanh(GELU_C * (x + 0.044715 * -(np.abs(x) ** 3)))
    hard = [x[off_by_an_ulp]]
    for direction in (-np.inf, np.inf):
        near = hard[0]
        for _ in range(3):
            near = np.nextafter(near, direction)
            hard.append(near)
    return np.concatenate([special, *hard, rng.normal(0.0, 1.8, 4000)])


@pytest.mark.parametrize("sigma", [1e-3, 1e-2, 1e-1, 1.0, 1.8, 10.0, 1e2])
def test_gelu_fast_path_matches_negative_base_pow_bitwise(sigma):
    assert_gelu_matches_reference(np.random.default_rng(11).normal(0.0, sigma, 50_000))


@pytest.mark.parametrize("block", [ad.GELU_BLOCK, 1000])
def test_gelu_fast_path_edge_inputs_bitwise(block, monkeypatch):
    monkeypatch.setattr(ad, "GELU_BLOCK", block)
    x = gelu_edge_inputs()
    with np.errstate(over="ignore"):
        assert_gelu_matches_reference(x)
        assert_gelu_matches_reference(x[: x.size // 2 * 2].reshape(2, -1))


def test_gelu_edge_inputs_catch_a_window_too_narrow(monkeypatch):
    """The edge inputs are hard enough: a 0-ulp window gets some t wrong."""
    x = gelu_edge_inputs()
    monkeypatch.setattr(ad, "GELU_CUBE_ULPS", 0)
    with np.errstate(over="ignore"):
        assert not np.array_equal(bits(ad._gelu_tanh(x)), bits(gelu_t_reference(x)))


def test_gelu_overflowing_cube_keeps_its_bits():
    """An overflowing x**3 saturates t: numpy warns and gelu raises nothing."""
    with np.errstate(over="ignore"):
        out = ad.gelu(ad.Tensor([1e103, -1e103, 1e200])).data
    assert out.tolist() == [1e103, -0.0, 1e200]
    assert np.signbit(out[1])


def test_gelu_fast_path_assumptions():
    """What the GELU fast path rests on, on this numpy build and CPU:
    - a non-negative base's x**3 is power(|x|, 3.0), bit for bit;
    - a negative base's x**3 is within 1 ulp of -power(|x|, 3.0) (the fast
      path's window, GELU_CUBE_ULPS, is 2);
    - np.tanh, np.power and ** give an element the same bits whatever its
      offset, the array's length and its shape."""
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0.0, s, 50_000) for s in (1e-3, 1e-1, 1.8, 1e2)])
    cube, mag = x**3, np.power(np.abs(x), 3.0)
    pos = x >= 0
    assert np.array_equal(bits(cube[pos]), bits(mag[pos]))
    normal = ~pos & (mag >= np.finfo(np.float64).tiny)
    assert np.abs(bits(cube[normal]) - bits(-mag[normal])).max() <= 1

    sample = x[-5000:]
    for f in (np.tanh, lambda a: np.power(a, 3.0), lambda a: a**3):
        whole = f(sample)
        for start, stop in [(1, 5000), (3, 4099), (17, 18), (4095, 4100), (1000, 1001)]:
            assert np.array_equal(bits(f(sample[start:stop])), bits(whole[start:stop]))
        for i in range(0, 5000, 97):
            assert bits(f(sample[i:i + 1]))[0] == bits(whole)[i]
        rows = f(sample[:4998].reshape(3, 1666))
        assert np.array_equal(bits(rows).reshape(-1), bits(whole[:4998]))


def test_first_gradient_write_keeps_the_bits_of_a_zero_buffer_add():
    rng = np.random.default_rng(4)
    grads = {
        "signed zeros": np.array([[0.0, -0.0, 1.5], [-0.0, -2.0, 0.0]]),
        "non-contiguous": rng.normal(size=(3, 4)).T,
        "strided": rng.normal(size=(4, 6))[:, ::2],
        "broadcast": np.broadcast_to(np.array([-0.0, 2.5, -1.0]), (4, 3)),
    }
    for name, g in grads.items():
        node = ad.Tensor(np.ones(g.shape))
        node.accumulate_grad(g)
        expected = np.zeros_like(node.data)
        expected += g
        assert node.grad.flags.c_contiguous and node.grad.flags.writeable, name
        assert node.grad.tobytes() == expected.tobytes(), name
        assert not np.shares_memory(node.grad, g), name
        node.accumulate_grad(g)
        expected += g
        assert node.grad.tobytes() == expected.tobytes(), name
    scalar = ad.Tensor(1.0)
    scalar.accumulate_grad(np.array(-0.0))
    assert isinstance(scalar.grad, np.ndarray) and scalar.grad.tobytes() == np.array(0.0).tobytes()


def test_cross_entropy_rows_hand_value():
    scores = ad.Tensor([[1.0, 2.0], [3.0, 0.0]])
    loss = ad.cross_entropy_rows(scores, np.array([0, 1]), tau=1.0)
    assert loss.item() == pytest.approx(2.1809245195459823, abs=1e-14)


def test_cross_entropy_rows_matches_composed_ops():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 6))
    targets = np.array([1, 0, 5, 3])
    tau = 1.7

    fused = ad.Parameter(data.copy(), name="s1")
    loss_fused = ad.cross_entropy_rows(fused, targets, tau=tau)
    loss_fused.backward()

    composed = ad.Parameter(data.copy(), name="s2")
    per_row = []
    for i, t in enumerate(targets):
        row = ad.take_position(ad.reshape(composed, (4, 1, 6)), 0)
        # select row i via an explicit slice-free route: use embedding-like gather
        per_row.append(ad.nll(ad.scaled_softmax(_row(composed, i), tau=tau), int(t)))
    loss_composed = ad.reduce_mean(ad.stack_scalars(per_row))
    loss_composed.backward()

    assert loss_fused.item() == pytest.approx(loss_composed.item(), abs=1e-12)
    np.testing.assert_allclose(fused.grad, composed.grad, atol=1e-12)


def _row(matrix: ad.Tensor, i: int) -> ad.Tensor:
    """Differentiable row selection via a one-hot matmul."""
    onehot = np.zeros((1, matrix.shape[0]))
    onehot[0, i] = 1.0
    return ad.reshape(ad.matmul(ad.Tensor(onehot), matrix), (matrix.shape[1],))


def test_sequence_log_prob_hand_value():
    logits = ad.Tensor([[[0.5, -1.0, 2.0], [1.0, 1.0, 1.0]]])
    out = ad.sequence_log_prob(logits, np.array([[2, 0]]))
    assert out.data[0] == pytest.approx(-1.339923585325267, abs=1e-14)


def test_backward_accumulates_through_shared_node():
    x = ad.Parameter(np.array([2.0]), name="x")
    y = ad.mul(x, x)  # x used twice
    z = ad.reduce_sum(y + y)  # y used twice
    z.backward()
    # z = 2x^2, dz/dx = 4x = 8
    assert abs(x.grad[0] - 8.0) < 1e-10


def test_forward_values_not_mutated_by_backward():
    x = ad.Parameter(np.array([1.0, 2.0]), name="x")
    y = ad.scaled_softmax(x, tau=1.0)
    before = y.data.copy()
    loss = ad.nll(y, 0)
    loss.backward()
    np.testing.assert_array_equal(y.data, before)


def test_grad_check_eps_validation():
    x = ad.Parameter(np.array([1.0]), name="x")

    def loss():
        return ad.reduce_sum(ad.mul(x, x))

    with pytest.raises(DomainError):
        ad.grad_check(loss, [x], eps=1e-7)
    with pytest.raises(DomainError):
        ad.grad_check(loss, [x], eps=1e-2)


def test_grad_check_detects_nondeterminism():
    x = ad.Parameter(np.array([1.0]), name="x")
    state = {"n": 0}

    def loss():
        state["n"] += 1
        return ad.reduce_sum(ad.mul(x, x) + ad.Tensor([float(state["n"])]))

    with pytest.raises(DeterminismError):
        ad.grad_check(loss, [x])


def test_grad_check_simple_quadratic():
    x = ad.Parameter(np.array([3.0, -1.0]), name="x")

    def loss():
        return ad.reduce_sum(ad.mul(x, x))

    worst = ad.grad_check(loss, [x])
    assert worst < 1e-9


def test_grad_check_composed_softmax_pipeline():
    rng = np.random.default_rng(11)
    w = ad.Parameter(rng.normal(scale=0.5, size=(5, 4)), name="w")
    v = ad.Parameter(rng.normal(scale=0.5, size=(4, 3)), name="v")
    x = np.ascontiguousarray(rng.normal(size=(2, 5)))

    def loss():
        h = ad.gelu(ad.matmul(ad.Tensor(x), w))
        scores = ad.matmul(h, v)
        return ad.cross_entropy_rows(scores, np.array([0, 2]), tau=1.5)

    worst = ad.grad_check(loss, [w, v])
    assert worst < 1e-6


def test_grad_check_embedding_and_pooling():
    rng = np.random.default_rng(13)
    table = ad.Parameter(rng.normal(scale=0.5, size=(7, 4)), name="emb")
    proj = ad.Parameter(rng.normal(scale=0.5, size=(4, 4)), name="proj")
    ids = np.array([[1, 3, 5], [2, 2, 0]])

    def loss():
        h = ad.embedding(table, ids)  # (2, 3, 4)
        pooled = ad.take_position(h, 0)  # (2, 4)
        scores = ad.matmul(pooled, proj)
        return ad.cross_entropy_rows(scores, np.array([1, 2]))

    worst = ad.grad_check(loss, [table, proj])
    assert worst < 1e-6


def test_grad_check_biased_attention_bias_gradient():
    rng = np.random.default_rng(17)
    q = ad.Parameter(rng.normal(scale=0.5, size=(2, 4)), name="q")
    k = ad.Parameter(rng.normal(scale=0.5, size=(3, 4)), name="k")
    v = ad.Parameter(rng.normal(scale=0.5, size=(3, 4)), name="v")
    bias = ad.Parameter(np.array([0.1, -0.2, 0.3]), name="bias")

    def loss():
        out = ad.biased_attention(q, k, v, bias)
        return ad.reduce_sum(ad.mul(out, out))

    worst = ad.grad_check(loss, [q, k, v, bias])
    assert worst < 1e-6


def test_grad_check_sequence_log_prob():
    rng = np.random.default_rng(19)
    w = ad.Parameter(rng.normal(scale=0.5, size=(4, 5)), name="w")
    x = np.ascontiguousarray(rng.normal(size=(2, 3, 4)))
    targets = np.array([[1, 0, 4], [2, 3, 3]])

    def loss():
        logits = ad.matmul(ad.Tensor(x), w)
        return ad.neg(ad.reduce_mean(ad.sequence_log_prob(logits, targets)))

    worst = ad.grad_check(loss, [w])
    assert worst < 1e-6


def test_grad_check_subset_sampling_is_seeded():
    rng = np.random.default_rng(23)
    w = ad.Parameter(rng.normal(size=(6, 6)), name="w")

    def loss():
        return ad.reduce_sum(ad.mul(w, w))

    a = ad.grad_check(loss, [w], max_elements_per_param=5, rng=np.random.default_rng(1))
    b = ad.grad_check(loss, [w], max_elements_per_param=5, rng=np.random.default_rng(1))
    assert a == b


# Properties ---------------------------------------------------------------

finite_scores = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
)


@given(scores=finite_scores, tau=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_softmax_sums_to_one_and_nonnegative(scores, tau):
    # strict positivity can underflow to 0.0 when (max-s)/tau > ~745, so
    # the checkable fp property is non-negativity plus normalization
    p = ad.scaled_softmax(ad.Tensor(scores), tau=tau).data
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (p >= 0).all()
    assert p.max() > 0


@given(scores=finite_scores)
@settings(max_examples=60, deadline=None)
def test_entropy_nondecreasing_in_tau(scores):
    def entropy(tau):
        p = ad.scaled_softmax(ad.Tensor(scores), tau=tau).data
        return float(-(p * np.log(p)).sum())

    taus = [0.25, 0.5, 1.0, 2.0, 4.0]
    ents = [entropy(t) for t in taus]
    for lo, hi in zip(ents, ents[1:]):
        assert hi >= lo - 1e-12


@given(scores=finite_scores, tau=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_softmax_argmax_invariant_under_tau(scores, tau):
    # a near-tie below rounding can round to an exact tie at one tau only
    second, first = sorted(scores)[-2:]
    assume(first == second or first - second > 1e-9)
    base = ad.scaled_softmax(ad.Tensor(scores), tau=1.0).data
    scaled = ad.scaled_softmax(ad.Tensor(scores), tau=tau).data
    assert int(np.argmax(base)) == int(np.argmax(scaled))


@given(
    scores=finite_scores,
    shift=st.floats(min_value=-20, max_value=20, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_softmax_shift_invariance(scores, shift):
    p1 = ad.scaled_softmax(ad.Tensor(scores), tau=1.0).data
    p2 = ad.scaled_softmax(ad.Tensor([s + shift for s in scores]), tau=1.0).data
    np.testing.assert_allclose(p1, p2, atol=1e-12)
