import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmgan.neural as neural_mod
from mmgan.neural import (
    ACTIVATIONS,
    Layer,
    Network,
    NumericalError,
    SGD,
    Tensor,
    backward,
    constant,
    glorot_uniform,
    gradients,
    no_grad,
    parameter,
    topo_order,
)
from oracles import fd_gradients, max_rel_err, rel_err

FD_STEP = 1e-5
FD_TOL = 1e-4


def check_against_fd(build_loss, arrays, tol=FD_TOL):
    """build_loss(params: dict[str, Tensor]) -> scalar Tensor."""
    params = {k: parameter(v) for k, v in arrays.items()}
    analytic = gradients(build_loss(params), params)

    def f():
        return build_loss(params).item()

    numeric = fd_gradients(f, {k: p.value for k, p in params.items()}, h=FD_STEP)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"fd disagreement {err:.3e}"


def test_hand_derived_chain():
    # f = sum((x*y + x)^2); df/dx = 2(xy+x)(y+1), df/dy = 2(xy+x)x
    x = parameter([1.0, -2.0])
    y = parameter([3.0, 0.5])
    z = x * y + x
    loss = (z * z).sum()
    g = backward(loss)
    zx = np.array([1.0 * 3.0 + 1.0, -2.0 * 0.5 - 2.0])
    np.testing.assert_allclose(g[x], 2 * zx * (np.array([3.0, 0.5]) + 1))
    np.testing.assert_allclose(g[y], 2 * zx * np.array([1.0, -2.0]))


def test_arith_ops_fd():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))

    def loss(p):
        t = p["a"] + p["b"] * 2.0
        t = t - p["b"] / 3.0
        t = t * p["a"]
        return (t * t).sum()

    check_against_fd(loss, {"a": a, "b": b})


def test_broadcast_fd():
    # a row and a column operand, each summed back to its own shape
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(3,))
    c = rng.normal(size=(5, 1))

    def loss(p):
        out = constant(x) * p["w"] + p["b"]
        return (out * out).mean()

    check_against_fd(loss, {"w": w, "b": c})


def test_reductions_fd():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 3))

    def loss(p):
        col = p["a"].mean(axis=0)
        row = p["a"].sum(axis=1, keepdims=True)
        return (col * col).sum() + (row * row).mean()

    check_against_fd(loss, {"a": a})


@pytest.mark.parametrize("n", [24, 800])
def test_mean_equals_numpy_mean_bit_for_bit(n):
    # sum / n, not sum * (1 / n): the two differ in the last bit unless n
    # is a power of two, and statistics of arrays must match numpy's
    a = np.random.default_rng(n).normal(size=(n, 3))
    assert np.array_equal(constant(a).mean(axis=0).value, a.mean(axis=0))
    assert np.array_equal(constant(a[:, 0]).mean().value, a[:, 0].mean())


def test_unary_ops_fd():
    rng = np.random.default_rng(10)
    a = rng.uniform(0.5, 2.0, size=(3, 3))
    b = rng.normal(size=(3, 3))

    def loss(p):
        root = p["a"].sqrt()
        t = root + p["a"] * root
        u = (p["b"] * p["b"] + 0.3).abs() - p["b"] * p["b"] * p["b"]
        d = t.sum() - u.mean()
        return d * d

    check_against_fd(loss, {"a": a, "b": b})


def test_relu_clamp_fd_away_from_kinks():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    a[np.abs(a) < 0.05] = 0.5

    def loss(p):
        s = p["a"].clamp_min(0.0).sum() + p["a"].clamp_min(-0.2).mean()
        return s * s

    check_against_fd(loss, {"a": a})


def test_numpy_left_operands_hit_reflected_ops():
    x = parameter([1.0, 2.0])
    arr = np.array([3.0, 4.0])
    for expr, expect in [
        (arr + x, [4.0, 6.0]),
        (arr - x, [2.0, 2.0]),
        (arr * x, [3.0, 8.0]),
    ]:
        assert isinstance(expr, Tensor)
        np.testing.assert_allclose(expr.value, expect)
    g = backward((arr * x).sum())
    np.testing.assert_allclose(g[x], arr)


def test_diamond_graph_accumulates():
    x = parameter([3.0])
    z = x * x
    loss = (z + z).sum()
    g = backward(loss)
    np.testing.assert_allclose(g[x], [12.0])


def test_backward_is_linear():
    rng = np.random.default_rng(13)
    x = parameter(rng.normal(size=(4,)))
    f = (x * x).sum()
    h = (x * x * x).sum()
    combo = 2.5 * f + 0.5 * h
    gf, gh, gc = backward(f)[x], backward(h)[x], backward(combo)[x]
    np.testing.assert_allclose(gc, 2.5 * gf + 0.5 * gh, rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6),
       st.floats(-2, 2), st.floats(-2, 2))
def test_backward_linearity_property(vals, ca, cb):
    x = parameter(np.asarray(vals))
    f = (x * x).sum()
    h = (x * x * x).sum()
    gc = backward(ca * f + cb * h)[x]
    np.testing.assert_allclose(gc, ca * backward(f)[x] + cb * backward(h)[x],
                               rtol=1e-9, atol=1e-12)


def test_backward_requires_scalar():
    x = parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        backward(x * 2.0)


def test_cycle_detection():
    x = parameter([1.0])
    y = x * 2.0
    y.parents = (x,)
    x.parents = (y,)  # manual surgery: should be caught, not hang
    x.requires_grad = True
    with pytest.raises(ValueError, match="cycle"):
        topo_order(y)


def test_gradients_unreachable_param_is_zero():
    x = parameter([1.0, 2.0])
    y = parameter([3.0])
    loss = (x * x).sum()
    g = gradients(loss, {"x": x, "y": y})
    np.testing.assert_allclose(g["y"], [0.0])
    np.testing.assert_allclose(g["x"], [2.0, 4.0])


def test_backward_twice_same_graph_is_stable():
    x = parameter(np.array([1.5, -0.5]))
    loss = (x.abs() * x).sum()
    g1 = backward(loss)[x]
    g2 = backward(loss)[x]
    np.testing.assert_array_equal(g1, g2)


def test_sqrt_zero_subgradient():
    x = parameter([0.0, 4.0])
    g = backward(x.sqrt().sum())[x]
    np.testing.assert_allclose(g, [0.0, 0.25])


def test_sigmoid_extremes_finite():
    # one sigmoid layer computing sigmoid(x): the two-branch form stays
    # finite where a naive 1 / (1 + exp(-x)) overflows
    net = Network([Layer(parameter([[1.0]]), parameter([0.0]), "sigmoid")])
    x = parameter([[-800.0], [800.0], [0.0]])
    s = net.forward(x)
    np.testing.assert_allclose(s.value, [[0.0], [1.0], [0.5]], atol=1e-12)
    grads = backward(s.sum())
    assert all(np.isfinite(grads[t]).all()
               for t in (x, *net.parameters().values()))


def test_sigmoid_equals_the_three_exp_formula_bit_for_bit():
    # the form that evaluated exp(-|a|) three times
    a = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0],
        np.random.default_rng(0).normal(scale=10.0, size=200)])
    three = np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                     np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))))
    sigmoid, _ = neural_mod._ACT["sigmoid"]
    assert sigmoid(a).tobytes() == three.tobytes()


def test_parameter_rejects_nonfinite():
    with pytest.raises(NumericalError):
        parameter([1.0, np.nan])


def test_constant_branch_costs_nothing():
    c = constant(np.ones(3)) * 2.0 + 5.0
    assert not c.requires_grad and c.vjp is None and c.parents == ()


# -- networks -------------------------------------------------------------


def test_glorot_bounds_and_determinism():
    s = np.sqrt(6.0 / (30 + 20))
    w1 = glorot_uniform(30, 20, np.random.default_rng(5))
    w2 = glorot_uniform(30, 20, np.random.default_rng(5))
    assert w1.shape == (30, 20)
    assert np.abs(w1).max() <= s
    np.testing.assert_array_equal(w1, w2)


def test_network_shapes_and_representation():
    net = Network.create((2, 16, 8, 1), rng=np.random.default_rng(0),
                         name="d")
    assert net.in_dim == 2 and net.layers[-1].fan_out == 1
    out = net.forward(np.zeros((5, 2)))
    assert isinstance(out, Tensor) and out.shape == (5, 1)
    # a discriminator's representation: the net of its layers but the
    # last, holding the same parameter objects under the same names
    feats = Network(net.layers[:-1], net.name)
    assert feats.forward(np.zeros((5, 2))).shape == (5, 8)
    assert feats.parameters() == {
        k: p for k, p in net.parameters().items() if not k.startswith("layer2")}


def test_network_rejects_bad_batch():
    net = Network.create((2, 4, 1), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        net.forward(np.zeros(2))


def test_network_rejects_noncomposing_dims():
    l1 = Layer(parameter(np.zeros((2, 4))), parameter(np.zeros(4)), "relu")
    l2 = Layer(parameter(np.zeros((3, 1))), parameter(np.zeros(1)), "identity")
    with pytest.raises(ValueError, match="compose"):
        Network([l1, l2])


def test_network_nonfinite_forward_raises():
    net = Network.create((2, 4, 1), rng=np.random.default_rng(0))
    net.parameters()["layer0.w"].value[0, 0] = np.inf
    with pytest.raises(NumericalError, match=r"^non-finite activation in layer0$"):
        net.forward(np.ones((3, 2)))
    # the first failing layer of a named network, in graph and value passes
    for layer in range(3):
        net = Network.create((2, 4, 4, 1), rng=np.random.default_rng(0),
                             name="d")
        net.parameters()[f"layer{layer}.b"].value[0] = np.nan
        for run in (net.forward, net.forward_values):
            with pytest.raises(NumericalError, match=(
                    rf"^non-finite activation in d\.layer{layer}$")):
                run(np.ones((3, 2)))


def test_forward_values_matches_graph_forward():
    rng = np.random.default_rng(3)
    net = Network.create((3, 8, 8, 2), hidden_activation="tanh", rng=rng)
    x = rng.normal(size=(6, 3))
    out_v = net.forward_values(x)
    assert isinstance(out_v, np.ndarray)
    np.testing.assert_array_equal(net.forward(x).value, out_v)


@pytest.mark.parametrize("act", ACTIVATIONS)
def test_layer_of_constants_passes_the_input_gradient_alone(act):
    # over the same arrays, a layer whose weight and bias are constants
    # gives the same output and the same input gradient, and forms no
    # gradient for itself
    rng = np.random.default_rng(4)
    w, b = rng.normal(size=(3, 4)), rng.normal(size=4)
    learned = Layer(parameter(w), parameter(b), act)
    fixed = Layer(constant(w), constant(b), act)
    assert fixed.weight.value is w and fixed.bias.value is b
    x = parameter(rng.normal(size=(5, 3)))
    y_learned, y_fixed = learned(x), fixed(x)
    assert np.array_equal(y_learned.value, y_fixed.value)
    g = rng.normal(size=(5, 4))
    gx, gw, gb = y_fixed.vjp(g)
    assert gw is None and gb is None
    assert np.array_equal(gx, y_learned.vjp(g)[0])
    assert len(topo_order((y_fixed * y_fixed).sum())) == 4


@pytest.mark.parametrize("act", ACTIVATIONS)
def test_network_gradient_fd(act):
    # every layer is one fused node, so this checks its VJP per activation
    rng = np.random.default_rng(4)
    net = Network.create((2, 6, 4, 1), hidden_activation=act,
                         out_activation=act, rng=rng)
    x = rng.normal(size=(7, 2))
    params = net.parameters()
    if act == "relu":
        # relu inputs off the kink: a central difference across 0 would
        # measure the kink, not the VJP
        for layer in net.layers:
            layer.bias.value += 0.1
        h = x
        for layer in net.layers:
            pre = h @ layer.weight.value + layer.bias.value
            assert np.abs(pre).min() > 1e-3
            h = np.maximum(pre, 0.0)

    hidden = Network(net.layers[:-1])

    def loss_node():
        out, feats = net.forward(x), hidden.forward(x)
        return (out * out).mean() + 0.1 * (feats * feats).sum()

    analytic = gradients(loss_node(), params)
    numeric = fd_gradients(lambda: loss_node().item(),
                           {k: p.value for k, p in params.items()}, h=FD_STEP)
    assert max_rel_err(analytic, numeric) < FD_TOL


@pytest.mark.parametrize("act", ACTIVATIONS)
def test_every_activation_runs_and_differentiates(act):
    net = Network.create((2, 5, 2), hidden_activation=act, out_activation=act,
                         rng=np.random.default_rng(1))
    out = net.forward(np.random.default_rng(2).normal(size=(4, 2)))
    g = gradients((out * out).sum(), net.parameters())
    assert all(np.isfinite(v).all() for v in g.values())


def test_sgd_step_moves_parameters():
    net = Network.create((2, 3, 1), rng=np.random.default_rng(0))
    before = {k: p.value.copy() for k, p in net.parameters().items()}
    g = {k: np.ones_like(p.value) for k, p in net.parameters().items()}
    SGD(net.parameters(), lr=0.1).step(g)
    for k, p in net.parameters().items():
        np.testing.assert_allclose(p.value, before[k] - 0.1)


def test_sgd_step_unknown_key_and_nonfinite():
    net = Network.create((2, 3, 1), rng=np.random.default_rng(0))
    opt = SGD(net.parameters(), lr=0.1)
    with pytest.raises(ValueError, match="unknown parameter"):
        opt.step({"nope": np.zeros(3)})
    with pytest.raises(NumericalError,
                       match=r"^non-finite gradient for layer0\.b$"):
        opt.step({"layer0.b": np.full(3, np.nan)})
    named = SGD(net.parameters(), lr=0.1, name="g")
    with pytest.raises(NumericalError,
                       match=r"^non-finite gradient for g\.layer0\.b$"):
        named.step({"layer0.b": np.full(3, np.inf)})


def test_no_grad_records_nothing_and_restores():
    net = Network.create((2, 5, 1), rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 2))
    with no_grad():
        out = net.forward(x)
    assert isinstance(out, Tensor)
    assert out.parents == () and not out.requires_grad
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("inside")
    out = net.forward(x)
    assert out.requires_grad and out.parents


def test_sgd_momentum_matches_hand_rollout():
    p = parameter(np.array([1.0]))
    opt = SGD({"p": p}, lr=0.1, momentum=0.9)
    opt.step({"p": np.array([1.0])})   # v=1.0, p=1-0.1
    opt.step({"p": np.array([1.0])})   # v=1.9, p=0.9-0.19
    np.testing.assert_allclose(p.value, [1.0 - 0.1 - 0.19])


def test_sgd_validates_hyperparams():
    p = parameter(np.array([1.0]))
    with pytest.raises(ValueError):
        SGD({"p": p}, lr=0.0)
    with pytest.raises(ValueError):
        SGD({"p": p}, lr=0.1, momentum=1.0)
