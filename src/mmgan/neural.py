"""Reverse-mode autodiff on float64 numpy arrays, plus plain MLPs.

Every kernel, sphere, loss and penalty formula in this package takes and
returns `Tensor`s, arrays entering as `constant` leaves. A Tensor is a
value array with the recipe (parents + vector-Jacobian product) that
pushes gradients backward. Graphs are built implicitly by arithmetic and
consumed once by `backward`. Every Tensor is numbered when it is made,
and a node is always made after its parents, so creation order is a
topological order: `backward` walks the reachable nodes newest first,
with no search for an order (a Wengert tape). Gradients are accumulated
in a dict keyed by node, never stored on the nodes themselves, so
parameter tensors can live across many steps without any zero_grad
bookkeeping. Values that are never differentiated run the same ops inside
`no_grad()`, which records no recipe.

Some ops are single nodes with a hand-written vector-Jacobian product
instead of a chain of small ops: a network layer (affine map plus
activation) here, and elsewhere the mean Gram of two batches, the
correlation penalty r_g and the cross-entropy under both adversarial
objectives. A layer, r_g and the cross-entropy give the bits their
formulas give in composed ops. `Tensor` keeps only the ops that the
product's graphs run.
"""

from __future__ import annotations

import dataclasses
import itertools
from contextlib import contextmanager
from operator import attrgetter

import numpy as np

__all__ = [
    "NumericalError",
    "Tensor",
    "node",
    "no_grad",
    "constant",
    "parameter",
    "topo_order",
    "backward",
    "gradients",
    "Layer",
    "Network",
    "glorot_uniform",
    "SGD",
    "ACTIVATIONS",
]


class NumericalError(RuntimeError):
    """A value that must be finite came out NaN or infinite."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# False inside no_grad(): ops then record no recipe
_recording = True
# creation numbers: a node's is above each of its parents'
_seq = itertools.count()


@contextmanager
def no_grad():
    """Block in which ops compute values only: every result is a leaf
    that needs no gradient, so no graph is built or kept alive."""
    global _recording
    saved = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = saved


def node(value, parents, vjp):
    """Result of one op: `vjp(g)` maps the output gradient to one gradient
    per parent (None for a parent that needs none). Ops defined outside
    this module build their nodes here too.
    """
    # Recipe is dropped when no parent needs gradients, or inside no_grad;
    # constant subgraphs then cost nothing at backward time.
    if _recording:
        for p in parents:
            if p.requires_grad:
                return Tensor(value, requires_grad=True, parents=parents, vjp=vjp)
    return Tensor(value)


def _sigmoid(a):
    e = np.exp(-np.abs(a))  # two-branch form: exp(-|a|) cannot overflow
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


# name -> (value(a), vjp(g, a, out)) with out = value(a)
_ACT = {
    "identity": (lambda a: a, lambda g, a, out: g),
    "relu": (lambda a: np.maximum(a, 0.0), lambda g, a, out: g * (a > 0.0)),
    "tanh": (np.tanh, lambda g, a, out: g * (1.0 - out * out)),
    "sigmoid": (_sigmoid, lambda g, a, out: g * out * (1.0 - out)),
}
ACTIVATIONS = tuple(_ACT)


class Tensor:
    """One node of a computation graph.

    `value` is always a float64 ndarray. Leaf nodes are made with
    `constant` or `parameter`; everything else comes from the ops below.
    Shapes follow numpy broadcasting.
    `seq` numbers the Tensors in the order they are made.
    """

    __slots__ = ("value", "parents", "vjp", "requires_grad", "seq")

    # Keep numpy from intercepting `ndarray <op> Tensor`; we want the
    # reflected Tensor operator instead of elementwise object math.
    __array_ufunc__ = None

    def __init__(self, value, requires_grad: bool = False, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self.parents = parents
        self.vjp = vjp
        self.seq = next(_seq)

    # -- basics --------------------------------------------------------

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            a, b = self.value, other.value
            out = a + b
            return node(out, (self, other),
                         lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
        a = self.value
        return node(a + other, (self,), lambda g: (_unbroadcast(g, a.shape),))

    __radd__ = __add__

    def __sub__(self, other: "Tensor"):
        a, b = self.value, other.value
        return node(a - b, (self, other),
                     lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            a, b = self.value, other.value
            return node(a * b, (self, other),
                         lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)))
        a = self.value
        return node(a * other, (self,), lambda g: (_unbroadcast(g * other, a.shape),))

    __rmul__ = __mul__

    def __truediv__(self, other: float):
        a = self.value
        return node(a / other, (self,), lambda g: (_unbroadcast(g / other, a.shape),))

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self.value
        out = a.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            return (np.broadcast_to(gg, a.shape),)

        return node(out, (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self.value
        n = a.size if axis is None else a.shape[axis]
        # sum / n, as numpy's mean computes it: the same bits at every n
        return self.sum(axis=axis, keepdims=keepdims) / n

    # -- elementwise nonlinearities ---------------------------------------

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.value)

        def vjp(g):
            # subgradient 0 at exactly 0, rather than inf
            return (np.divide(0.5 * g, out, out=np.zeros_like(out), where=out > 0.0),)

        return node(out, (self,), vjp)

    def abs(self) -> "Tensor":
        a = self.value
        return node(np.abs(a), (self,), lambda g: (g * np.sign(a),))

    def clamp_min(self, lo: float) -> "Tensor":
        a = self.value
        return node(np.maximum(a, lo), (self,), lambda g: (g * (a > lo),))


def constant(value) -> Tensor:
    """Leaf that never receives gradients."""
    return Tensor(value)


def parameter(value) -> Tensor:
    """Trainable leaf. Must be finite."""
    t = Tensor(value, requires_grad=True)
    if not np.isfinite(t.value).all():
        raise NumericalError("parameter initialized with non-finite values")
    return t


def topo_order(root: Tensor) -> list:
    """Gradient-reachable nodes of `root`'s graph, parents before children.

    Only requires_grad nodes are collected; they come back in creation
    order, which puts every parent before its children. Raises ValueError
    if a parent is not older than its child, as in any cycle of parent
    links: only manual graph surgery can make one, but it is cheap to
    guard against.
    """
    seen = {id(root): root}
    stack = [root]
    while stack:
        child = stack.pop()
        for p in child.parents:
            if not p.requires_grad:
                continue
            if p.seq >= child.seq:
                raise ValueError("cycle detected in computation graph: "
                                 "a parent is not older than its child")
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return sorted(seen.values(), key=attrgetter("seq"))


def backward(loss: Tensor) -> dict:
    """Gradients of a scalar `loss` w.r.t. every reachable node.

    Returns {Tensor: ndarray}; leaves not reachable from `loss` are simply
    absent. The graph is left untouched and can be walked again.
    """
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    grads: dict = {loss: np.ones_like(loss.value)}
    if not loss.requires_grad:
        return grads
    for node in reversed(topo_order(loss)):
        g = grads.get(node)
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg
    return grads


def gradients(loss: Tensor, params: dict) -> dict:
    """Map parameter name -> gradient array. Unreachable params get zeros."""
    table = backward(loss)
    out = {}
    for name, p in params.items():
        g = table.get(p)
        out[name] = np.zeros_like(p.value) if g is None else np.asarray(g)
    return out


# -- networks ------------------------------------------------------------


def _qualified(net_name: str, key: str) -> str:
    """key ("layer1.w") prefixed with its network's name, if it has one."""
    return f"{net_name}.{key}" if net_name else key


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


@dataclasses.dataclass
class Layer:
    """Affine map plus elementwise activation. weight is (fan_in, fan_out)."""

    weight: Tensor
    bias: Tensor
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.value.ndim != 2 or self.bias.value.ndim != 1:
            raise ValueError("weight must be 2-D and bias 1-D")
        if self.weight.value.shape[1] != self.bias.value.shape[0]:
            raise ValueError("bias length must equal weight fan_out")

    @property
    def fan_in(self) -> int:
        return self.weight.value.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weight.value.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        """activation(x @ weight + bias) as one graph node."""
        value, act_vjp = _ACT[self.activation]
        xv, w = x.value, self.weight.value
        pre = xv @ w + self.bias.value
        out = value(pre)

        # only operands that need a gradient get one: through a layer of
        # constants, backward forms the input's alone
        def vjp(g):
            gp = act_vjp(g, pre, out)
            gx = gp @ w.T if x.requires_grad else None
            gw = xv.T @ gp if self.weight.requires_grad else None
            gb = gp.sum(axis=0) if self.bias.requires_grad else None
            return gx, gw, gb

        return node(out, (x, self.weight, self.bias), vjp)


class Network:
    """Fully connected net: a chain of layers whose last output is the
    net's. A discriminator's vector representation is the net of its
    layers but the last. `name` ("g", "d") prefixes the layer named in a
    numerical error.
    """

    def __init__(self, layers: list, name: str = ""):
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ValueError(
                    f"layer dims do not compose: {prev.fan_out} -> {nxt.fan_in}")
        self.layers = layers
        self.name = name
        self._params = {}
        for i, layer in enumerate(layers):
            self._params[f"layer{i}.w"] = layer.weight
            self._params[f"layer{i}.b"] = layer.bias

    @classmethod
    def create(cls, sizes, hidden_activation: str = "relu",
               out_activation: str = "identity",
               rng: np.random.Generator | None = None,
               name: str = "") -> "Network":
        """Build from a size chain like (2, 64, 64, 1). Glorot-uniform
        weights, zero biases."""
        if len(sizes) < 2:
            raise ValueError("sizes needs at least input and output dims")
        if rng is None:
            rng = np.random.default_rng(0)
        layers = []
        last = len(sizes) - 2
        for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
            act = out_activation if i == last else hidden_activation
            layers.append(Layer(parameter(glorot_uniform(fi, fo, rng)),
                                parameter(np.zeros(fo)), act))
        return cls(layers, name)

    @property
    def in_dim(self) -> int:
        return self.layers[0].fan_in

    def parameters(self) -> dict:
        return self._params

    def forward(self, batch) -> Tensor:
        """Run a (n, in_dim) batch through the graph and return the last
        layer's output. Raises NumericalError naming the first layer whose
        output is non-finite if that output comes out so.
        """
        x = batch if isinstance(batch, Tensor) else constant(batch)
        if x.value.ndim != 2 or x.value.shape[1] != self.in_dim:
            raise ValueError(
                f"expected batch shape (n, {self.in_dim}), got {x.value.shape}")
        for layer in self.layers:
            x = layer(x)
        if not np.isfinite(x.value).all():
            raise NumericalError(
                f"non-finite activation in {self._first_nonfinite(batch)}")
        return x

    def _first_nonfinite(self, batch) -> str:
        """The qualified name of the first layer whose output on batch is
        non-finite; a value pass, run only once forward has failed."""
        v = batch.value if isinstance(batch, Tensor) else batch
        with no_grad():
            for i, layer in enumerate(self.layers):
                v = layer(constant(v)).value
                if not np.isfinite(v).all():
                    break
        return _qualified(self.name, f"layer{i}")

    def forward_values(self, batch) -> np.ndarray:
        """forward under no_grad, for statistics and evaluation: the output
        as a plain array."""
        with no_grad():
            return self.forward(batch).value


class SGD:
    """SGD with optional classical momentum. Stateless when momentum is 0.
    `name` is the owning network's, for error messages."""

    def __init__(self, params: dict, lr: float, momentum: float = 0.0,
                 name: str = ""):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.name = name
        self._vel = {n: np.zeros_like(p.value) for n, p in params.items()} \
            if momentum > 0.0 else None

    def step(self, grads: dict) -> None:
        for name, g in grads.items():
            if name not in self.params:
                raise ValueError(f"gradient for unknown parameter {name!r}")
            g = np.asarray(g)
            if not np.isfinite(g).all():
                raise NumericalError(
                    f"non-finite gradient for {_qualified(self.name, name)}")
            if self._vel is not None:
                v = self._vel[name]
                v *= self.momentum
                v += g
                g = v
            self.params[name].value -= self.lr * g
