"""Minimal reverse-mode tensor engine and the layers the model needs.

Only the operations required by the separation network are implemented:
broadcast arithmetic, square, matmul, affine (x @ w + b as one node),
reshape, row gathers, tanh, log-sigmoid, softmax, and sums, plus one fused
bidirectional LSTM sequence op with hand-written backpropagation through
time. Everything is float64 so gradient checks can be tight; the one
exception is a constant int8 array (the +-1 dominance labels), which is
kept as it is, since numpy promotes it to float64 exactly wherever it meets
a float. Forward passes are pure functions of (inputs, parameters).
``affine``, ``softmax`` and ``log_sigmoid`` compute in their output buffer,
with the same operations in the same order as the plain expressions (so
the same bits); ``affine`` adds the bias into its product, so the tape holds
one array where a matmul node and an add node held two.

Gradients are computed only for operands with ``requires_grad``: labels,
input magnitudes and other constants get none. ``Tensor.backward`` hands
each interior node's gradient to that node's backward function and drops
it from the node, so after a backward pass only leaves (tensors without a
backward function, such as parameters) hold gradients. A backward function
that passes a parent an array it allocated, or the gradient it was handed
(or a view of it), and gives that array to no other parent calls
``_accum(g, own=True)``; the parent then keeps the array instead of copying
it. ``add``, which hands the same gradient to both operands, gives it to
the second one as a copy.

Each backward function holds exactly the arrays it reads: an operand's
value (when another operand needs its gradient), its own output, or only
shapes (``add``, ``sub``, ``reshape``, ``swap_last``, ``gather_rows``,
``tsum``). ``Tensor.backward`` drops the data of every interior node it
walks, once every consumer has accumulated into it; the node keeps its
shape. So an array that no backward reads is freed during the walk, and the
arrays that are read live until the tape is dropped. After a backward pass
only the output and the leaves keep their values, and the tape cannot be
walked again.
"""

import functools
from math import prod

import numpy as np

from .errors import NoForwardRecorded, ShapeMismatch


class Tensor:
    """Node in the computation tape."""

    __slots__ = ("data", "shape", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        if isinstance(data, np.ndarray) and data.dtype == np.int8 and not (requires_grad or parents):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.shape = self.data.shape
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward_fn = backward_fn

    def _accum(self, g, own=False):
        """Add g into this node's gradient. With ``own=True`` the caller gives
        up g, so a first gradient is kept as is instead of copied, provided
        it is laid out in C order as the copy would be."""
        if not self.requires_grad:
            return
        if self.grad is None:
            if own and isinstance(g, np.ndarray) and g.flags.c_contiguous and self.data.flags.c_contiguous:
                self.grad = g
            else:
                self.grad = np.empty_like(self.data)
                np.copyto(self.grad, g)
        else:
            self.grad += g

    def backward(self):
        """Accumulate gradients of a scalar output into every requires_grad
        ancestor, dropping the data of every interior node it walks."""
        if self._backward_fn is None and not self._parents:
            raise NoForwardRecorded("tensor has no recorded computation")
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node.data is None:
                raise NoForwardRecorded("this tape was already walked by backward")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                if node is not self:  # every consumer has accumulated into it
                    node.data = None
                if node.grad is not None:
                    g, node.grad = node.grad, None
                    node._backward_fn(g)


class Parameter(Tensor):
    """Trainable tensor with a name; grad is zeroed at batch start."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = name

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    # Reduce a broadcasted gradient back to the operand's shape.
    extra = g.ndim - len(shape)
    if extra > 0:
        if g.flags.c_contiguous and prod(g.shape[extra:]) > 1:
            # numpy sums a C-ordered array over its leading axes row after
            # row, with one call of its inner loop per row; einsum makes the
            # same additions in the same order in one loop, which matters for
            # the (B*T*F, M) MI-head bias gradient. Over a single trailing
            # element numpy sums pairwise, so that case keeps g.sum.
            axes = list(range(g.ndim))
            g = np.einsum(g, axes, axes[extra:])
        else:
            g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _fold(ufunc, x, axis):
    """x reduced over ``axis`` (kept, with length 1) by ``ufunc`` applied to
    its slices in index order. Over a length-2 axis this gives numpy's
    reduction bit for bit, without one inner-loop call per row."""
    return functools.reduce(ufunc, np.split(x, x.shape[axis], axis=axis))


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, parents=(a, b))

    def bwd(g):
        ga = _unbroadcast(g, a.shape)
        gb = _unbroadcast(g, b.shape)
        a._accum(ga, own=True)
        b._accum(gb, own=gb is not ga)

    out._backward_fn = bwd
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data, parents=(a, b))

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape), own=True)
        if b.requires_grad:
            b._accum(-_unbroadcast(g, b.shape), own=True)

    out._backward_fn = bwd
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, parents=(a, b))
    ad, bd = a.data if b.requires_grad else None, b.data if a.requires_grad else None

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * bd, a.shape), own=True)
        if b.requires_grad:
            b._accum(_unbroadcast(g * ad, b.shape), own=True)

    out._backward_fn = bwd
    return out


def square(a):
    a = _as_tensor(a)
    x = a.data
    out = Tensor(x * x, parents=(a,))

    def bwd(g):
        t = g * x
        t += t  # 2 * g * x, as mul(a, a) adds its two equal products
        a._accum(t, own=True)

    out._backward_fn = bwd
    return out


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(np.matmul(a.data, b.data), parents=(a, b))
    ad, bd = a.data if b.requires_grad else None, b.data if a.requires_grad else None

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), a.shape), own=True)
        if b.requires_grad:
            b._accum(_unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), b.shape), own=True)

    out._backward_fn = bwd
    return out


def affine(x, w, b):
    """x @ w + b as one tape node. The bias is added into the product in
    place, so b must broadcast to the product's shape; the backward takes
    matmul's two GEMMs and add's bias sum."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    y = np.matmul(x.data, w.data)
    y += b.data
    out = Tensor(y, parents=(x, w, b))
    xd, wd = x.data if w.requires_grad else None, w.data if x.requires_grad else None

    def bwd(g):
        if x.requires_grad:
            x._accum(_unbroadcast(np.matmul(g, np.swapaxes(wd, -1, -2)), x.shape), own=True)
        if w.requires_grad:
            w._accum(_unbroadcast(np.matmul(np.swapaxes(xd, -1, -2), g), w.shape), own=True)
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape), own=True)

    out._backward_fn = bwd
    return out


def swap_last(a):
    a = _as_tensor(a)
    out = Tensor(np.swapaxes(a.data, -1, -2), parents=(a,))
    out._backward_fn = lambda g: a._accum(np.swapaxes(g, -1, -2), own=True)
    return out


def reshape(a, shape):
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape), parents=(a,))
    out._backward_fn = lambda g: a._accum(g.reshape(a.shape), own=True)
    return out


def gather_rows(table, ids):
    """table[ids] with gradient fan-in summed over repeated ids."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    out = Tensor(table.data[ids], parents=(table,))

    def bwd(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    out._backward_fn = bwd
    return out


def tanh(a):
    a = _as_tensor(a)
    h = np.tanh(a.data)
    out = Tensor(h, parents=(a,))
    out._backward_fn = lambda g: a._accum(g * (1.0 - h * h), own=True)
    return out


def log_sigmoid(a):
    """Numerically stable log(sigmoid(x))."""
    a = _as_tensor(a)
    x = a.data
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    y = x - t
    np.negative(t, out=y, where=x > 0)
    out = Tensor(y, parents=(a,))

    def bwd(g):
        # d/dx = sigmoid(-x); exp overflows to inf for x > 709, giving the right 0.
        with np.errstate(over="ignore"):
            a._accum(g / (1.0 + np.exp(x)), own=True)

    out._backward_fn = bwd
    return out


def softmax(a, axis=-1):
    a = _as_tensor(a)
    s = a.data - _fold(np.maximum, a.data, axis)
    np.exp(s, out=s)
    s /= _fold(np.add, s, axis)
    out = Tensor(s, parents=(a,))
    out._backward_fn = lambda g: a._accum(s * (g - _fold(np.add, g * s, axis)), own=True)
    return out


def tsum(a):
    a = _as_tensor(a)
    out = Tensor(a.data.sum(), parents=(a,))
    out._backward_fn = lambda g: a._accum(np.full(a.shape, g), own=True)
    return out


def tmean(a):
    return mul(tsum(a), 1.0 / _as_tensor(a).data.size)


# --- layers --------------------------------------------------------------


def init_blstm_params(d_in, hidden, rng, prefix):
    """Gate-stacked weight (4, 2, H + D_in, H) and bias (4, 2, H) of one BLSTM
    layer, indexed (gate, direction): gates in the order input, forget,
    output, candidate; direction 0 runs forward in time. Weights are
    Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), drawn direction by direction
    and gate by gate; the forget bias is +1, the others 0."""
    bound = 1.0 / np.sqrt(d_in + hidden)
    w = rng.uniform(-bound, bound, size=(2, 4, d_in + hidden, hidden)).transpose(1, 0, 2, 3)
    b = np.zeros((4, 2, hidden))
    b[1] = 1.0
    return Parameter(np.ascontiguousarray(w), f"{prefix}.w"), Parameter(b, f"{prefix}.b")


def _to_steps(a):
    """(B, T, 2, K) in input time order -> (T, 2, B, K) in step order, where
    step s of direction 1 (the backward LSTM) is time T-1-s."""
    return np.stack([a[:, :, 0].transpose(1, 0, 2), a[:, ::-1, 1].transpose(1, 0, 2)], axis=1)


def _to_time(a):
    """Inverse of _to_steps: (T, 2, B, K) -> (B, T, 2, K)."""
    return np.stack([a[:, 0].transpose(1, 0, 2), a[::-1, 1].transpose(1, 0, 2)], axis=2)


def blstm_layer(x: Tensor, w: Parameter, b: Parameter) -> Tensor:
    """Bidirectional LSTM over (B, T, D_in) -> (B, T, 2H), zero initial state.

    Features [:H] come from the forward-time LSTM, [H:] from the one run over
    reversed time (re-reversed on output). The layer is a single tape node:
    both directions and all four gates advance together in one time loop,
    with one batched GEMM per step forward and hand-written backpropagation
    through time. ``w`` and ``b`` are the layer's gate-stacked parameters
    from ``init_blstm_params``.

    The arithmetic is that of the LSTM unrolled op by op on the tape, kept
    exactly: each gate is its own ``[h | x_t] @ W_gate + b_gate`` product,
    and gradients are summed in the order the tape sums them (the gradient
    of ``[h | x_t]`` over the output, forget, input and candidate gates in
    that order; weight and bias gradients step by step from the last step
    back). Training therefore follows the same trajectory bit for bit.
    Fusing the gates into one (H + D, 4H) GEMM or hoisting the input
    projection out of the loop would reorder these sums.
    """
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeMismatch(f"expected (B, T, D), got {x.shape}")
    B, T, D = x.shape
    H = w.shape[-1]
    if w.shape != (4, 2, H + D, H) or b.shape != (4, 2, H):
        raise ShapeMismatch(f"gate weights {w.shape} and biases {b.shape} do not fit input width {D}")
    wd, bd = w.data, b.data[:, :, None, :]

    # z[s] = [h_prev | x_t] per direction; arrays are in step order (_to_steps).
    z = np.empty((T, 2, B, H + D))
    z[0, :, :, :H] = 0.0
    z[:, 0, :, H:] = x.data.transpose(1, 0, 2)
    z[:, 1, :, H:] = x.data[:, ::-1].transpose(1, 0, 2)
    acts = np.empty((T, 4, 2, B, H))  # gates after their nonlinearities
    cs = np.empty((T, 2, B, H))
    tcs = np.empty((T, 2, B, H))  # tanh(c)
    hs = np.empty((T, 2, B, H))
    c = np.zeros((2, B, H))
    # A very negative gate input overflows exp to inf, and 1 / (1 + inf) is
    # the exact 0 the sigmoid tends to, so the overflow is not an error.
    with np.errstate(over="ignore"):
        for s in range(T):
            if s:
                z[s, :, :, :H] = hs[s - 1]
            a = z[s] @ wd + bd
            act = acts[s]
            act[:3] = 1.0 / (1.0 + np.exp(-a[:3]))
            act[3] = np.tanh(a[3])
            c = cs[s] = act[1] * c + act[0] * act[3]
            tcs[s] = np.tanh(c)
            hs[s] = act[2] * tcs[s]
    out = Tensor(_to_time(hs).reshape(B, T, 2 * H), parents=(x, w, b))

    def bwd(g):
        i, f, o, cand = (acts[:, k] for k in range(4))
        c_prev = np.concatenate([np.zeros((1, 2, B, H)), cs[:-1]])
        # Gate pre-activation gradient: ([dc, dc, dh, dc] * partner) * scale1,
        # then (1 - s) for the sigmoid gates, associated as the unrolled
        # oracle's mul, sigmoid and tanh backward functions do.
        partner = np.stack([cand, c_prev, tcs, i], axis=1)
        scale1 = acts.copy()
        scale1[:, 3] = 1.0 - cand * cand
        scale2 = 1.0 - acts[:, :3]
        dtanh_c = 1.0 - tcs * tcs
        dh_out = _to_steps(g.reshape(B, T, 2, H))
        # Each gate's gradient w.r.t. [h | x_t]; when x needs no gradient only
        # the h columns are computed and dx has width 0.
        w_t = (wd if x.requires_grad else wd[:, :, :H]).swapaxes(-1, -2)
        dx = np.empty((T, 2, B, w_t.shape[-1] - H))
        d = np.empty((4, 2, B, H))  # gate pre-activation gradients of one step
        dw = np.zeros_like(wd)
        db = np.zeros((4, 2, H))
        dh_next = np.zeros((2, B, H))
        dc_next = np.zeros((2, B, H))
        for s in range(T - 1, -1, -1):
            dh = dh_out[s] + dh_next
            dc = (dh * o[s]) * dtanh_c[s] + dc_next
            for k, upstream in enumerate((dc, dc, dh, dc)):
                np.multiply(upstream, partner[s, k], out=d[k])
            d *= scale1[s]
            d[:3] *= scale2[s]
            dc_next = dc * f[s]
            dz = d @ w_t
            dz = ((dz[2] + dz[1]) + dz[0]) + dz[3]  # o, f, i, candidate
            dh_next = dz[..., :H]
            dx[s] = dz[..., H:]
            dw += z[s].swapaxes(-1, -2) @ d
            db += d.sum(axis=2)
        x._accum(_to_time(dx).sum(axis=2), own=True)
        w._accum(dw, own=True)
        b._accum(db, own=True)

    out._backward_fn = bwd
    return out


def time_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-timestep affine map (width-1 convolution): (B,T,D) -> (B,T,K)."""
    x = _as_tensor(x)
    B, T, D = x.shape
    if w.shape[0] != D:
        raise ShapeMismatch(f"weight rows {w.shape[0]} != input width {D}")
    flat = reshape(x, (B * T, D))
    return reshape(affine(flat, w, b), (B, T, w.shape[1]))


# --- optimization ---------------------------------------------------------


class Adam:
    """Adam with bias correction; deterministic given the gradient stream."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """Update m, v and each parameter in place. Two scratch buffers, as
        long as the largest parameter, hold every parameter's intermediates
        in turn; they live for one step, so they add nothing to the memory
        held between steps. Each product and quotient is that of
        m += (1 - b1) * g, v += (1 - b2) * g * g and
        p -= lr * m_hat / (sqrt(v_hat) + eps), in that order."""
        self.step_count += 1
        t = self.step_count
        scratch = np.empty((2, max((p.data.size for p in self.params), default=0)))
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            a, c = (buf[: p.data.size].reshape(p.data.shape) for buf in scratch)
            m *= self.beta1
            np.multiply(1 - self.beta1, g, out=a)
            m += a
            v *= self.beta2
            np.multiply(1 - self.beta2, g, out=a)
            a *= g
            v += a
            np.divide(m, 1 - self.beta1**t, out=a)  # m_hat
            a *= self.lr
            np.divide(v, 1 - self.beta2**t, out=c)  # v_hat
            np.sqrt(c, out=c)
            c += self.eps
            a /= c
            p.data -= a


def clip_global_norm(params, max_norm=5.0):
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = np.sqrt(
        sum(float(np.sum(p.grad * p.grad)) for p in params if p.grad is not None)
    )
    if total > max_norm:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return total


# --- verification ---------------------------------------------------------


def finite_difference_check(loss_fn, params, eps=1e-3, floor=1e-6):
    """Max relative error between analytic and central-difference gradients.

    loss_fn() must rebuild the forward pass from the current parameter
    values and return a scalar Tensor. ``floor`` bounds the denominator so
    finite-difference noise on near-zero gradients does not dominate.

    The estimate is the fourth-order five-point stencil
    ``(8(f(x+h) − f(x−h)) − (f(x+2h) − f(x−2h))) / 12h``. Its truncation
    error is O(h⁴), so a step as large as 1e-3 keeps it small, and the
    rounding error of f, which enters as ≈ 1e-16·|f| / h, stays small too.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            f = []
            for step in (eps, -eps, 2 * eps, -2 * eps):
                flat[i] = orig + step
                f.append(float(loss_fn().data))
            flat[i] = orig
            numeric = (8 * (f[0] - f[1]) - (f[2] - f[3])) / (12 * eps)
            denom = max(abs(numeric), abs(gflat[i]), floor)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst
