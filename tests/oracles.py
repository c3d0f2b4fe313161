"""Slow, obviously-correct references that the fast code is tested against."""

import math

import numpy as np

from scesep import nn
from scesep.dsp import WINDOW_SUM_FLOOR, StftConfig, Waveform, hann_window
from scesep.errors import NegativeInput
from scesep.inference import ClusterAssignment
from scesep.seeding import rng_for
from scesep.snmf import EPS_MASK, EPS_UPDATE, Dictionary, SnmfConfig, _normalize_columns


def sce_loss_oracle(v_i: np.ndarray, v_o: np.ndarray, y: np.ndarray) -> float:
    """Naive five-nested-loop scalar reference for model.sce_loss."""
    B, T, F, E = v_i.shape
    M = v_o.shape[1]
    total = 0.0
    for b in range(B):
        for t in range(T):
            for f in range(F):
                for m in range(M):
                    dot = 0.0
                    for e in range(E):
                        dot += v_i[b, t, f, e] * v_o[b, m, e]
                    z = y[b, t, f, m] * dot
                    total += -math.log(1.0 / (1.0 + math.exp(-z))) / M
    return total / B


# --- tape ops with numpy reductions and copied first gradients --------------


def accum_copy_oracle(self, g, own=False):
    """Reference for nn.Tensor._accum: a first gradient is always copied."""
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.empty_like(self.data)
        np.copyto(self.grad, g)
    else:
        self.grad += g


def unbroadcast_sum_oracle(g, shape):
    """Reference for nn._unbroadcast: every reduction by ndarray.sum."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def softmax_reduce_oracle(a, axis=-1):
    """Reference for nn.softmax: the axis max and sums by numpy reductions."""
    a = nn._as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    out = nn.Tensor(s, parents=(a,))
    out._backward_fn = lambda g: a._accum(s * (g - (g * s).sum(axis=axis, keepdims=True)))
    return out


def log_sigmoid_two_pass_oracle(a):
    """Reference for nn.log_sigmoid: log1p(exp(-|x|)) taken once per branch."""
    a = nn._as_tensor(a)
    x = a.data
    ls = np.where(x > 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))
    out = nn.Tensor(ls, parents=(a,))
    out._backward_fn = lambda g: a._accum(g / (1.0 + np.exp(x)))
    return out


def affine_add_matmul_oracle(x, w, b):
    """Reference for nn.affine: the product and the bias sum as two tape nodes."""
    return nn.add(nn.matmul(x, w), b)


def adam_step_oracle(opt):
    """Reference for nn.Adam.step: every intermediate a fresh array."""
    opt.step_count += 1
    t = opt.step_count
    for p, m, v in zip(opt.params, opt.m, opt.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= opt.beta1
        m += (1 - opt.beta1) * g
        v *= opt.beta2
        v += (1 - opt.beta2) * g * g
        m_hat = m / (1 - opt.beta1**t)
        v_hat = v / (1 - opt.beta2**t)
        p.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


# --- STFT frames gathered by index; inverse STFT one frame at a time ---------


def stft_gather_oracle(w: Waveform, cfg: StftConfig) -> np.ndarray:
    """Reference for dsp.stft: the reflect-padded frames gathered through a
    (T, window_len) index array."""
    x = np.pad(w.samples, cfg.hop // 2, mode="reflect")
    T = (len(x) - cfg.window_len) // cfg.hop + 1
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop * np.arange(T)[:, None]
    return np.fft.rfft(x[idx] * hann_window(cfg.window_len), n=cfg.window_len, axis=1)


def istft_loop_oracle(s, cfg: StftConfig, length: int) -> Waveform:
    """Reference for dsp.istft: frames overlap-added in a loop over time,
    normalized through boolean-mask gathers and scatters by the window sum
    floored at ``WINDOW_SUM_FLOOR``, the leading hop/2 samples dropped and
    the rest fitted to ``length``."""
    T = s.shape[0]
    win = hann_window(cfg.window_len)
    frames = np.fft.irfft(s, n=cfg.window_len, axis=1) * win
    n = (T - 1) * cfg.hop + cfg.window_len
    y = np.zeros(n)
    wsum = np.zeros(n)
    for t in range(T):
        start = t * cfg.hop
        y[start : start + cfg.window_len] += frames[t]
        wsum[start : start + cfg.window_len] += win * win
    low = wsum < WINDOW_SUM_FLOOR
    y[~low] /= wsum[~low]
    y[low] /= WINDOW_SUM_FLOOR
    y = y[cfg.hop // 2 :]
    y = np.pad(y, (0, length - len(y))) if len(y) < length else y[:length]
    return Waveform(y, cfg.sample_rate_hz)


# --- the LSTM unrolled on the generic tape, one timestep at a time -----------


def sigmoid(a):
    """Tape op for 1 / (1 + exp(-a)); the fused LSTM computes its gates inline."""
    a = nn._as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = nn.Tensor(s, parents=(a,))
    out._backward_fn = lambda g: a._accum(g * s * (1.0 - s))
    return out


def tanh(a):
    """Tape op for tanh(a); the fused LSTM computes its candidate and tanh(c) inline."""
    a = nn._as_tensor(a)
    h = np.tanh(a.data)
    return nn.Tensor(h, parents=(a,), backward_fn=lambda g: a._accum(g * (1.0 - h * h), own=True))


def _concat(tensors, axis):
    out = nn.Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accum(g[tuple(idx)])

    out._backward_fn = bwd
    return out


def _time_slice(x, t):
    out = nn.Tensor(x.data[:, t, :], parents=(x,))

    def bwd(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[:, t, :] += g

    out._backward_fn = bwd
    return out


def _stack_time(tensors):
    out = nn.Tensor(np.stack([t.data for t in tensors], axis=1), parents=tuple(tensors))

    def bwd(g):
        for t_idx, t in enumerate(tensors):
            t._accum(g[:, t_idx, :])

    out._backward_fn = bwd
    return out


def _gate(p, k, d):
    """p[k, d] of a gate-stacked BLSTM parameter, as its own tape node whose
    gradient is added into that slice of p."""
    out = nn.Tensor(p.data[k, d], parents=(p,))

    def bwd(g):
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        p.grad[k, d] += g

    out._backward_fn = bwd
    return out


def lstm_unrolled_oracle(x: nn.Tensor, w: nn.Parameter, b: nn.Parameter, direction: int = 0) -> nn.Tensor:
    """One LSTM direction of a BLSTM layer's (4, 2, H + D_in, H) weight and
    (4, 2, H) bias over (B, T, D_in), recorded op by op on the tape.

    direction=1 processes reversed time and re-reverses the output.
    """
    if direction not in (0, 1):
        raise ValueError("direction must be 0 (forward time) or 1 (reversed time)")
    B, T, _ = x.shape
    H = w.shape[-1]
    w_i, w_f, w_o, w_c = (_gate(w, k, direction) for k in range(4))
    b_i, b_f, b_o, b_c = (_gate(b, k, direction) for k in range(4))
    h = nn.Tensor(np.zeros((B, H)))
    c = nn.Tensor(np.zeros((B, H)))
    times = range(T) if direction == 0 else range(T - 1, -1, -1)
    outs = [None] * T
    for t in times:
        z = _concat([h, _time_slice(x, t)], axis=1)
        i = sigmoid(nn.add(nn.matmul(z, w_i), b_i))
        f = sigmoid(nn.add(nn.matmul(z, w_f), b_f))
        o = sigmoid(nn.add(nn.matmul(z, w_o), b_o))
        g = tanh(nn.add(nn.matmul(z, w_c), b_c))
        c = nn.add(nn.mul(f, c), nn.mul(i, g))
        h = nn.mul(o, tanh(c))
        outs[t] = h
    return _stack_time(outs)


def blstm_unrolled_oracle(x: nn.Tensor, w, b) -> nn.Tensor:
    """Reference for nn.blstm_layer: both unrolled directions, features joined."""
    return _concat([lstm_unrolled_oracle(x, w, b, 0), lstm_unrolled_oracle(x, w, b, 1)], axis=2)


# --- K-means with broadcast (N, K, E) distances -------------------------------


def _kmeans_pp_init_broadcast(points, k, rng):
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[int(rng.integers(n))]
            continue
        probs = d2 / total
        centroids[j] = points[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd_broadcast(points, centroids, max_iter):
    labels = None
    history = []
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for j in range(len(centroids)):
            members = points[new_labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster with the worst-fit point.
                worst = int(np.argmax(d2[np.arange(len(points)), new_labels]))
                centroids[j] = points[worst]
                new_labels[worst] = j
        history.append(float(((points - centroids[new_labels]) ** 2).sum()))
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels, centroids, history


def kmeans_broadcast_oracle(points, k, seed=0, restarts=8, max_iter=300) -> ClusterAssignment:
    """Reference for inference.kmeans: exact distances from an (N, K, E)
    broadcast, ``argmin`` labels, boolean-mask means and exact inertia."""
    points = np.asarray(points, dtype=np.float64)
    best = None
    for r in range(restarts):
        rng = rng_for(seed, f"kmeans-restart-{r}")
        centroids = _kmeans_pp_init_broadcast(points, k, rng)
        labels, centroids, history = _lloyd_broadcast(points, centroids, max_iter)
        if best is None or history[-1] < best.inertia:
            best = ClusterAssignment(labels, centroids, history[-1], tuple(history))
    return best


# --- K-means with fresh (K, N) scores, labels and one-hot per iteration -------


def kmeans_pp_init_choice_oracle(points, points_t, k, rng):
    """Reference for inference._kmeans_pp_init: each centroid after the first
    drawn by ``rng.choice(n, p=d2 / total)``."""
    n = points_t.shape[1]
    centroids = np.empty((k, points_t.shape[0]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points_t - centroids[0][:, None]) ** 2).sum(axis=0)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[int(rng.integers(n))]
            continue
        probs = d2 / total
        centroids[j] = points[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((points_t - centroids[j][:, None]) ** 2).sum(axis=0))
    return centroids


def assign_score_oracle(points_t, centroids):
    """Labels and (K, N) scores ``‖c‖² − 2⟨x, c⟩`` (squared distances less
    ``‖x‖²``) for the columns of ``points_t`` (E, N); ties to the lowest index."""
    score = centroids @ points_t
    score *= -2.0
    score += (centroids**2).sum(axis=1)[:, None]
    labels = np.zeros(points_t.shape[1], dtype=np.intp)
    best = score[0]
    for j in range(1, len(centroids)):
        np.maximum(labels, (score[j] < best) * j, out=labels)
        best = np.minimum(best, score[j])
    return labels, score


def _reseed_empty_score(points_t, sq, labels, score, k):
    centroids = np.empty((k, len(points_t)))
    for j in range(k):
        members = labels == j
        if members.any():
            centroids[j] = points_t[:, members].mean(axis=1)
        else:
            worst = int(np.argmax(score[labels, np.arange(len(labels))] + sq))
            centroids[j] = points_t[:, worst]
            labels[worst] = j
    return centroids, float(((points_t - centroids.T[:, labels]) ** 2).sum())


def _lloyd_score(points_t, sq, centroids, max_iter):
    k = len(centroids)
    total = float(sq.sum())
    labels = None
    history = []
    for _ in range(max_iter):
        new_labels, score = assign_score_oracle(points_t, centroids)
        onehot = (new_labels == np.arange(k)[:, None]).astype(np.float64)
        counts = onehot.sum(axis=1)
        if counts.all():
            sums = onehot @ points_t.T
            centroids = sums / counts[:, None]
            history.append(total - float(np.sort((sums * centroids).sum(axis=1)).sum()))
        else:
            centroids, inertia = _reseed_empty_score(points_t, sq, new_labels, score, k)
            history.append(inertia)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels, centroids, history


def kmeans_score_restarts(points, k, seed=0, restarts=8, max_iter=300):
    """Bit-exact reference for inference.kmeans: the same GEMMs and sums in
    the same order, written plainly, each restart run to its end on its
    own, one after another; a list of ClusterAssignment, one per restart,
    of which ``kmeans_best_restart`` picks the result. Each Lloyd iteration
    takes the (K, N) scores ``‖c‖² − 2⟨x, c⟩``, integer labels by a running
    minimum and a one-hot cast from them, each a fresh array; k-means++
    takes distances to every centroid it draws, the last one included."""
    points = np.asarray(points, dtype=np.float64)
    points_t = np.ascontiguousarray(points.T)
    sq = (points_t**2).sum(axis=0)
    runs = []
    for r in range(restarts):
        rng = rng_for(seed, f"kmeans-restart-{r}")
        centroids = kmeans_pp_init_choice_oracle(points, points_t, k, rng)
        labels, centroids, history = _lloyd_score(points_t, sq, centroids, max_iter)
        runs.append(ClusterAssignment(labels, centroids, history[-1], tuple(history)))
    return runs


def kmeans_best_restart(runs):
    """Index of the restart a scan in restart order keeps, replacing its
    pick only on strictly lower inertia."""
    best = 0
    for r, run in enumerate(runs):
        if run.inertia < runs[best].inertia:
            best = r
    return best


# --- SNMF with the objective and updates taken on the (F, N) product WH -------


def _snmf_objective_direct(v, w, h, mu):
    return 0.5 * float(np.sum((v - w @ h) ** 2)) + mu * float(np.sum(np.abs(h)))


def snmf_fit_oracle(training_mags, cfg: SnmfConfig = SnmfConfig(), class_id: int = 0, seed: int = 0):
    """Reference for snmf.fit_dictionary: the objective from the full residual
    V - WH and the W-update denominator as (WH)Hᵀ."""
    v = np.concatenate([np.asarray(m) for m in training_mags], axis=0).T  # (F, N)
    if np.any(v < 0):
        raise NegativeInput("magnitudes must be nonnegative")
    rng = rng_for(seed, f"snmf-init-{class_id}")
    f_bins, n = v.shape
    w = np.abs(rng.standard_normal((f_bins, cfg.rank)))
    h = np.abs(rng.standard_normal((cfg.rank, n)))
    w, h = _normalize_columns(w, h)
    mu = cfg.sparsity
    history = [_snmf_objective_direct(v, w, h, mu)]
    for _ in range(cfg.max_iters):
        h *= (w.T @ v) / (w.T @ w @ h + mu + EPS_UPDATE)
        w *= (v @ h.T) / (w @ h @ h.T + EPS_UPDATE)
        w, h = _normalize_columns(w, h)
        history.append(_snmf_objective_direct(v, w, h, mu))
        if abs(history[-2] - history[-1]) <= cfg.tol * max(abs(history[-2]), 1e-30):
            break
    return Dictionary(w, class_id), history


def snmf_separate_oracle(x_mag, dicts, cfg: SnmfConfig = SnmfConfig(), seed: int = 0):
    """Reference for snmf.separate: WᵀV, WᵀW and the full residual taken anew
    on every iteration. Returns (masks (T, F, S), H-updates run)."""
    v = np.asarray(x_mag).T  # (F, T)
    if np.any(v < 0):
        raise NegativeInput("magnitudes must be nonnegative")
    w = np.hstack([d.w for d in dicts])
    rng = rng_for(seed, "snmf-separate")
    h = np.abs(rng.standard_normal((w.shape[1], v.shape[1])))
    mu = cfg.sparsity
    prev = _snmf_objective_direct(v, w, h, mu)
    n_iters = 0
    for _ in range(cfg.max_iters):
        h *= (w.T @ v) / (w.T @ w @ h + mu + EPS_UPDATE)
        n_iters += 1
        cur = _snmf_objective_direct(v, w, h, mu)
        if abs(prev - cur) <= cfg.tol * max(abs(prev), 1e-30):
            break
        prev = cur
    recons = []
    lo = 0
    for d in dicts:
        hi = lo + d.w.shape[1]
        recons.append(d.w @ h[lo:hi])  # (F, T)
        lo = hi
    total = np.sum(recons, axis=0) + len(dicts) * EPS_MASK
    masks = np.stack([(r + EPS_MASK) / total for r in recons], axis=-1)  # (F, T, S)
    masks[..., -1] = 1.0 - masks[..., :-1].sum(axis=-1)
    return np.transpose(masks, (1, 0, 2)), n_iters
