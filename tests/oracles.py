"""Slow, obviously-correct references that the fast code is tested against."""

import math

import numpy as np

from scesep import nn
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


# --- the LSTM unrolled on the generic tape, one timestep at a time -----------


def sigmoid(a):
    """Tape op for 1 / (1 + exp(-a)); the fused LSTM computes its gates inline."""
    a = nn._as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = nn.Tensor(s, parents=(a,))
    out._backward_fn = lambda g: a._accum(g * s * (1.0 - s))
    return out


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


def lstm_unrolled_oracle(x: nn.Tensor, p: nn.LstmCellParams, direction: str = "fwd") -> nn.Tensor:
    """One LSTM direction over (B, T, D_in), recorded op by op on the tape.

    direction="bwd" processes reversed time and re-reverses the output.
    """
    if direction not in ("fwd", "bwd"):
        raise ValueError("direction must be 'fwd' or 'bwd'")
    B, T, _ = x.shape
    H = p.hidden
    h = nn.Tensor(np.zeros((B, H)))
    c = nn.Tensor(np.zeros((B, H)))
    times = range(T) if direction == "fwd" else range(T - 1, -1, -1)
    outs = [None] * T
    for t in times:
        z = _concat([h, _time_slice(x, t)], axis=1)
        i = sigmoid(nn.add(nn.matmul(z, p.w_input), p.b_input))
        f = sigmoid(nn.add(nn.matmul(z, p.w_forget), p.b_forget))
        o = sigmoid(nn.add(nn.matmul(z, p.w_output), p.b_output))
        g = nn.tanh(nn.add(nn.matmul(z, p.w_candidate), p.b_candidate))
        c = nn.add(nn.mul(f, c), nn.mul(i, g))
        h = nn.mul(o, nn.tanh(c))
        outs[t] = h
    return _stack_time(outs)


def blstm_unrolled_oracle(x: nn.Tensor, p_fwd, p_bwd) -> nn.Tensor:
    """Reference for nn.blstm_layer: both unrolled directions, features joined."""
    return _concat([lstm_unrolled_oracle(x, p_fwd, "fwd"), lstm_unrolled_oracle(x, p_bwd, "bwd")], axis=2)


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
