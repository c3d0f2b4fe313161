"""Sparse nonnegative matrix factorization baseline.

Per-class spectral dictionaries are fit on compressed magnitudes with
multiplicative updates minimizing 0.5*||V - WH||_F^2 + mu*||H||_1;
separation solves activations over the concatenated dictionaries and
turns per-class reconstructions into ratio masks.

Both loops work in Gram form (Lee & Seung 2001) and build no (F, N)
product per iteration. The H-update is H *= WᵀV / (WᵀW H + mu), the
W-update is W *= V Hᵀ / (W (H Hᵀ)), and the objective is
0.5*(||V||² - 2<WᵀV, H> + <WᵀW H, H>) + mu*sum(H), with ||V||² taken once
per call. WᵀW H serves both the objective at H and the next H-update's
denominator. In `separate` W is fixed, so WᵀV and WᵀW are taken once.
"""

from dataclasses import dataclass

import numpy as np

from .container import MAGIC_NMF, read_container, require, write_container
from .errors import AllTrimmed, CorruptCheckpoint, NegativeInput
from .seeding import rng_for

EPS_MASK = 1e-12
EPS_UPDATE = 1e-12


@dataclass(frozen=True)
class SnmfConfig:
    rank: int = 32
    sparsity: float = 0.1  # mu
    max_iters: int = 200
    tol: float = 1e-5  # relative objective change
    trim_threshold: float = -2.0  # log10 relative to global max

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"snmf_rank must be >= 1, got {self.rank}")
        if self.sparsity < 0:
            raise ValueError(f"snmf_sparsity must be >= 0, got {self.sparsity}")
        # trim_silence keeps frames above the threshold, and the loudest is at 0.
        if self.trim_threshold >= 0:
            raise ValueError(
                f"trim_threshold must be < 0 (log10 relative to the loudest frame), "
                f"got {self.trim_threshold}"
            )


@dataclass(frozen=True)
class Dictionary:
    w: np.ndarray  # (F, R), columns unit-l2
    class_id: int


def trim_silence(mag: np.ndarray, threshold: float = SnmfConfig.trim_threshold) -> np.ndarray:
    """Drop frames whose per-frame peak falls below a log threshold
    relative to the global maximum. Order preserved."""
    mag = np.asarray(mag)
    if mag.size == 0:
        raise AllTrimmed("empty spectrogram")
    peaks = mag.max(axis=1)
    global_max = peaks.max()
    if global_max <= 0:
        raise AllTrimmed("all-silent spectrogram")
    with np.errstate(divide="ignore"):
        rel = np.log10(np.where(peaks > 0, peaks / global_max, 0.0))
    keep = rel > threshold
    if not keep.any():
        raise AllTrimmed("threshold removed every frame")
    return mag[keep]


def _gram_objective(vv, wtv, wtw, h, mu):
    """(WᵀW H, objective at (W, H)) from ||V||², WᵀV and WᵀW; H >= 0."""
    g = wtw @ h
    fit = vv - 2.0 * float(np.sum(wtv * h)) + float(np.sum(g * h))
    return g, 0.5 * fit + mu * float(np.sum(h))


def _normalize_columns(w, h):
    # Rescale H so WH is unchanged by the column renormalization.
    norms = np.linalg.norm(w, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    return w / norms, h * norms[:, None]


def fit_dictionary(
    training_mags,
    cfg: SnmfConfig = SnmfConfig(),
    class_id: int = 0,
    seed: int = 0,
):
    """Fit one class dictionary by alternating multiplicative updates.

    Returns (Dictionary, objective history); the objective is
    non-increasing across updates up to rounding.
    """
    v = np.concatenate([np.asarray(m) for m in training_mags], axis=0).T  # (F, N)
    if np.any(v < 0):
        raise NegativeInput("magnitudes must be nonnegative")
    rng = rng_for(seed, f"snmf-init-{class_id}")
    f_bins, n = v.shape
    w = np.abs(rng.standard_normal((f_bins, cfg.rank)))
    h = np.abs(rng.standard_normal((cfg.rank, n)))
    w, h = _normalize_columns(w, h)
    mu = cfg.sparsity
    vv = float(np.sum(v * v))
    wtv = w.T @ v
    g, obj = _gram_objective(vv, wtv, w.T @ w, h, mu)
    history = [obj]
    for _ in range(cfg.max_iters):
        h *= wtv / (g + mu + EPS_UPDATE)
        w *= (v @ h.T) / (w @ (h @ h.T) + EPS_UPDATE)
        w, h = _normalize_columns(w, h)
        wtv = w.T @ v
        g, obj = _gram_objective(vv, wtv, w.T @ w, h, mu)
        history.append(obj)
        if abs(history[-2] - history[-1]) <= cfg.tol * max(abs(history[-2]), 1e-30):
            break
    return Dictionary(w, class_id), history


def separate(x_mag: np.ndarray, dicts, cfg: SnmfConfig = SnmfConfig(), seed: int = 0):
    """Ratio masks (T, F, len(dicts)) from activations over fixed
    concatenated dictionaries (H-updates only)."""
    v = np.asarray(x_mag).T  # (F, T)
    if np.any(v < 0):
        raise NegativeInput("magnitudes must be nonnegative")
    w = np.hstack([d.w for d in dicts])
    rng = rng_for(seed, "snmf-separate")
    h = np.abs(rng.standard_normal((w.shape[1], v.shape[1])))
    mu = cfg.sparsity
    vv = float(np.sum(v * v))
    wtv, wtw = w.T @ v, w.T @ w
    g, prev = _gram_objective(vv, wtv, wtw, h, mu)
    for _ in range(cfg.max_iters):
        h *= wtv / (g + mu + EPS_UPDATE)
        g, cur = _gram_objective(vv, wtv, wtw, h, mu)
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
    # make each bin an exact partition: last channel takes the residual
    masks[..., -1] = 1.0 - masks[..., :-1].sum(axis=-1)
    return np.transpose(masks, (1, 0, 2))  # (T, F, S)


def save_dictionary(path, d: Dictionary) -> None:
    write_container(path, MAGIC_NMF, {"class_id": d.class_id}, {"w": d.w})


def load_dictionary(path) -> Dictionary:
    meta, tensors = read_container(path, MAGIC_NMF)
    w = require(path, tensors, "w")
    # Saved columns are nonnegative with unit l2 norm, so every entry is in
    # [0, 1]; this also rejects NaN and inf.
    if w.ndim != 2 or not np.all((w >= 0) & (w <= 1)):
        raise CorruptCheckpoint(f"{path}: dictionary 'w' must be a matrix with entries in [0, 1]")
    return Dictionary(w, require(path, meta, "class_id", int))
