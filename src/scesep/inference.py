"""Inference: embeddings -> masks -> waveforms.

Two paths: K-means clustering of per-bin embeddings into binary masks
(works for any K), and the mask-inference head's ratio mask (fixed M).
Both apply masks to the complex mixture spectrogram, reusing its phase.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import StftConfig, Waveform, compress, istft, resample, stft
from .errors import NotNormalized, ShapeMismatch, TooFewPoints
from .seeding import rng_for


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray  # (N,) ints in [0, K)
    centroids: np.ndarray  # (K, E)
    inertia: float
    inertia_history: tuple  # per-Lloyd-iteration inertia of the winning restart


def _kmeans_pp_init(points, k, rng):
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


def _lloyd(points, centroids, max_iter):
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
        history.append(
            float(((points - centroids[new_labels]) ** 2).sum())
        )
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels, centroids, history


def kmeans(points, k, seed=0, restarts=8, max_iter=300) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by
    inertia (ties to the lowest restart index)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeMismatch(f"expected (N, E) points, got {points.shape}")
    if len(points) < k:
        raise TooFewPoints(f"{len(points)} points for k={k}")
    if restarts < 1 or max_iter < 1:
        raise ValueError(f"restarts={restarts} and max_iter={max_iter} must be at least 1")
    best = None
    for r in range(restarts):
        rng = rng_for(seed, f"kmeans-restart-{r}")
        centroids = _kmeans_pp_init(points, k, rng)
        labels, centroids, history = _lloyd(points, centroids, max_iter)
        if best is None or history[-1] < best.inertia:
            best = ClusterAssignment(labels, centroids, history[-1], tuple(history))
    return best


def masks_from_clusters(assignment: ClusterAssignment, shape) -> np.ndarray:
    """One-hot {-1, +1} masks, shape (T, F, K), from flat cluster labels."""
    T, F = shape
    k = len(assignment.centroids)
    y = -np.ones((T * F, k))
    y[np.arange(T * F), assignment.labels] = 1.0
    return y.reshape(T, F, k)


def reconstruct_binary(x_spec: np.ndarray, masks: np.ndarray, cfg: StftConfig, trim=True, length=None):
    """Apply S_hat = X * (mask + 1) / 2 per cluster, then inverse STFT."""
    if masks.shape[:2] != x_spec.shape:
        raise ShapeMismatch(f"masks {masks.shape} vs spec {x_spec.shape}")
    out = []
    for k in range(masks.shape[2]):
        s_hat = x_spec * 0.5 * (masks[:, :, k] + 1.0)
        out.append(istft(s_hat, cfg, trim=trim, length=length))
    return out


def reconstruct_ratio(x_spec: np.ndarray, masks: np.ndarray, cfg: StftConfig, trim=True, length=None):
    """Apply a ratio mask (entries in [0,1], summing to 1 per bin)."""
    if masks.shape[:2] != x_spec.shape:
        raise ShapeMismatch(f"masks {masks.shape} vs spec {x_spec.shape}")
    sums = masks.sum(axis=2)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise NotNormalized("ratio mask bins must sum to 1")
    return [
        istft(x_spec * masks[:, :, m], cfg, trim=trim, length=length)
        for m in range(masks.shape[2])
    ]


@dataclass(frozen=True)
class DenoiseResult:
    stems: list  # estimated source Waveforms
    masks: np.ndarray  # (T, F, K or M); binary masks in {-1,+1}, ratio in [0,1]
    mode: str
    low_energy_fraction: float  # share of clustered bins below the energy floor
    assignment: ClusterAssignment = None  # cluster mode only


def denoise(
    model,
    mixture: Waveform,
    mode: str = "cluster",
    k: int = 2,
    cfg: StftConfig = StftConfig(),
    seed: int = 0,
    restarts: int = 8,
    low_energy_threshold: float = 0.1,
    max_iter: int = 300,
) -> DenoiseResult:
    """Full pipeline: STFT, compress, embed, mask, reconstruct.

    The source table is never consulted; only the embedding field (and,
    for "mi", the mask head) are used, so any K works in cluster mode.
    """
    if mixture.sample_rate_hz != cfg.sample_rate_hz:
        mixture = resample(mixture, cfg.sample_rate_hz)
    x_spec = stft(mixture, cfg, pad=True)
    feat = compress(x_spec)
    v_i = model.forward_embeddings(feat.mag[None]).data[0]  # (T, F, E)
    T, F, E = v_i.shape
    low_energy = float(np.mean(feat.mag < low_energy_threshold))
    assignment = None
    if mode == "cluster":
        # Cluster by direction (unit-normalized embeddings), and fit centroids
        # on the energetic bins only: the near-silent majority forms a tight
        # blob that would otherwise dominate the K=2 split.
        points = v_i.reshape(T * F, E)
        points = points / (np.linalg.norm(points, axis=1, keepdims=True) + 1e-12)
        keep = feat.mag.reshape(T * F) >= low_energy_threshold
        fit_points = points[keep] if int(keep.sum()) >= k else points
        fitted = kmeans(fit_points, k, seed=seed, restarts=restarts, max_iter=max_iter)
        dists = ((points[:, None, :] - fitted.centroids[None]) ** 2).sum(axis=2)
        assignment = ClusterAssignment(
            np.argmin(dists, axis=1),
            fitted.centroids,
            fitted.inertia,
            fitted.inertia_history,
        )
        masks = masks_from_clusters(assignment, (T, F))
        stems = reconstruct_binary(x_spec, masks, cfg, length=len(mixture))
    elif mode == "mi":
        from . import nn

        masks = model.mi_masks(nn.Tensor(v_i[None])).data[0]  # (T, F, M)
        stems = reconstruct_ratio(x_spec, masks, cfg, length=len(mixture))
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'cluster' or 'mi'")
    return DenoiseResult(stems, masks, mode, low_energy, assignment)
