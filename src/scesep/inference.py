"""Inference: embeddings -> masks -> waveforms.

Two paths: K-means clustering of per-bin embeddings into binary masks
(works for any K), and the mask-inference head's ratio mask (fixed M).
Both apply masks to the complex mixture spectrogram, reusing its phase.

K-means works on the points transposed once to a contiguous (E, N) array.
A point's squared distance to centroid c is ``‖x‖² − 2⟨x, c⟩ + ‖c‖²``, so
assignment is one (K, E) @ (E, N) GEMM, with ties to the lowest centroid
index; the centroid update is a (K, N) one-hot GEMM; and the inertia comes
in closed form from the cluster sums, ``Σ‖x‖² − Σ_k ⟨S_k, c_k⟩``.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import StftConfig, Waveform, compress, istft, resample, stft
from .errors import NonFiniteEmbedding, NotNormalized, ShapeMismatch, TooFewPoints
from .seeding import rng_for


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray  # (N,) ints in [0, K)
    centroids: np.ndarray  # (K, E)
    inertia: float
    inertia_history: tuple  # per-Lloyd-iteration inertia of the winning restart


def _kmeans_pp_init(points, points_t, k, rng):
    """k-means++ seeding. Distances are exact, ``Σ (x - c)²`` over the
    (E, N) rows, so an already-chosen point has probability exactly 0."""
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


def _assign(points_t, centroids):
    """Nearest centroid for each column of ``points_t`` (E, N).

    Returns the labels and the (K, N) scores ``‖c‖² − 2⟨x, c⟩``, which are
    the squared distances less ``‖x‖²``: one (K, E) @ (E, N) GEMM. A strict
    ``<`` over the K rows gives ties to the lowest index, as ``argmin`` does.
    """
    score = centroids @ points_t
    score *= -2.0
    score += (centroids**2).sum(axis=1)[:, None]
    labels = np.zeros(points_t.shape[1], dtype=np.intp)
    best = score[0]
    for j in range(1, len(centroids)):
        # j exceeds every label so far, so the max writes j exactly where
        # row j is closer; unlike a masked write it does not branch per point.
        np.maximum(labels, (score[j] < best) * j, out=labels)
        best = np.minimum(best, score[j])
    return labels, score


def _reseed_empty(points, sq, labels, score, k):
    """Centroid update when a cluster came out empty: in cluster order, a
    populated cluster takes its members' mean and an empty one takes the
    worst-fit point (by true squared distance to its current centroid),
    which moves to it. Returns the centroids and the exact inertia."""
    centroids = np.empty((k, points.shape[1]))
    for j in range(k):
        members = labels == j
        if members.any():
            centroids[j] = points[members].mean(axis=0)
        else:
            worst = int(np.argmax(score[labels, np.arange(len(points))] + sq))
            centroids[j] = points[worst]
            labels[worst] = j
    return centroids, float(((points - centroids[labels]) ** 2).sum())


def _lloyd(points, points_t, sq, centroids, max_iter):
    """Lloyd iterations from ``centroids``. With every cluster populated the
    inertia is closed-form, ``Σ‖x‖² − Σ_k ⟨S_k, c_k⟩`` with ``S_k`` the
    cluster sums, so it needs no per-point pass and repeats exactly for
    equal partitions."""
    k = len(centroids)
    total = float(sq.sum())
    labels = None
    history = []
    for _ in range(max_iter):
        new_labels, score = _assign(points_t, centroids)
        onehot = (new_labels == np.arange(k)[:, None]).astype(np.float64)
        counts = onehot.sum(axis=1)
        if counts.all():
            sums = onehot @ points
            centroids = sums / counts[:, None]
            # Sorting the K terms makes relabelings of one partition score
            # identically, so ties still go to the lowest restart.
            history.append(total - float(np.sort((sums * centroids).sum(axis=1)).sum()))
        else:
            centroids, inertia = _reseed_empty(points, sq, new_labels, score, k)
            history.append(inertia)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels, centroids, history


def kmeans(points, k, seed=0, restarts=8, max_iter=300) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by
    inertia (ties to the lowest restart index).

    The points are transposed once to a contiguous (E, N) array, so each
    pass over them is one GEMM or one contiguous array op; a point goes to
    the lowest-index centroid among those at equal distance.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeMismatch(f"expected (N, E) points, got {points.shape}")
    if len(points) < k:
        raise TooFewPoints(f"{len(points)} points for k={k}")
    if restarts < 1 or max_iter < 1:
        raise ValueError(f"restarts={restarts} and max_iter={max_iter} must be at least 1")
    points_t = np.ascontiguousarray(points.T)
    sq = (points_t**2).sum(axis=0)
    best = None
    for r in range(restarts):
        rng = rng_for(seed, f"kmeans-restart-{r}")
        centroids = _kmeans_pp_init(points, points_t, k, rng)
        labels, centroids, history = _lloyd(points, points_t, sq, centroids, max_iter)
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


def reconstruct_binary(x_spec: np.ndarray, masks: np.ndarray, cfg: StftConfig, length: int):
    """Apply S_hat = X * (mask + 1) / 2 per cluster, then inverse STFT."""
    if masks.shape[:2] != x_spec.shape:
        raise ShapeMismatch(f"masks {masks.shape} vs spec {x_spec.shape}")
    out = []
    for k in range(masks.shape[2]):
        s_hat = x_spec * 0.5 * (masks[:, :, k] + 1.0)
        out.append(istft(s_hat, cfg, length))
    return out


def reconstruct_ratio(x_spec: np.ndarray, masks: np.ndarray, cfg: StftConfig, length: int):
    """Apply a ratio mask (entries in [0,1], summing to 1 per bin)."""
    if masks.shape[:2] != x_spec.shape:
        raise ShapeMismatch(f"masks {masks.shape} vs spec {x_spec.shape}")
    sums = masks.sum(axis=2)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise NotNormalized("ratio mask bins must sum to 1")
    return [istft(x_spec * masks[:, :, m], cfg, length) for m in range(masks.shape[2])]


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
    x_spec = stft(mixture, cfg)
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
        with np.errstate(over="ignore"):  # an overflowing norm is caught below
            norms = np.linalg.norm(points, axis=1, keepdims=True)
        bad = int(np.count_nonzero(~np.isfinite(norms)))
        if bad:
            raise NonFiniteEmbedding(f"embedding norm is not finite at {bad} of {T * F} bins")
        points = points / (norms + 1e-12)
        keep = feat.mag.reshape(T * F) >= low_energy_threshold
        fit_points = points[keep] if int(keep.sum()) >= k else points
        fitted = kmeans(fit_points, k, seed=seed, restarts=restarts, max_iter=max_iter)
        labels, _ = _assign(np.ascontiguousarray(points.T), fitted.centroids)
        assignment = ClusterAssignment(
            labels,
            fitted.centroids,
            fitted.inertia,
            fitted.inertia_history,
        )
        masks = masks_from_clusters(assignment, (T, F))
        stems = reconstruct_binary(x_spec, masks, cfg, len(mixture))
    elif mode == "mi":
        from . import nn

        masks = model.mi_masks(nn.Tensor(v_i[None])).data[0]  # (T, F, M)
        stems = reconstruct_ratio(x_spec, masks, cfg, len(mixture))
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'cluster' or 'mi'")
    return DenoiseResult(stems, masks, mode, low_energy, assignment)
