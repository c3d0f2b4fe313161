"""Inference: embeddings -> masks -> waveforms.

Two paths: K-means clustering of per-bin embeddings into binary masks
(works for any K), and the mask-inference head's ratio mask (fixed M).
Both apply masks to the complex mixture spectrogram, reusing its phase, and
both start from one ``embed_mixture`` (STFT, compress, BLSTM), so a caller
that wants both modes embeds a clip once.

K-means works on the points transposed once to a contiguous (E, N) array.
A point's squared distance to centroid c is ``‖x‖² − g`` with the gain
``g = 2⟨x, c⟩ − ‖c‖²``, so assignment is one (K, E) @ (E, N) GEMM of the
doubled centroids and one subtraction into a reused (K, N) buffer, and the
nearest centroid is the one of highest gain, ties to the lowest index. The
gain is exactly the negated score ``‖c‖² − 2⟨x, c⟩`` of the undoubled GEMM:
doubling scales every product and partial sum by a power of two, which
rounds nothing (short of overflow or subnormals), and rounding commutes
with negation, ``fl(2d − n) = −fl(n − 2d)`` (a zero may change sign, which
no comparison sees). So every comparison, tie and reseed comes out as it
would on the score. Membership is a reused (K, N)
bool array; the centroid update is one GEMM of its float copy with the
points, divided by exact integer counts; and the inertia comes in closed
form from the cluster sums, ``Σ‖x‖² − Σ_k ⟨S_k, c_k⟩``. For K ≤ 2, short of
the rare empty-cluster reseed, no Lloyd iteration allocates an array of N;
for K > 2 each assignment also allocates its running maxima.

Cluster mode holds no whole-field copy beyond the embeddings themselves: it
takes the embedding norms in blocks of ``FRAME_BLOCK`` frames, normalizes
only the energetic rows that K-means fits, and then normalizes and assigns
every bin, block by block, against the fitted centroids. Each row's norm,
and each column of the assignment GEMM, comes out the same in a block as in
the whole field.
"""

from dataclasses import dataclass, replace

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
    (E, N) rows, so an already-chosen point has probability exactly 0. None
    are taken to the last centroid, since nothing would read them."""
    n = points_t.shape[1]
    centroids = np.empty((k, points_t.shape[0]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points_t - centroids[0][:, None]) ** 2).sum(axis=0) if k > 1 else None
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[int(rng.integers(n))]
            continue
        # Inverse-CDF draw on one uniform: the index rng.choice(n, p=d2 / total)
        # returns, without its per-call validation and compensated sum of p.
        cdf = np.cumsum(d2 / total)
        cdf /= cdf[-1]
        centroids[j] = points[int(np.searchsorted(cdf, rng.random(), side="right"))]
        if j < k - 1:
            d2 = np.minimum(d2, ((points_t - centroids[j][:, None]) ** 2).sum(axis=0))
    return centroids


def _assign(points_t, centroids, gain=None, member=None):
    """Nearest centroid for each column of ``points_t`` (E, N).

    Fills and returns the (K, N) gains ``2⟨x, c⟩ − ‖c‖²``, which are ``‖x‖²``
    less the squared distances (one (K, E) @ (E, N) GEMM), and the (K, N)
    bool membership, one True per column. A strict ``>`` over the K rows
    gives ties to the lowest index, as ``argmin`` of the distances does.
    Buffers that are not passed are allocated.
    """
    k, n = len(centroids), points_t.shape[1]
    gain = np.empty((k, n)) if gain is None else gain
    member = np.empty((k, n), dtype=bool) if member is None else member
    np.matmul(2.0 * centroids, points_t, out=gain)
    gain -= (centroids**2).sum(axis=1)[:, None]
    if k == 1:
        member.fill(True)
        return gain, member
    # Row j claims the points where it beats every row before it, and a point
    # belongs to the last row that claims it.
    best = gain[0]
    for j in range(1, k):
        np.greater(gain[j], best, out=member[j])
        if j < k - 1:
            best = np.maximum(best, gain[j])
    taken = member[k - 1]
    for j in range(k - 2, 0, -1):
        np.greater(member[j], taken, out=member[j])  # and not taken by a later row
        taken = np.logical_or(taken, member[j], out=member[0])
    np.logical_not(taken, out=member[0])
    return gain, member


def _labels(member):
    """(N,) cluster indices of a (K, N) bool membership."""
    labels = np.zeros(member.shape[1], dtype=np.intp)
    for j in range(1, len(member)):
        np.copyto(labels, j, where=member[j])
    return labels


def _reseed_empty(points, sq, labels, gain, k):
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
            worst = int(np.argmax(sq - gain[labels, np.arange(len(points))]))
            centroids[j] = points[worst]
            labels[worst] = j
    return centroids, float(((points - centroids[labels]) ** 2).sum())


def _lloyd(points, points_t, sq, centroids, max_iter, gain, onehot):
    """Lloyd iterations from ``centroids``, in the (K, N) buffers ``gain``
    and ``onehot``; returns the (K, N) bool membership, the centroids and
    the inertia history.

    With every cluster populated the inertia is closed-form,
    ``Σ‖x‖² − Σ_k ⟨S_k, c_k⟩`` with ``S_k`` the cluster sums, so it needs no
    per-point pass and repeats exactly for equal partitions. The member
    counts are exact integers, and the last K − 1 rows of a membership fix
    its first, so only those rows are counted and compared."""
    k, n = gain.shape
    total = float(sq.sum())
    member, last = np.empty((k, n), dtype=bool), np.empty((k, n), dtype=bool)
    counts = np.empty(k)
    history = []
    for i in range(max_iter):
        member, last = last, member
        _assign(points_t, centroids, gain, member)
        for j in range(1, k):
            counts[j] = np.count_nonzero(member[j])
        counts[0] = n - counts[1:].sum()
        if counts.all():
            np.copyto(onehot, member)
            sums = onehot @ points
            centroids = sums / counts[:, None]
            # Sorting the K terms makes relabelings of one partition score
            # identically, so ties still go to the lowest restart.
            history.append(total - float(np.sort((sums * centroids).sum(axis=1)).sum()))
        else:
            labels = _labels(member)
            centroids, inertia = _reseed_empty(points, sq, labels, gain, k)
            for j in range(k):
                np.equal(labels, j, out=member[j])
            history.append(inertia)
        if i and not np.not_equal(member[1:], last[1:], out=last[1:]).any():
            break
    return member, centroids, history


def kmeans(points, k, seed=0, restarts=8, max_iter=300) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by
    inertia (ties to the lowest restart index).

    The points are transposed once to a contiguous (E, N) array, so each
    pass over them is one GEMM or one contiguous array op; a point goes to
    the lowest-index centroid among those at equal distance. Every restart
    works in the same (K, N) buffers. A NaN or infinite point is a
    ValueError.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeMismatch(f"expected (N, E) points, got {points.shape}")
    if k < 1 or restarts < 1 or max_iter < 1:
        raise ValueError(f"k={k}, restarts={restarts} and max_iter={max_iter} must be at least 1")
    if len(points) < k:
        raise TooFewPoints(f"{len(points)} points for k={k}")
    if not np.isfinite(points).all():  # k-means++ would draw from a NaN distribution
        raise ValueError("points must be finite")
    points_t = np.ascontiguousarray(points.T)
    sq = (points_t**2).sum(axis=0)
    n = len(points)
    gain, onehot = np.empty((k, n)), np.empty((k, n))
    best = None
    for r in range(restarts):
        rng = rng_for(seed, f"kmeans-restart-{r}")
        centroids = _kmeans_pp_init(points, points_t, k, rng)
        member, centroids, history = _lloyd(points, points_t, sq, centroids, max_iter, gain, onehot)
        if best is None or history[-1] < best[2][-1]:
            best = (member, centroids, history)
    member, centroids, history = best
    return ClusterAssignment(_labels(member), centroids, history[-1], tuple(history))


FRAME_BLOCK = 64  # frames per block of cluster mode's passes over the embedding field


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
    """Apply a ratio mask (entries in [0,1], summing to 1 per bin).

    A bin whose masks sum farther than 1e-9 from 1, or to NaN, raises
    NotNormalized. The check adds the M mask slices in index order, one
    whole-array add per source, where a reduction over the length-M axis
    would run numpy's inner loop once per bin."""
    if masks.shape[:2] != x_spec.shape:
        raise ShapeMismatch(f"masks {masks.shape} vs spec {x_spec.shape}")
    sums = masks[:, :, 0].copy()
    for m in range(1, masks.shape[2]):
        sums += masks[:, :, m]
    sums -= 1.0
    if not np.max(np.abs(sums, out=sums)) <= 1e-9:  # NaN fails too
        raise NotNormalized("ratio mask bins must sum to 1")
    return [istft(x_spec * masks[:, :, m], cfg, length) for m in range(masks.shape[2])]


@dataclass(frozen=True)
class DenoiseResult:
    stems: list  # estimated source Waveforms
    masks: np.ndarray  # (T, F, K or M); binary masks in {-1,+1}, ratio in [0,1]
    mode: str
    low_energy_fraction: float  # share of clustered bins below the energy floor
    assignment: ClusterAssignment = None  # cluster mode only


@dataclass(frozen=True)
class EmbeddedMixture:
    x_spec: np.ndarray  # (T, F) complex STFT of the mixture at the model's rate
    mag: np.ndarray  # (T, F) compressed magnitude, the network's input
    v: np.ndarray  # (T, F, E) per-bin embeddings
    length: int  # samples of the mixture at the model's rate


def embed_mixture(model, mixture: Waveform, cfg: StftConfig = StftConfig()) -> EmbeddedMixture:
    """The shared front of both modes: resample, STFT, compress, embed."""
    if mixture.sample_rate_hz != cfg.sample_rate_hz:
        mixture = resample(mixture, cfg.sample_rate_hz)
    x_spec = stft(mixture, cfg)
    feat = compress(x_spec)
    # Huge finite weights overflow to non-finite embeddings, which each mode
    # reports as NonFiniteEmbedding.
    with np.errstate(over="ignore", invalid="ignore"):
        v = model.forward_embeddings(feat.mag[None]).data[0]
    return EmbeddedMixture(x_spec, feat.mag, v, len(mixture))


def separate_embedded(
    model,
    emb: EmbeddedMixture,
    mode: str = "cluster",
    k: int = 2,
    cfg: StftConfig = StftConfig(),
    seed: int = 0,
    restarts: int = 8,
    low_energy_threshold: float = 0.1,
    max_iter: int = 300,
) -> DenoiseResult:
    """Masks from an embedded mixture, then reconstruction; one embedding
    serves any number of calls, one per mode."""
    T, F, E = emb.v.shape
    low_energy = float(np.mean(emb.mag < low_energy_threshold))
    assignment = None
    if mode == "cluster":
        # Cluster by direction (unit-normalized embeddings), and fit centroids
        # on the energetic bins only: the near-silent majority forms a tight
        # blob that would otherwise dominate the K=2 split.
        n, rows = T * F, FRAME_BLOCK * F
        points = emb.v.reshape(n, E)
        keep = emb.mag.reshape(n) >= low_energy_threshold
        if np.count_nonzero(keep) < k:
            keep[:] = True
        with np.errstate(over="ignore"):  # an overflowing norm is caught below
            norms = np.concatenate([np.linalg.norm(points[lo : lo + rows], axis=1) for lo in range(0, n, rows)])
        bad = int(np.count_nonzero(~np.isfinite(norms)))
        if bad:
            raise NonFiniteEmbedding(f"embedding norm is not finite at {bad} of {n} bins")
        norms += 1e-12
        fit = points[keep]
        fit /= norms[keep, None]
        fitted = kmeans(fit, k, seed=seed, restarts=restarts, max_iter=max_iter)
        del fit
        labels = np.empty(n, dtype=np.intp)
        for lo in range(0, n, rows):
            block = points[lo : lo + rows]
            unit_t = np.divide(block.T, norms[lo : lo + rows], out=np.empty((E, len(block))))
            labels[lo : lo + rows] = _labels(_assign(unit_t, fitted.centroids)[1])
        assignment = replace(fitted, labels=labels)
        masks = masks_from_clusters(assignment, (T, F))
        stems = reconstruct_binary(emb.x_spec, masks, cfg, emb.length)
    elif mode == "mi":
        from . import nn

        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mask is caught below
            masks = model.mi_masks(nn.Tensor(emb.v[None])).data[0]  # (T, F, M)
        finite = np.isfinite(masks)
        if not finite.all():  # a whole-array reduction; one over the M axis is per-bin slow
            bad = int(np.count_nonzero(~finite.all(axis=2)))
            raise NonFiniteEmbedding(f"mask of the embedding is not finite at {bad} of {T * F} bins")
        stems = reconstruct_ratio(emb.x_spec, masks, cfg, emb.length)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'cluster' or 'mi'")
    return DenoiseResult(stems, masks, mode, low_energy, assignment)


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
    return separate_embedded(
        model, embed_mixture(model, mixture, cfg), mode=mode, k=k, cfg=cfg, seed=seed,
        restarts=restarts, low_energy_threshold=low_energy_threshold, max_iter=max_iter,
    )
