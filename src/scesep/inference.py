"""Inference: BLSTM output -> masks -> waveforms.

Two paths: K-means clustering of per-bin embeddings into binary masks
(works for any K), and the mask-inference head's ratio mask (fixed M).
Both apply masks to the complex mixture spectrogram, reusing its phase, and
both start from one ``embed_mixture`` (STFT, compress, BLSTM), so a caller
that wants both modes runs the BLSTM on a clip once. ``embed_mixture``
keeps the BLSTM output h (T, 2H), not the (T, F, E) embedding field: cluster
mode builds the field from h, and MI mode never builds it, since the MI
head reads h through one composed weight (``SeparationModel.mi_masks``).
The embedding carries the ``StftConfig`` it was framed with, and
``separate_embedded`` reconstructs with it; ``denoise`` is
``embed_mixture`` then ``separate_embedded``, to which it forwards its
options.

K-means reads the points in one layout, a contiguous (E, N) array.
A point's squared distance to centroid c is ``‖x‖² − g`` with the gain
``g = 2⟨x, c⟩ − ‖c‖²``, so assignment is one (K, E) @ (E, N) GEMM of the
doubled centroids and one subtraction into a reused (K, N) buffer, and the
nearest centroid is the one of highest gain, ties to the lowest index. The
gain is exactly the negated score ``‖c‖² − 2⟨x, c⟩`` of the undoubled GEMM:
doubling scales every product and partial sum by a power of two, which
rounds nothing (short of overflow or subnormals), and rounding commutes
with negation, ``fl(2d − n) = −fl(n − 2d)`` (a zero may change sign, which
no comparison sees). So every comparison, tie and reseed comes out as it
would on the score. The centroid update is one GEMM of a float copy of the
(K, N) bool membership with the transposed points, divided by exact integer
counts, and the inertia comes in closed form from the cluster sums,
``Σ‖x‖² − Σ_k ⟨S_k, c_k⟩``.

The restarts run in lockstep, up to ``LOCKSTEP`` at a time, one Lloyd
iteration at a time. What touches N-sized data runs per restart, in one
pass over the restarts, with the operands of a restart run alone, so every
restart keeps its bits: its two GEMMs, its claims, its member counts and
any empty-cluster reseed (with its own gains), in a (K, N) gain buffer and
a (K, N) float membership that every restart and iteration reuses; then
each restart's new rows are compared with its last ones, into an N-vector
every restart reuses. What works on (K, E)-sized arrays runs once per
iteration for all of them, on (R, K, E) and (R, K) arrays: the doubled
centroids and ‖c‖² terms, the means and the sorted-term inertia. Lockstep
holds, per restart, two sets of its last K − 1 membership rows (N bools
each), which fix the first. A converged restart sits out the later
iterations in place, its rows, sums and counts untouched, and once the
group ends, a scan in restart order keeps the best. For K ≤ 2, short of
the rare empty-cluster reseed, no Lloyd iteration allocates an array of N;
for K > 2 each assignment also allocates its running maxima.
k-means++ takes its distances row by row into N-vectors, with no (E, N)
temporary.

Cluster mode builds the embedding field from h and holds no whole-field
copy beyond it: it takes the embedding norms in blocks of ``FRAME_BLOCK``
frames, normalizes only the energetic rows that K-means fits, and then
normalizes and assigns every bin, block by block, with ``_claim`` against
the fitted centroids, doubled and squared once per clip. Each row's norm, and each column of the
assignment GEMM, comes out the same in a block as in the whole field.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dsp import StftConfig, Waveform, compress, istft, resample, stft
from .errors import NonFiniteEmbedding, NotNormalized, ShapeMismatch, TooFewPoints
from .seeding import rng_for

LOCKSTEP = 8  # restarts advanced together, the default kmeans_restarts


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray  # (N,) ints in [0, K)
    centroids: np.ndarray  # (K, E)
    inertia: float
    inertia_history: tuple  # per-Lloyd-iteration inertia of the winning restart


def _sq_dist(points_t, c, out, term):
    """Squared distances of the columns of ``points_t`` (E, N) to ``c``,
    into ``out``: ``(x_e − c_e)²`` added row by row, the additions of
    ``((points_t − c[:, None]) ** 2).sum(axis=0)`` in its order, without its
    (E, N) temporary. ``term`` is an N-vector of scratch."""
    np.subtract(points_t[0], c[0], out=out)
    out *= out
    for row, c_e in zip(points_t[1:], c[1:]):
        np.subtract(row, c_e, out=term)
        term *= term
        out += term
    return out


def _kmeans_pp_init(points_t, k, rng):
    """k-means++ seeding of (K, E) centroids from the (E, N) columns. Distances
    are exact, ``Σ (x - c)²`` over the rows, so an already-chosen point has
    probability exactly 0. None are taken to the last centroid."""
    n = points_t.shape[1]
    centroids = np.empty((k, points_t.shape[0]))
    centroids[0] = points_t[:, int(rng.integers(n))]
    if k == 1:
        return centroids
    term, dist = np.empty(n), np.empty(n)
    d2 = _sq_dist(points_t, centroids[0], np.empty(n), term)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points_t[:, int(rng.integers(n))]
            continue
        # Inverse-CDF draw on one uniform: the index rng.choice(n, p=d2 / total)
        # returns, without its per-call validation and compensated sum of p.
        cdf = np.cumsum(d2 / total)
        cdf /= cdf[-1]
        centroids[j] = points_t[:, int(np.searchsorted(cdf, rng.random(), side="right"))]
        if j < k - 1:
            np.minimum(d2, _sq_dist(points_t, centroids[j], dist, term), out=d2)
    return centroids


def _claim(points_t, doubled, sq_norms, gain, rows, scratch):
    """Nearest centroid for each column of ``points_t`` (E, N), from the
    doubled (K, E) centroids and their squared norms ‖c‖².

    Fills the (K, N) ``gain`` with ``2⟨x, c⟩ − ‖c‖²``, which is ``‖x‖²``
    less the squared distances (one (K, E) @ (E, N) GEMM), and ``rows`` with
    the last K − 1 rows of the (K, N) bool membership, one True per column.
    A strict ``>`` over the K rows gives ties to the lowest index, as
    ``argmin`` of the distances does. Returns the union of ``rows``, the
    negated first row, which for K > 2 is taken in the N-vector ``scratch``.
    """
    np.matmul(doubled, points_t, out=gain)
    gain -= sq_norms[:, None]
    if len(rows) == 0:
        scratch.fill(False)
        return scratch
    # Row j claims the points where it beats every row before it, and a point
    # belongs to the last row that claims it.
    best = gain[0]
    for j in range(1, len(gain)):
        np.greater(gain[j], best, out=rows[j - 1])
        if j < len(rows):
            best = np.maximum(best, gain[j])
    taken = rows[-1]
    for row in rows[-2::-1]:
        np.greater(row, taken, out=row)  # and not taken by a later row
        taken = np.logical_or(taken, row, out=scratch)
    return taken


def _labels(rows):
    """(N,) cluster indices from the last K − 1 rows of a (K, N) bool
    membership, which fix its first."""
    labels = np.zeros(rows.shape[1], dtype=np.intp)
    for j, row in enumerate(rows, 1):
        np.copyto(labels, j, where=row)
    return labels


def _reseed_empty(points_t, sq, labels, gain, k):
    """Centroid update when a cluster came out empty: in cluster order, a
    populated cluster takes its members' mean and an empty one takes the
    worst-fit point (by true squared distance to its current centroid),
    which moves to it. Returns the centroids and the exact inertia."""
    centroids = np.empty((k, len(points_t)))
    for j in range(k):
        members = labels == j
        if members.any():
            centroids[j] = points_t[:, members].mean(axis=1)
        else:
            worst = int(np.argmax(sq - gain[labels, np.arange(len(labels))]))
            centroids[j] = points_t[:, worst]
            labels[worst] = j
    return centroids, float(((points_t - centroids.T[:, labels]) ** 2).sum())


def _lloyd_lockstep(points_t, sq, centroids, max_iter, gain, scratch, onehot):
    """Lloyd iterations of R restarts from their (R, K, E) seeds
    ``centroids``, advanced together in the (K, N) buffers ``gain`` and
    ``onehot`` and the N-vector of bools ``scratch``. Returns ``(rows,
    centroids, histories)`` in restart order, with ``rows`` the (R, K − 1, N)
    last rows of each restart's bool membership.

    A restart that has converged sits out the later iterations in place: its
    two sets of rows are equal and never written again, and its sums and
    counts do not change, so the means taken for all give back its centroids.
    With every cluster populated the inertia is closed-form,
    ``Σ‖x‖² − Σ_k ⟨S_k, c_k⟩`` with ``S_k`` the cluster sums, so it needs no
    per-point pass and repeats exactly for equal partitions. The member
    counts are exact integers, and the last K − 1 rows of a membership fix
    its first, so only those rows are counted, compared and kept."""
    _, k, _ = centroids.shape
    n = points_t.shape[1]
    total = float(sq.sum())
    running = list(range(len(centroids)))
    histories = [[] for _ in running]
    rows, last = (np.empty((len(running), k - 1, n), dtype=bool) for _ in range(2))
    sums, counts = np.empty_like(centroids), np.empty(centroids.shape[:2])
    for i in range(max_iter):
        rows, last = last, rows
        doubled, sq_norms = 2.0 * centroids, (centroids**2).sum(axis=2)
        reseeded = {}
        for a in running:
            taken = _claim(points_t, doubled[a], sq_norms[a], gain, rows[a], scratch)
            count = [np.count_nonzero(row) for row in rows[a]]
            count.insert(0, n - sum(count))
            if all(count):
                np.copyto(onehot[1:], rows[a])
                np.logical_not(taken, out=onehot[0])  # the first row: the rest's negated union
                np.matmul(onehot, points_t.T, out=sums[a])
            else:
                labels = _labels(rows[a])
                sums[a], reseeded[a] = _reseed_empty(points_t, sq, labels, gain, k)
                count = 1  # so the means below are the reseeded centroids
                for j in range(1, k):
                    np.equal(labels, j, out=rows[a, j - 1])
            counts[a] = count
        centroids = sums / counts[:, :, None]
        # Sorting the K terms makes relabelings of one partition score
        # identically, so ties still go to the lowest restart.
        inertia = (total - np.sort((sums * centroids).sum(axis=2), axis=1).sum(axis=1)).tolist()
        for a in running:
            histories[a].append(reseeded.get(a, inertia[a]))
        if i:  # into ``scratch``: both buffers must keep a sat-out restart's rows
            running = [a for a in running if any(np.not_equal(row, prev, out=scratch).any()
                                                 for row, prev in zip(rows[a], last[a]))]
            if not running:
                break
    return rows, centroids, histories


def kmeans(points, k, seed=0, restarts=8, max_iter=300) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by
    inertia: a scan in restart order keeps a restart only on strictly lower
    inertia, so ties go to the lowest restart index.

    ``points`` is (N, E), and K-means reads it only as a contiguous (E, N)
    array: ``points.T`` as it is when that is contiguous, as for the
    transpose of an (E, N) array, else a copy. Restart r is seeded from its
    own ``kmeans-restart-{r}`` stream. The restarts run in lockstep groups
    of at most ``LOCKSTEP`` (see the module docstring), each with the bits
    of a restart run alone, so memory does not grow with ``restarts``
    beyond ``LOCKSTEP``. A point goes to the lowest-index centroid among
    those at equal distance. Points that are not finite, or whose squared
    norms sum past the float range, are a ValueError.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeMismatch(f"expected (N, E) points, got {points.shape}")
    if k < 1 or restarts < 1 or max_iter < 1:
        raise ValueError(f"k={k}, restarts={restarts} and max_iter={max_iter} must be at least 1")
    if len(points) < k:
        raise TooFewPoints(f"{len(points)} points for k={k}")
    points_t = np.ascontiguousarray(points.T)
    with np.errstate(over="ignore"):  # an overflowing square or sum is rejected below
        sq = (points_t**2).sum(axis=0)
        finite = np.isfinite(sq.sum())
    # k-means++ would draw from a NaN distribution, and Lloyd from overflowing gains.
    if not finite:
        raise ValueError("points must be finite, and so must the sum of their squared norms")
    n = len(points)
    gain, scratch, onehot = np.empty((k, n)), np.empty(n, dtype=bool), np.empty((k, n))
    best = None
    for lo in range(0, restarts, LOCKSTEP):
        seeds = np.stack([_kmeans_pp_init(points_t, k, rng_for(seed, f"kmeans-restart-{r}"))
                          for r in range(lo, min(lo + LOCKSTEP, restarts))])
        rows, centroids, histories = _lloyd_lockstep(points_t, sq, seeds, max_iter, gain, scratch, onehot)
        for a, history in enumerate(histories):
            if best is None or history[-1] < best[2][-1]:
                best = rows[a].copy(), centroids[a], history
    rows, centroids, history = best
    return ClusterAssignment(_labels(rows), centroids, history[-1], tuple(history))


FRAME_BLOCK = 64  # frames per block of cluster mode's passes over the embedding field


def masks_from_clusters(assignment: ClusterAssignment, shape) -> np.ndarray:
    """One-hot {-1, +1} masks, shape (T, F, K), from flat cluster labels."""
    T, F = shape
    k = len(assignment.centroids)
    y = -np.ones((T * F, k))
    y[np.arange(T * F), assignment.labels] = 1.0
    return y.reshape(T, F, k)


def _masked_stems(x_spec: np.ndarray, gains: np.ndarray, cfg: StftConfig, length: int):
    """Inverse STFT of X * gains[:, :, k] per source k. Untraced, and no
    reconstructor calls another, so a traced reconstructor call is one span."""
    if gains.shape[:2] != x_spec.shape:
        raise ShapeMismatch(f"masks {gains.shape} vs spec {x_spec.shape}")
    return [istft(x_spec * gains[:, :, k], cfg, length) for k in range(gains.shape[2])]


def reconstruct_binary(x_spec: np.ndarray, masks: np.ndarray, cfg: StftConfig, length: int):
    """Apply S_hat = X * 0.5 * (mask + 1) per cluster, then inverse STFT. X is
    halved first, so S_hat keeps that product's signed zeros and subnormals."""
    return _masked_stems(x_spec * 0.5, masks + 1.0, cfg, length)


def reconstruct_ratio(x_spec: np.ndarray, masks: np.ndarray, cfg: StftConfig, length: int):
    """Apply a ratio mask (entries in [0,1], summing to 1 per bin).

    A bin whose masks sum farther than 1e-9 from 1, or to NaN, raises
    NotNormalized. The check adds the M mask slices in index order, one
    whole-array add per source, where a reduction over the length-M axis
    would run numpy's inner loop once per bin."""
    sums = masks[:, :, 0].copy()
    for m in range(1, masks.shape[2]):
        sums += masks[:, :, m]
    sums -= 1.0
    if not np.max(np.abs(sums, out=sums)) <= 1e-9:  # NaN fails too
        raise NotNormalized("ratio mask bins must sum to 1")
    return _masked_stems(x_spec, masks, cfg, length)


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
    h: np.ndarray  # (T, 2H) BLSTM output, from which the per-bin embeddings and MI logits follow
    length: int  # samples of the mixture at the model's rate
    cfg: StftConfig  # the framing x_spec was taken with, which reconstruction inverts


def embed_mixture(model, mixture: Waveform, cfg: StftConfig = StftConfig()) -> EmbeddedMixture:
    """The shared front of both modes: resample, STFT, compress, BLSTM."""
    if mixture.sample_rate_hz != cfg.sample_rate_hz:
        mixture = resample(mixture, cfg.sample_rate_hz)
    x_spec = stft(mixture, cfg)
    feat = compress(x_spec)
    # Huge finite weights overflow to non-finite embeddings, which each mode
    # reports as NonFiniteEmbedding.
    with np.errstate(over="ignore", invalid="ignore"):
        h = model.forward_embeddings(feat.mag[None]).data[0]
    return EmbeddedMixture(x_spec, feat.mag, h, len(mixture), cfg)


def separate_embedded(
    model,
    emb: EmbeddedMixture,
    mode: str = "cluster",
    k: int = 2,
    seed: int = 0,
    restarts: int = 8,
    low_energy_threshold: float = 0.1,
    max_iter: int = 300,
) -> DenoiseResult:
    """Masks from an embedded mixture, then reconstruction with the
    embedding's own framing ``emb.cfg``; one embedding serves any number of
    calls, one per mode."""
    T, F = emb.mag.shape
    low_energy = float(np.mean(emb.mag < low_energy_threshold))
    assignment = None
    if mode == "cluster":
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is caught below
            v = model.embed_field(emb.h[None]).data[0]  # (T, F, E)
        # Cluster by direction (unit-normalized embeddings), and fit centroids
        # on the energetic bins only: the near-silent majority forms a tight
        # blob that would otherwise dominate the K=2 split.
        E = v.shape[2]
        n, rows = T * F, FRAME_BLOCK * F
        points = v.reshape(n, E)
        keep = emb.mag.reshape(n) >= low_energy_threshold
        if np.count_nonzero(keep) < k:
            keep[:] = True
        with np.errstate(over="ignore"):  # an overflowing norm is caught below
            norms = np.concatenate([np.linalg.norm(points[lo : lo + rows], axis=1) for lo in range(0, n, rows)])
        bad = int(np.count_nonzero(~np.isfinite(norms)))
        if bad:
            raise NonFiniteEmbedding(f"embedding norm is not finite at {bad} of {n} bins")
        norms += 1e-12
        fit_t = np.divide(points[keep].T, norms[keep], out=np.empty((E, np.count_nonzero(keep))))
        fitted = kmeans(fit_t.T, k, seed=seed, restarts=restarts, max_iter=max_iter)
        del fit_t
        doubled, sq_norms = 2.0 * fitted.centroids, (fitted.centroids**2).sum(axis=1)
        labels = np.empty(n, dtype=np.intp)
        for lo in range(0, n, rows):
            block = points[lo : lo + rows]
            unit_t = np.divide(block.T, norms[lo : lo + rows], out=np.empty((E, len(block))))
            member = np.empty((k - 1, len(block)), dtype=bool)
            _claim(unit_t, doubled, sq_norms, np.empty((k, len(block))), member, np.empty(len(block), dtype=bool))
            labels[lo : lo + rows] = _labels(member)
        assignment = replace(fitted, labels=labels)
        masks = masks_from_clusters(assignment, (T, F))
        stems = reconstruct_binary(emb.x_spec, masks, emb.cfg, emb.length)
    elif mode == "mi":
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mask is caught below
            masks = model.mi_masks(emb.h[None]).data[0]  # (T, F, M), from h: no field is built
        finite = np.isfinite(masks)
        if not finite.all():  # a whole-array reduction; one over the M axis is per-bin slow
            bad = int(np.count_nonzero(~finite.all(axis=2)))
            raise NonFiniteEmbedding(f"mask of the embedding is not finite at {bad} of {T * F} bins")
        stems = reconstruct_ratio(emb.x_spec, masks, emb.cfg, emb.length)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'cluster' or 'mi'")
    return DenoiseResult(stems, masks, mode, low_energy, assignment)


def denoise(model, mixture: Waveform, cfg: StftConfig = StftConfig(), **options) -> DenoiseResult:
    """Full pipeline: ``embed_mixture`` (STFT, compress, embed) at ``cfg``,
    then ``separate_embedded`` with the keyword ``options``.

    The source table is never consulted; only the embedding field (cluster
    mode) or the mask head (MI mode) is used, so any K works in cluster mode.
    """
    return separate_embedded(model, embed_mixture(model, mixture, cfg), **options)
