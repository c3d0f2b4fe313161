"""Inference: BLSTM output -> masks -> waveforms.

Two paths: K-means clustering of per-bin embeddings into binary masks
(works for any K), and the mask-inference head's ratio mask (fixed M).
Both apply masks to the complex mixture spectrogram, reusing its phase, and
both start from one ``embed_mixture`` (STFT, compress, BLSTM), so a caller
that wants both modes runs the BLSTM on a clip once. ``embed_mixture``
keeps the BLSTM output h (T, 2H), not the (T, F, E) embedding field: cluster
mode builds the field from h a block at a time, and MI mode never builds
it, since the MI head reads h through one composed weight
(``SeparationModel.mi_masks``).

K-means reads the points as one contiguous (E, N) array. A point's squared
distance to centroid c is ``‖x‖² − g`` with the gain ``g = 2⟨x, c⟩ − ‖c‖²``,
so assignment is one GEMM of the doubled centroids and one subtraction, and
the nearest centroid is the one of highest gain. The gain is exactly the
negated score ``‖c‖² − 2⟨x, c⟩`` of the undoubled GEMM: doubling scales
every product and partial sum by a power of two, which rounds nothing
(short of overflow or subnormals), and rounding commutes with negation (a
zero may change sign, which no comparison sees), so every comparison, tie
and reseed comes out as it would on the score. The centroid update is one
GEMM of the float memberships with the transposed points, divided by exact
integer counts.

The restarts run in lockstep groups, each Lloyd step one numpy call on the
group's stacked arrays. A stacked ``np.matmul`` calls BLAS once per restart
with that restart's own operands, so every restart keeps the bits it has
run alone; one (R·K, E) GEMM for the group would not, as its products
differ in the last bits. Only an empty-cluster reseed runs per restart.

Cluster mode never holds the whole embedding field. It builds the field
from h in blocks of ``FRAME_BLOCK`` frames, in two passes. The first keeps
each bin's norm and writes the fit sample (see ``separate_embedded``),
normalized, straight into the (E, N) array that K-means fits; the second
normalizes every bin with the kept norms and labels it with ``_claim``.
Each row of a block's affine, each norm and each column of the assignment
GEMM come out the same in a block as in the whole field.
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
    doubled centroids and their squared norms ‖c‖², (K, E) and (K,) for one
    set or (R, K, E) and (R, K) for R restarts stacked.

    Fills the (K, N) or (R, K, N) ``gain`` with ``2⟨x, c⟩ − ‖c‖²``, which is
    ``‖x‖²`` less the squared distances, and ``rows`` with the last K − 1 rows
    of each bool membership, one True per column. A strict ``>`` over the
    K rows gives ties to the lowest index, as ``argmin`` of the distances
    does. Returns the union of the rows, the negated first row, which for
    K > 2 is taken in ``scratch``, shaped like one row of ``rows``.
    """
    np.matmul(doubled, points_t, out=gain)
    gain -= sq_norms[..., None]
    k = gain.shape[-2]
    if k == 1:
        scratch.fill(False)
        return scratch
    # Row j claims the points where it beats every row before it, and a point
    # belongs to the last row that claims it.
    best = gain[..., 0, :]
    for j in range(1, k):
        np.greater(gain[..., j, :], best, out=rows[..., j - 1, :])
        if j < k - 1:
            best = np.maximum(best, gain[..., j, :])
    taken = rows[..., -1, :]
    for j in range(k - 3, -1, -1):
        row = rows[..., j, :]
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


def _lloyd_lockstep(points_t, sq, centroids, max_iter):
    """Lloyd iterations of R restarts from their (R, K, E) seeds
    ``centroids``, advanced together. Returns ``(rows, centroids,
    histories)`` in restart order, with ``rows`` the (R, K − 1, N) last rows
    of each restart's bool membership, which fix its first.

    Restart a keeps slot a of every stacked array, and ``running`` names the
    restarts still moving: the m of them claim into the first m slots of
    ``claimed`` and of the (R, K, N) float buffer ``work``, which holds the
    gains and then the float memberships, and a restart whose claim equals
    its kept rows sits out the later iterations. With every cluster
    populated the inertia is ``Σ‖x‖² − Σ_k ⟨S_k, c_k⟩`` over the cluster
    sums S_k and exact counts."""
    r, k, _ = centroids.shape
    n = points_t.shape[1]
    total = float(sq.sum())
    centroids, histories, running = centroids.copy(), [[] for _ in range(r)], np.arange(r)
    work = np.empty((r, k, n))
    rows, claimed = (np.empty((r, k - 1, n), dtype=bool) for _ in range(2))
    scratch = np.empty((r, n), dtype=bool)
    for i in range(max_iter):
        m = len(running)
        current = centroids[running]
        doubled, sq_norms = 2.0 * current, (current**2).sum(axis=2)
        taken = _claim(points_t, doubled, sq_norms, work[:m], claimed[:m], scratch[:m])
        work[:m, 1:] = claimed[:m]
        np.logical_not(taken, out=work[:m, 0])  # the first row: the rest's negated union
        counts = work[:m].sum(axis=2)
        sums = np.matmul(work[:m], points_t.T)
        reseeded = {}
        for a in np.flatnonzero(~counts.all(axis=1)):
            labels = _labels(claimed[a])
            gain = np.matmul(doubled[a], points_t) - sq_norms[a][:, None]  # its claim's gains again
            sums[a], reseeded[a] = _reseed_empty(points_t, sq, labels, gain, k)
            counts[a] = 1  # so the means below are the reseeded centroids
            for j in range(1, k):
                np.equal(labels, j, out=claimed[a, j - 1])
        means = sums / counts[:, :, None]
        # Sorting the K terms makes relabelings of one partition score
        # identically, so ties still go to the lowest restart.
        inertia = (total - np.sort((sums * means).sum(axis=2), axis=1).sum(axis=1)).tolist()
        for a, restart in enumerate(running):
            histories[restart].append(reseeded.get(a, inertia[a]))
        # The first claim has no kept rows to compare with.
        moved = (claimed[:m] != rows[running]).any(axis=(1, 2)) if i else slice(None)
        centroids[running], rows[running] = means, claimed[:m]
        running = running[moved]
        if not len(running):
            break
    return rows, centroids, histories


def kmeans(points, k, seed=0, restarts=8, max_iter=300) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by
    inertia, ties to the lowest restart; a point goes to the lowest-index
    centroid among those at equal distance. Restart r is seeded from its
    own ``kmeans-restart-{r}`` stream, and the restarts run in lockstep
    groups of at most ``LOCKSTEP``, so memory does not grow with
    ``restarts``.

    ``points`` is (N, E), read as the contiguous (E, N) array ``points.T``,
    a copy unless it is one already. Points that are not finite, or whose
    squared norms sum past the float range, are a ValueError.
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
    best = None
    for lo in range(0, restarts, LOCKSTEP):
        seeds = np.stack([_kmeans_pp_init(points_t, k, rng_for(seed, f"kmeans-restart-{r}"))
                          for r in range(lo, min(lo + LOCKSTEP, restarts))])
        rows, centroids, histories = _lloyd_lockstep(points_t, sq, seeds, max_iter)
        for a, history in enumerate(histories):
            if best is None or history[-1] < best[2][-1]:
                best = rows[a].copy(), centroids[a], history
    rows, centroids, history = best
    return ClusterAssignment(_labels(rows), centroids, history[-1], tuple(history))


FRAME_BLOCK = 64  # frames per block of cluster mode's passes over the embedding field
FIT_POINTS = 4096  # energetic bins sampled to fit cluster mode's K-means (at least K)


def _row_norms(points):
    """Norms of the rows of an (N, E) array, the squares added column by
    column in index order, as ``kmeans`` adds ‖x‖²."""
    total = points[:, 0] * points[:, 0]
    for col in points.T[1:]:
        total += col * col
    return np.sqrt(total, out=total)


def _field_blocks(model, h, n_freq):
    """Cluster mode's pass over the embedding field of the BLSTM output
    ``h`` (T, 2H), one block of frames at a time: yields the slice of the
    flat bins each block covers and its (rows · F, E) embeddings.

    Blocks are ``FRAME_BLOCK`` frames, and a tail shorter than 7 frames
    joins the block before it. Affines of 7 to 1,000 rows were checked to
    give each row the bits it has in the whole product, but a 1-row block
    takes numpy's matrix–vector path, which differs by up to 2e-14; so only
    T = 1 makes a 1-frame block, and then it is the whole field."""
    starts = list(range(0, len(h), FRAME_BLOCK))
    if len(starts) > 1 and len(h) - starts[-1] < 7:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [len(h)]):
        with np.errstate(over="ignore", invalid="ignore"):  # huge weights: a non-finite norm is caught
            v = model.embed_field(h[None, lo:hi]).data[0]
        yield slice(lo * n_freq, hi * n_freq), v.reshape((hi - lo) * n_freq, v.shape[-1])


def masks_from_clusters(assignment: ClusterAssignment, shape) -> np.ndarray:
    """One-hot {-1, +1} masks, shape (T, F, K), from flat cluster labels: the
    (T, F, K) view of a (K, T, F) array, so each source's mask is contiguous."""
    k = len(assignment.centroids)
    masks = np.where(assignment.labels == np.arange(k)[:, None], 1.0, -1.0)
    return masks.reshape(k, *shape).transpose(1, 2, 0)


def _masked_stems(x_spec: np.ndarray, masks: np.ndarray, cfg: StftConfig, length: int, apply):
    """Inverse STFT of ``apply(X, masks[:, :, k])`` per source k, each
    source's masked spectrum formed and dropped in turn. Untraced, and no
    reconstructor calls another, so a traced reconstructor call is one span."""
    if masks.shape[:2] != x_spec.shape:
        raise ShapeMismatch(f"masks {masks.shape} vs spec {x_spec.shape}")
    return [istft(apply(x_spec, masks[:, :, k]), cfg, length) for k in range(masks.shape[2])]


def reconstruct_binary(x_spec: np.ndarray, masks: np.ndarray, cfg: StftConfig, length: int):
    """Apply S_hat = X * 0.5 * (mask + 1) per cluster, then inverse STFT. X is
    halved first, so S_hat keeps that product's signed zeros and subnormals."""
    return _masked_stems(x_spec, masks, cfg, length, lambda x, m: x * 0.5 * (m + 1.0))


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
    return _masked_stems(x_spec, masks, cfg, length, np.multiply)


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
    calls, one per mode.

    Cluster mode fits K-means on a seeded sample of at most
    ``max(FIT_POINTS, k)`` energetic bins (every one when there are no more)
    and then labels every bin against the fitted centroids; the result's
    ``assignment.labels`` cover every bin, while ``assignment.inertia`` and
    its history are taken over the fit sample."""
    T, F = emb.mag.shape
    below = emb.mag < low_energy_threshold
    low_energy = float(np.mean(below))
    assignment = None
    if mode == "cluster":
        # Cluster by direction (unit-normalized embeddings), and fit centroids
        # on the energetic bins only: the near-silent majority forms a tight
        # blob that would otherwise dominate the K=2 split.
        n, E = T * F, model.config.embed_dim
        fit = np.flatnonzero(~below)
        if len(fit) < k:
            fit = np.arange(n)
        cap = max(FIT_POINTS, k)
        if len(fit) > cap:  # fit on a seeded sample, kept in flat order
            fit = np.sort(rng_for(seed, "kmeans-fit").choice(fit, cap, replace=False))
        norms, fit_t, at = np.empty(n), np.empty((E, len(fit))), 0
        for bins, points in _field_blocks(model, emb.h, F):
            end = int(np.searchsorted(fit, bins.stop))
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is caught below
                np.add(_row_norms(points), 1e-12, out=norms[bins])
                chosen = fit[at:end]
                np.divide(points[chosen - bins.start].T, norms[chosen], out=fit_t[:, at:end])
            at = end
        bad = int(np.count_nonzero(~np.isfinite(norms)))
        if bad:
            raise NonFiniteEmbedding(f"embedding norm is not finite at {bad} of {n} bins")
        fitted = kmeans(fit_t.T, k, seed=seed, restarts=restarts, max_iter=max_iter)
        del fit_t
        doubled, sq_norms = 2.0 * fitted.centroids, (fitted.centroids**2).sum(axis=1)
        labels = np.empty(n, dtype=np.intp)
        for bins, points in _field_blocks(model, emb.h, F):
            rows = len(points)
            unit_t = np.divide(points.T, norms[bins], out=np.empty((E, rows)))
            member = np.empty((k - 1, rows), dtype=bool)
            _claim(unit_t, doubled, sq_norms, np.empty((k, rows)), member, np.empty(rows, dtype=bool))
            labels[bins] = _labels(member)
        del norms  # not held through reconstruction, the peak of a long clip
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
