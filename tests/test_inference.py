import tracemalloc

import numpy as np
import pytest
from oracles import (
    assign_score_oracle,
    kmeans_best_restart,
    kmeans_broadcast_oracle,
    kmeans_pp_init_choice_oracle,
    kmeans_score_restarts,
    reconstruct_binary_oracle,
)

from scesep import inference
from scesep.dsp import StftConfig, Waveform, istft, resample, stft
from scesep.errors import NotNormalized, ShapeMismatch, TooFewPoints
from scesep.inference import (
    ClusterAssignment,
    _claim,
    _labels,
    denoise,
    embed_mixture,
    kmeans,
    masks_from_clusters,
    reconstruct_binary,
    reconstruct_ratio,
    separate_embedded,
)
from scesep.model import ModelConfig, SeparationModel
from scesep.seeding import rng_for

CFG = StftConfig()


def claim_all(points_t, centroids):
    """The (K, N) gains and the whole (K, N) bool membership, first row
    included, that ``_claim`` gives for the columns of ``points_t``."""
    k, n = len(centroids), points_t.shape[1]
    gain, member = np.empty((k, n)), np.empty((k, n), dtype=bool)
    taken = _claim(points_t, 2.0 * centroids, (centroids**2).sum(axis=1), gain, member[1:], member[0])
    np.logical_not(taken, out=member[0])
    return gain, member


def blobs(seed=0, centers=((0, 0), (10, 10), (-10, 10)), per=40, spread=0.5):
    rng = np.random.default_rng(seed)
    pts, truth = [], []
    for i, c in enumerate(centers):
        pts.append(np.asarray(c) + spread * rng.standard_normal((per, len(c))))
        truth.extend([i] * per)
    return np.concatenate(pts), np.asarray(truth)


def unit_points(seed, n=15000, e=8, spread=1.0):
    """Two noisy directions, unit-normalized: the shape of the embeddings
    that denoise clusters."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((2, e))
    pts = dirs[rng.integers(0, 2, n)] + spread * rng.standard_normal((n, e))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def exact_inertia(points, a):
    return float(((points - a.centroids[a.labels]) ** 2).sum())


ORACLE_CASES = {
    "blobs": (lambda: blobs()[0], 3, 1),
    "blobs-wide": (lambda: blobs(seed=2, spread=3.0)[0], 3, 3),
    "blobs-k2": (lambda: blobs(seed=6, spread=4.0)[0], 2, 7),
    "unit-8d": (lambda: unit_points(12), 2, 13),
    "unit-8d-k3": (lambda: unit_points(14, spread=2.0), 3, 15),
}


class TestKmeans:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_broadcast_oracle(self, case):
        make, k, seed = ORACLE_CASES[case]
        pts = make()
        a = kmeans(pts, k, seed=seed)
        b = kmeans_broadcast_oracle(pts, k, seed=seed)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.centroids, b.centroids, rtol=0, atol=1e-12)
        # the oracle's history is exact, Σ‖x − c_label‖² at every iteration
        assert len(a.inertia_history) == len(b.inertia_history)
        np.testing.assert_allclose(a.inertia_history, b.inertia_history, rtol=1e-9)
        assert a.inertia == a.inertia_history[-1]
        np.testing.assert_allclose(a.inertia, exact_inertia(pts, a), rtol=1e-9)

    def test_empty_cluster_reseeded(self):
        # Duplicates leave k-means++ no spread to pick a third centroid, so it
        # duplicates one; every bin ties and goes to the lower index, leaving
        # a cluster empty on each iteration until the reseed fills it.
        pts = np.array([[0.0, 0.0]] * 6 + [[1.0, 0.0]] * 2)
        a = kmeans(pts, 3, seed=0, restarts=4)
        b = kmeans_broadcast_oracle(pts, 3, seed=0, restarts=4)
        assert set(a.labels) == {0, 1, 2}
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia_history == b.inertia_history
        assert a.inertia == exact_inertia(pts, a)
        masks = masks_from_clusters(a, (2, 4))
        np.testing.assert_array_equal(((masks + 1.0) / 2.0).sum(axis=2), 1.0)

    def test_ties_go_to_lowest_index(self):
        centroids = np.array([[0.0, 5.0], [1.0, 0.0], [-1.0, 0.0]])
        pts = np.array([[0.0, 0.0], [0.0, -2.0], [0.0, 3.0], [2.0, 0.0], [-2.0, 0.0]])
        gain, member = claim_all(np.ascontiguousarray(pts.T), centroids)
        np.testing.assert_array_equal(member.sum(axis=0), 1)
        labels = _labels(member[1:])
        np.testing.assert_array_equal(labels, [1, 1, 0, 1, 2])
        d2 = ((pts[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(labels, np.argmin(d2, axis=1))
        np.testing.assert_allclose((pts**2).sum(axis=1) - gain, d2.T, atol=1e-12)

    def test_recovers_separated_blobs(self):
        pts, truth = blobs()
        a = kmeans(pts, 3, seed=1)
        # labels must be a relabeling of the truth
        mapping = {}
        for lab, t in zip(a.labels, truth):
            assert mapping.setdefault(lab, t) == t
        assert len(mapping) == 3

    def test_inertia_history_non_increasing(self):
        pts, _ = blobs(seed=2, spread=3.0)
        a = kmeans(pts, 3, seed=3)
        hist = np.asarray(a.inertia_history)
        assert np.all(np.diff(hist) <= 1e-10)
        assert a.inertia == hist[-1]

    def test_deterministic(self):
        pts, _ = blobs(seed=4)
        a = kmeans(pts, 3, seed=5)
        b = kmeans(pts, 3, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_restarts_never_hurt(self):
        pts, _ = blobs(seed=6, spread=4.0)
        one = kmeans(pts, 3, seed=7, restarts=1)
        many = kmeans(pts, 3, seed=7, restarts=8)
        assert many.inertia <= one.inertia + 1e-12

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            kmeans(np.zeros((1, 2)), 2)

    def test_bad_rank(self):
        with pytest.raises(ShapeMismatch):
            kmeans(np.zeros(10), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts, _ = blobs(seed=8)
        pts[5, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans(pts, 2)

    # Finite points whose squared norms overflow (1e160 and up), or whose
    # squared norms are finite but overflow in their sum (1e153).
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e153, 1e160, 1e200, 1e300])
    def test_overflowing_squared_norms_rejected(self, scale):
        pts = np.random.default_rng(12).standard_normal((300, 4)) * scale
        assert np.isfinite(pts).all()
        with pytest.raises(ValueError, match="sum of their squared norms"):
            kmeans(pts, 2, restarts=5)

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"max_iter": 0}, {"k": 0}])
    def test_no_iterations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            kmeans(np.zeros((4, 2)), **{"k": 2, **kwargs})

    def test_all_clusters_populated(self):
        pts, _ = blobs(seed=8, per=10)
        a = kmeans(pts, 3, seed=9)
        assert set(a.labels) == {0, 1, 2}

    def test_centroids_are_cluster_means(self):
        pts, _ = blobs(seed=10)
        a = kmeans(pts, 3, seed=11)
        for j in range(3):
            np.testing.assert_allclose(
                a.centroids[j], pts[a.labels == j].mean(axis=0), atol=1e-9
            )


def integer_points(seed, n, e, k, low=-2, high=3):
    """Points on a small integer grid: many exact distance ties."""
    return np.random.default_rng(seed).integers(low, high, (n, e)).astype(np.float64), k


def repeated_points(seed, n, e, k, distinct=3):
    """Fewer distinct points than clusters, so k-means++ draws duplicate
    centroids and Lloyd must reseed the empty clusters."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((distinct, e))[rng.integers(0, distinct, n)], k


# Fourteen points on a 6 × 6 grid. At K = 5 and seed 611, restart 2 alone
# reseeds an empty cluster (on its second of three iterations); restarts 0,
# 1 and 3 stop after two iterations and restart 4 after three.
MIDDLE_RESEED = np.array(
    [[4, 2], [1, 5], [0, 4], [2, 1], [4, 0], [0, 0], [2, 1],
     [2, 4], [1, 5], [5, 2], [5, 4], [1, 1], [1, 4], [2, 5]],
    dtype=np.float64,
)

# name: (points and K, seed, max_iter, reseeds, restarts)
EXACT_CASES = {
    "k1": (lambda: (np.random.default_rng(20).standard_normal((500, 4)), 1), 21, 300, False, 8),
    "k2-n-equals-k": (lambda: (np.array([[0.0, 1.0], [2.0, -1.0]]), 2), 22, 300, False, 8),
    "k2-unit-15k": (lambda: (unit_points(23, n=15000), 2), 24, 300, False, 8),
    "k3-unit": (lambda: (unit_points(25, n=4000, spread=2.0), 3), 26, 300, False, 8),
    "k5-n-equals-k": (lambda: (np.random.default_rng(27).standard_normal((5, 3)), 5), 28, 300, False, 8),
    "k2-integer-ties": (lambda: integer_points(29, 3000, 2, 2), 30, 300, False, 8),
    "k3-integer-ties": (lambda: integer_points(31, 2000, 3, 3), 32, 300, False, 8),
    "k5-integer-ties": (lambda: integer_points(33, 5000, 2, 5, 0, 2), 34, 300, True, 8),
    "k3-reseed": (lambda: (np.array([[0.0, 0.0]] * 6 + [[1.0, 0.0]] * 2), 3), 0, 300, True, 8),
    "k5-reseed": (lambda: repeated_points(35, 600, 4, 5), 36, 300, True, 8),
    "k3-max-iter-cap": (lambda: (unit_points(37, n=3000, spread=2.0), 3), 38, 2, False, 8),
    # Restart counts around the lockstep group of 8.
    "k2-unit-restarts-1": (lambda: (unit_points(41, n=3000), 2), 42, 300, False, 1),
    "k3-unit-restarts-3": (lambda: (unit_points(43, n=3000, spread=2.0), 3), 44, 300, False, 3),
    "k2-unit-restarts-11": (lambda: (unit_points(45, n=3000, spread=2.5), 2), 46, 300, False, 11),
    "k3-integer-ties-restarts-11": (lambda: integer_points(47, 1500, 3, 3), 48, 300, False, 11),
    "k2-max-iter-1": (lambda: (unit_points(49, n=2000, spread=2.0), 2), 50, 1, False, 8),
    "k3-max-iter-1-restarts-11": (lambda: (unit_points(51, n=2000, spread=2.0), 3), 52, 1, False, 11),
    "k5-middle-reseed-restarts-5": (lambda: (MIDDLE_RESEED, 5), 611, 300, True, 5),
}


class TestKmeansBitIdentity:
    """``kmeans`` against the plainly written loop it replaced: the same
    labels, centroid bytes, inertia history and restart."""

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_matches_score_oracle(self, case, monkeypatch):
        make, seed, max_iter, reseeds, restarts = EXACT_CASES[case]
        pts, k = make()
        calls = []
        real = inference._reseed_empty

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(inference, "_reseed_empty", counted)
        a = kmeans(pts, k, seed=seed, restarts=restarts, max_iter=max_iter)
        # Each restart run to its end alone, then the scan's pick; kmeans
        # advances them in lockstep and must give that restart's bits.
        runs = kmeans_score_restarts(pts, k, seed=seed, restarts=restarts, max_iter=max_iter)
        best = kmeans_best_restart(runs)
        b = runs[best]
        assert a.labels.dtype == b.labels.dtype
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia_history == b.inertia_history
        assert a.inertia == b.inertia
        same = [r for r, run in enumerate(runs) if run.centroids.tobytes() == a.centroids.tobytes()
                and run.inertia_history == a.inertia_history and np.array_equal(run.labels, a.labels)]
        assert same[0] == best
        assert bool(calls) == reseeds
        if max_iter < 300:
            assert all(len(run.inertia_history) == max_iter for run in runs)
            assert len(a.inertia_history) == max_iter

    @pytest.mark.parametrize("case", ["k2-unit-15k", "k3-unit", "k3-integer-ties", "k3-reseed", "k5-reseed"])
    def test_same_bits_for_either_memory_layout(self, case):
        # A C-ordered (N, E) array and the transpose of a C-ordered (E, N)
        # one hold the same points; kmeans reads both as the (E, N) array.
        make, seed, max_iter, _, restarts = EXACT_CASES[case]
        pts, k = make()
        a = kmeans(np.ascontiguousarray(pts), k, seed=seed, restarts=restarts, max_iter=max_iter)
        b = kmeans(np.ascontiguousarray(pts.T).T, k, seed=seed, restarts=restarts, max_iter=max_iter)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.inertia_history == b.inertia_history

    def test_lockstep_cases_cover_groups_and_retirements(self, monkeypatch):
        # The restart cases exercise what they are named for: more restarts
        # than one lockstep group, and restarts that stop at different
        # iterations around a reseed in the middle one.
        assert EXACT_CASES["k2-unit-restarts-11"][4] > inference.LOCKSTEP
        calls = []
        real = inference._reseed_empty

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(inference, "_reseed_empty", counted)
        reseeds = []
        for restarts in (2, 3, 5):
            calls.clear()
            kmeans(MIDDLE_RESEED, 5, seed=611, restarts=restarts)
            reseeds.append(len(calls))
        assert reseeds == [0, 1, 1]  # restart 2 reseeds once; 0, 1, 3 and 4 never
        runs = kmeans_score_restarts(MIDDLE_RESEED, 5, seed=611, restarts=5)
        assert [len(run.inertia_history) for run in runs] == [2, 2, 3, 2, 3]

    def test_lockstep_memory_does_not_grow_with_restarts(self):
        pts = unit_points(53, n=20000, spread=2.0)
        peaks = {}
        for restarts in (8, 64):
            tracemalloc.start()
            kmeans(pts, 2, seed=54, restarts=restarts)
            peaks[restarts] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[64] <= 1.1 * peaks[8], peaks

    @pytest.mark.parametrize("e", range(1, 17))
    def test_sq_dist_matches_axis0_sum(self, e):
        # k-means++ adds the squared differences into one N-vector row by
        # row; the bytes are those of the (E, N) expression it replaced. From
        # N = 2 on: k-means++ takes distances only for K >= 2, so N >= 2, and
        # at N = 1 numpy sums the E terms of the (E, 1) array pairwise.
        rng = np.random.default_rng(60 + e)
        for n in (2, 3, 7, 8, 9, 15, 16, 17, 100, 1000, 4096, 8191, 8192, 8193, 15000, 20000):
            points_t = rng.standard_normal((e, n))
            c = rng.standard_normal(e)
            want = ((points_t - c[:, None]) ** 2).sum(axis=0)
            got = inference._sq_dist(points_t, c, np.empty(n), np.empty(n))
            assert got.tobytes() == want.tobytes(), (e, n)

    # Sizes from two points up to a clip's energetic bins; in each, a few
    # repeated points, which get probability exactly 0 once one is chosen.
    @pytest.mark.parametrize("n,seeds", [(2, 400), (3, 400), (50, 400), (1000, 300), (15500, 60)])
    def test_pp_init_draws_as_rng_choice(self, n, seeds):
        # The inverse-CDF draw returns rng.choice(n, p=probs)'s index from
        # the same uniform, so the generator ends in the same state too.
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((n, 8))
        pts[: max(1, n // 10)] = pts[0]
        points_t = np.ascontiguousarray(pts.T)
        for seed in range(seeds):
            k = 2 + seed % 3
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = inference._kmeans_pp_init(points_t, k, a)
            want = kmeans_pp_init_choice_oracle(pts, points_t, k, b)
            assert got.tobytes() == want.tobytes(), (n, seed)
            assert a.random() == b.random(), (n, seed)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_gain_is_negated_score(self, k):
        rng = np.random.default_rng(40 + k)
        pts = rng.integers(-2, 3, (2000, 3)).astype(np.float64)
        pts[:500] = rng.standard_normal((500, 3))
        centroids = np.concatenate([pts[:1], rng.integers(-2, 3, (k - 1, 3)).astype(np.float64)])
        points_t = np.ascontiguousarray(pts.T)
        gain, member = claim_all(points_t, centroids)
        labels, score = assign_score_oracle(points_t, centroids)
        np.testing.assert_array_equal(-gain, score)  # equal as numbers: a zero gain negates to -0.0
        np.testing.assert_array_equal(_labels(member[1:]), labels)
        np.testing.assert_array_equal(member, labels == np.arange(k)[:, None])


class TestMasksFromClusters:
    def test_one_hot_partition(self):
        labels = np.array([0, 1, 1, 0, 1, 0])
        a = ClusterAssignment(labels, np.zeros((2, 3)), 0.0, (0.0,))
        masks = masks_from_clusters(a, (2, 3))
        assert masks.shape == (2, 3, 2)
        assert set(np.unique(masks)) == {-1.0, 1.0}
        np.testing.assert_array_equal(masks.sum(axis=2), np.zeros((2, 3)))  # exactly one +1
        np.testing.assert_array_equal(masks.reshape(6, 2).argmax(axis=1), labels)


class TestReconstruct:
    def mixture_spec(self, seed=0):
        w = Waveform(np.random.default_rng(seed).standard_normal(20000), 10000)
        return w, stft(w, CFG)

    def test_binary_all_ones_recovers_mixture(self):
        w, x = self.mixture_spec()
        masks = np.stack([np.ones(x.shape), -np.ones(x.shape)], axis=-1)
        stems = reconstruct_binary(x, masks, CFG, length=len(w))
        np.testing.assert_allclose(stems[0].samples, w.samples, atol=1e-9)
        assert np.all(stems[1].samples == 0)

    def test_binary_partition_sums_to_mixture(self):
        w, x = self.mixture_spec(1)
        rng = np.random.default_rng(2)
        pick = rng.integers(0, 2, size=x.shape)
        masks = np.stack([np.where(pick == 0, 1.0, -1.0), np.where(pick == 1, 1.0, -1.0)], axis=-1)
        stems = reconstruct_binary(x, masks, CFG, length=len(w))
        total = stems[0].samples + stems[1].samples
        np.testing.assert_allclose(total, w.samples, atol=1e-9)

    def test_binary_shape_mismatch(self):
        w, x = self.mixture_spec(3)
        with pytest.raises(ShapeMismatch):
            reconstruct_binary(x, np.ones((3, 3, 2)), CFG, len(w))

    @pytest.mark.parametrize("dtype", [np.float64, np.int8])
    def test_binary_matches_oracle_bit_for_bit(self, dtype, monkeypatch):
        spectra, real_istft = [], inference.istft  # each masked spectrum reconstruct_binary inverts

        def spy(s, *args):
            spectra.append(s.copy())
            return real_istft(s, *args)

        monkeypatch.setattr(inference, "istft", spy)
        w, x = self.mixture_spec(7)
        rng = np.random.default_rng(8)
        x.real[rng.random(x.shape) < 0.3] = -0.0
        x.imag[rng.random(x.shape) < 0.3] = -0.0
        x.real[rng.random(x.shape) < 0.1] = 0.0
        x[5] = complex(-0.0, -0.0)  # a silent frame of signed zeros
        x[9] = 5e-324 * rng.integers(1, 8, size=x.shape[1])  # a frame of subnormals
        for k in (2, 3):
            labels = rng.integers(k, size=x.shape)
            masks = np.where(labels[..., None] == np.arange(k), 1, -1).astype(dtype)
            spectra.clear()
            got = reconstruct_binary(x, masks, CFG, len(w))
            want = reconstruct_binary_oracle(x, masks, CFG, len(w))
            assert [s.samples.tobytes() for s in got] == [s.samples.tobytes() for s in want]
            # the spectra too, signed zeros and subnormals included
            assert [s.tobytes() for s in spectra] == [
                (x * 0.5 * (masks[:, :, j] + 1.0)).tobytes() for j in range(k)
            ]

    def test_ratio_sums_to_mixture(self):
        w, x = self.mixture_spec(4)
        r = np.random.default_rng(5).random(x.shape)
        masks = np.stack([r, 1.0 - r], axis=-1)
        stems = reconstruct_ratio(x, masks, CFG, length=len(w))
        total = stems[0].samples + stems[1].samples
        np.testing.assert_allclose(total, w.samples, atol=1e-9)

    def test_ratio_shape_mismatch(self):
        w, x = self.mixture_spec(3)
        with pytest.raises(ShapeMismatch):
            reconstruct_ratio(x, np.full((3, 3, 2), 0.5), CFG, len(w))

    def test_ratio_rejects_unnormalized(self):
        w, x = self.mixture_spec(6)
        r = np.random.default_rng(6).random(x.shape)
        good = np.stack([r, 1.0 - r], axis=-1)
        good[3, 7, 1] += 5e-10  # within the 1e-9 bound
        reconstruct_ratio(x, good, CFG, len(w))
        # every bin off, one bin 2e-9 off, one NaN bin
        bads = [np.full(x.shape + (2,), 0.6), good.copy(), good.copy()]
        bads[1][3, 7, 1] = 1.0 - r[3, 7] + 2e-9
        bads[2][3, 7, 1] = np.nan
        for masks in bads:
            with pytest.raises(NotNormalized):
                reconstruct_ratio(x, masks, CFG, len(w))


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(n_table_rows=8)
    return SeparationModel(cfg, rng_for(0, "model-init"))


@pytest.fixture(scope="module")
def mixture():
    return Waveform(np.random.default_rng(7).standard_normal(20000), 10000)


class TestDenoise:
    def test_cluster_mode(self, model, mixture):
        r = denoise(model, mixture, mode="cluster", k=2, seed=3)
        assert r.mode == "cluster"
        assert len(r.stems) == 2
        assert all(len(s) == len(mixture) for s in r.stems)
        assert set(np.unique(r.masks)) <= {-1.0, 1.0}
        assert r.assignment is not None
        assert 0.0 <= r.low_energy_fraction <= 1.0
        # binary partition: stems sum back to the round-tripped mixture
        total = r.stems[0].samples + r.stems[1].samples
        np.testing.assert_allclose(total, mixture.samples, atol=1e-6)

    def test_cluster_k3(self, model, mixture):
        r = denoise(model, mixture, mode="cluster", k=3, seed=3)
        assert len(r.stems) == 3
        assert r.masks.shape == stft(mixture, CFG).shape + (3,)
        assert set(np.unique(r.masks)) <= {-1.0, 1.0}
        np.testing.assert_array_equal(((r.masks + 1.0) / 2.0).sum(axis=2), 1.0)

    def test_mi_mode(self, model, mixture):
        r = denoise(model, mixture, mode="mi", seed=3)
        assert r.mode == "mi"
        assert len(r.stems) == 2
        assert r.assignment is None
        np.testing.assert_allclose(r.masks.sum(axis=2), 1.0, atol=1e-12)
        total = r.stems[0].samples + r.stems[1].samples
        np.testing.assert_allclose(total, mixture.samples, atol=1e-6)

    def test_deterministic(self, model, mixture):
        a = denoise(model, mixture, mode="cluster", seed=9)
        b = denoise(model, mixture, mode="cluster", seed=9)
        np.testing.assert_array_equal(a.masks, b.masks)
        np.testing.assert_array_equal(a.stems[0].samples, b.stems[0].samples)

    def test_one_embedding_serves_both_modes(self, model, mixture):
        emb = embed_mixture(model, mixture, CFG)
        for mode in ("cluster", "mi"):
            a = separate_embedded(model, emb, mode=mode, seed=3)
            b = denoise(model, mixture, mode=mode, cfg=CFG, seed=3)
            np.testing.assert_array_equal(a.masks, b.masks)
            assert [s.samples.tobytes() for s in a.stems] == [s.samples.tobytes() for s in b.stems]

    def test_only_cluster_mode_builds_the_field(self, model, mixture, monkeypatch):
        # MI mode reads the BLSTM output through the composed head weight.
        def refuse(self, h):
            raise AssertionError("MI mode built the embedding field")

        real, calls = SeparationModel.embed_field, []

        def counted(self, h):
            calls.append(h.shape)
            return real(self, h)

        monkeypatch.setattr(SeparationModel, "embed_field", refuse)
        r = denoise(model, mixture, mode="mi", seed=3)
        assert len(r.stems) == 2
        monkeypatch.setattr(SeparationModel, "embed_field", counted)
        denoise(model, mixture, mode="cluster", seed=3)
        assert len(calls) == 1

    def test_separation_uses_the_embedding_framing(self, model):
        # The embedding remembers the framing it was taken with, and the
        # stems are reconstructed with it, not with a default.
        w = Waveform(np.random.default_rng(12).standard_normal(6000), 10000)
        hop128 = StftConfig(hop=128)
        emb = embed_mixture(model, w, hop128)
        a = separate_embedded(model, emb, mode="mi", seed=1)
        b = denoise(model, w, mode="mi", cfg=hop128, seed=1)
        assert [s.samples.tobytes() for s in a.stems] == [s.samples.tobytes() for s in b.stems]

    @pytest.mark.parametrize("frames", [1, 64, 65, 130])
    def test_cluster_blocks_match_one_block(self, model, monkeypatch, frames):
        # Cluster mode takes norms and assigns in blocks of FRAME_BLOCK
        # frames, a last block of one frame included; one block over the
        # whole field must give the same bits.
        w = Waveform(np.random.default_rng(frames).standard_normal(CFG.hop * frames), 10000)
        emb = embed_mixture(model, w, CFG)
        assert emb.h.shape[0] == frames
        blocked = separate_embedded(model, emb, mode="cluster", seed=3)
        monkeypatch.setattr(inference, "FRAME_BLOCK", frames)
        whole = separate_embedded(model, emb, mode="cluster", seed=3)
        np.testing.assert_array_equal(blocked.assignment.labels, whole.assignment.labels)
        np.testing.assert_array_equal(blocked.assignment.centroids, whole.assignment.centroids)
        assert blocked.assignment.inertia_history == whole.assignment.inertia_history
        assert [s.samples.tobytes() for s in blocked.stems] == [s.samples.tobytes() for s in whole.stems]

    def test_resamples_foreign_rate(self, model):
        w = Waveform(np.random.default_rng(8).standard_normal(32000), 16000)
        r = denoise(model, w, mode="mi", seed=1)
        expected = len(resample(w, CFG.sample_rate_hz))
        assert all(len(s) == expected for s in r.stems)
        assert all(s.sample_rate_hz == CFG.sample_rate_hz for s in r.stems)

    def test_fewer_energetic_bins_than_k_fit_on_every_bin(self, model, mixture):
        # Only the loudest bin reaches the threshold, fewer than K = 2, so
        # K-means fits on every bin, as it does at threshold 0.
        emb = embed_mixture(model, mixture, CFG)
        loudest = float(emb.mag.max())
        assert np.count_nonzero(emb.mag >= loudest) == 1
        few = separate_embedded(model, emb, mode="cluster", seed=3, low_energy_threshold=loudest)
        every = separate_embedded(model, emb, mode="cluster", seed=3, low_energy_threshold=0.0)
        np.testing.assert_array_equal(few.assignment.labels, every.assignment.labels)
        assert [s.samples.tobytes() for s in few.stems] == [s.samples.tobytes() for s in every.stems]

    def test_max_iter_caps_lloyd_iterations(self, model, mixture):
        r = denoise(model, mixture, mode="cluster", seed=3, max_iter=1)
        assert len(r.assignment.inertia_history) == 1

    def test_unknown_mode(self, model, mixture):
        with pytest.raises(ValueError):
            denoise(model, mixture, mode="oracle")
