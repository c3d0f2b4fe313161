import numpy as np
import pytest
from oracles import snmf_fit_oracle, snmf_separate_oracle

from scesep import snmf
from scesep.errors import AllTrimmed, NegativeInput
from scesep.snmf import (
    Dictionary,
    SnmfConfig,
    fit_dictionary,
    load_dictionary,
    save_dictionary,
    separate,
    trim_silence,
)


def band_mags(rng, bins, n_frames=40, n_freq=24):
    """Spectrogram frames whose energy lives only in the given bins."""
    mag = np.zeros((n_frames, n_freq))
    mag[:, bins] = rng.random((n_frames, len(bins))) + 0.2
    return mag


class TestConfig:
    def test_bad_rank(self):
        with pytest.raises(ValueError):
            SnmfConfig(rank=0)

    def test_bad_sparsity(self):
        with pytest.raises(ValueError):
            SnmfConfig(sparsity=-0.1)

    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_nonnegative_trim_threshold(self, threshold):
        # The loudest frame sits at 0, so such a threshold would trim every frame.
        with pytest.raises(ValueError, match="trim_threshold must be < 0"):
            SnmfConfig(trim_threshold=threshold)


class TestTrimSilence:
    def test_keeps_loud_frames_in_order(self):
        mag = np.array([[1.0, 0.0], [1e-5, 0.0], [0.5, 0.2], [1e-9, 0.0]])
        out = trim_silence(mag, threshold=-2.0)
        np.testing.assert_array_equal(out, mag[[0, 2]])

    def test_all_loud_untouched(self):
        mag = np.ones((5, 3))
        np.testing.assert_array_equal(trim_silence(mag), mag)

    def test_silent_rejected(self):
        with pytest.raises(AllTrimmed):
            trim_silence(np.zeros((4, 3)))

    def test_empty_rejected(self):
        with pytest.raises(AllTrimmed):
            trim_silence(np.zeros((0, 3)))


class TestFitDictionary:
    def test_output_properties(self):
        rng = np.random.default_rng(0)
        cfg = SnmfConfig(rank=4, max_iters=50)
        d, history = fit_dictionary([rng.random((30, 12))], cfg, class_id=3, seed=1)
        assert d.class_id == 3
        assert d.w.shape == (12, 4)
        assert np.all(d.w >= 0)
        np.testing.assert_allclose(np.linalg.norm(d.w, axis=0), 1.0)
        assert len(history) >= 2

    def test_objective_monotone_non_increasing(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cfg = SnmfConfig(rank=3, sparsity=0.2, max_iters=60, tol=0.0)
            _, history = fit_dictionary([rng.random((25, 10))], cfg, 0, seed)
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-10)

    def test_deterministic(self):
        mags = [np.random.default_rng(2).random((20, 8))]
        cfg = SnmfConfig(rank=3, max_iters=30)
        a, ha = fit_dictionary(mags, cfg, 0, seed=7)
        b, hb = fit_dictionary(mags, cfg, 0, seed=7)
        np.testing.assert_array_equal(a.w, b.w)
        assert ha == hb

    def test_negative_input(self):
        with pytest.raises(NegativeInput):
            fit_dictionary([np.array([[1.0, -0.1]])], SnmfConfig(rank=1))

    def test_low_rank_exact_recovery(self):
        # rank-2 data with mu=0 should be reconstructed almost exactly
        rng = np.random.default_rng(3)
        w_true = rng.random((10, 2))
        h_true = rng.random((2, 50))
        mags = [(w_true @ h_true).T]
        cfg = SnmfConfig(rank=2, sparsity=0.0, max_iters=2000, tol=1e-14)
        _, history = fit_dictionary(mags, cfg, 0, seed=4)
        assert history[-1] < 1e-3 * history[0]


class TestSeparate:
    def fitted_dicts(self):
        rng = np.random.default_rng(5)
        lo, hi = list(range(0, 8)), list(range(16, 24))
        cfg = SnmfConfig(rank=4, max_iters=100)
        d0, _ = fit_dictionary([band_mags(rng, lo)], cfg, 0, seed=0)
        d1, _ = fit_dictionary([band_mags(rng, hi)], cfg, 1, seed=0)
        return d0, d1, lo, hi, cfg

    def test_masks_partition_exactly(self):
        d0, d1, lo, hi, cfg = self.fitted_dicts()
        rng = np.random.default_rng(6)
        mix = band_mags(rng, lo, 10) + band_mags(rng, hi, 10)
        masks = separate(mix, [d0, d1], cfg, seed=1)
        assert masks.shape == (10, 24, 2)
        assert masks.min() >= 0
        np.testing.assert_array_equal(masks.sum(axis=2), np.ones((10, 24)))

    def test_masks_follow_spectral_support(self):
        d0, d1, lo, hi, cfg = self.fitted_dicts()
        rng = np.random.default_rng(7)
        mix = band_mags(rng, lo, 10) + band_mags(rng, hi, 10)
        masks = separate(mix, [d0, d1], cfg, seed=1)
        assert masks[:, lo, 0].mean() > 0.9
        assert masks[:, hi, 1].mean() > 0.9

    def test_deterministic(self):
        d0, d1, lo, hi, cfg = self.fitted_dicts()
        mix = band_mags(np.random.default_rng(8), lo, 6)
        a = separate(mix, [d0, d1], cfg, seed=2)
        b = separate(mix, [d0, d1], cfg, seed=2)
        np.testing.assert_array_equal(a, b)

    def test_negative_input(self):
        d0, d1, *_ , cfg = self.fitted_dicts()
        with pytest.raises(NegativeInput):
            separate(-np.ones((4, 24)), [d0, d1], cfg)

    def test_silent_bins_split_evenly(self):
        d0, d1, lo, hi, cfg = self.fitted_dicts()
        mix = np.zeros((5, 24))
        masks = separate(mix, [d0, d1], cfg, seed=3)
        np.testing.assert_allclose(masks, 0.5)


def gram_spy(monkeypatch):
    """Record the H and objective of every objective evaluation."""
    calls = []
    inner = snmf._gram_objective

    def spy(vv, wtv, wtw, h, mu):
        g, obj = inner(vv, wtv, wtw, h, mu)
        calls.append((h.copy(), obj))
        return g, obj

    monkeypatch.setattr(snmf, "_gram_objective", spy)
    return calls


def direct_objective(v, w, h, mu):
    return 0.5 * float(np.sum((v - w @ h) ** 2)) + mu * float(np.sum(h))


def low_rank_mags(seed=3, n_freq=10, n_frames=50, rank=2):
    rng = np.random.default_rng(seed)
    return [(rng.random((n_freq, rank)) @ rng.random((rank, n_frames))).T]


FIT_CASES = {
    "rank-1": (lambda r: [r.random((30, 12))], SnmfConfig(rank=1, max_iters=100)),
    "n-below-rank": (lambda r: [r.random((3, 16))], SnmfConfig(rank=8, max_iters=100)),
    "mu-0": (lambda r: [r.random((25, 10)), r.random((15, 10))], SnmfConfig(rank=4, sparsity=0.0)),
    "tol-stopped": (lambda r: [r.random((40, 20))], SnmfConfig(rank=3, max_iters=5000, tol=1e-4)),
    "capped": (lambda r: [r.random((40, 20))], SnmfConfig(rank=6, sparsity=0.3, max_iters=50, tol=0.0)),
    "all-zero": (lambda r: [np.zeros((12, 9))], SnmfConfig(rank=3)),
    "low-rank-mu-0": (lambda r: low_rank_mags(), SnmfConfig(rank=2, sparsity=0.0, max_iters=2000, tol=1e-14)),
}


class TestGramForm:
    """The Gram-form loops against the direct-form oracle."""

    @pytest.mark.parametrize("name", sorted(FIT_CASES))
    def test_fit_matches_oracle(self, name):
        make, cfg = FIT_CASES[name]
        mags = make(np.random.default_rng(11))
        vv = sum(float(np.sum(m * m)) for m in mags)
        d, history = fit_dictionary(mags, cfg, class_id=2, seed=5)
        d_ref, history_ref = snmf_fit_oracle(mags, cfg, class_id=2, seed=5)
        assert len(history) == len(history_ref)
        if name == "tol-stopped":
            assert len(history) - 1 < cfg.max_iters
        if name == "capped":
            assert len(history) - 1 == cfg.max_iters
        np.testing.assert_allclose(d.w, d_ref.w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(history, history_ref, rtol=0, atol=1e-12 * max(vv, 1.0))

    @pytest.mark.parametrize("name", ["tol-stopped", "capped", "mu-0", "rank-1", "all-zero", "t-below-rank"])
    def test_separate_matches_oracle(self, name, monkeypatch):
        rng = np.random.default_rng(12)
        rank = 1 if name == "rank-1" else 4
        fit_cfg = SnmfConfig(rank=rank, max_iters=60)
        lo, hi = list(range(0, 12)), list(range(8, 24))
        dicts = [
            fit_dictionary([band_mags(rng, lo)], fit_cfg, 0, seed=0)[0],
            fit_dictionary([band_mags(rng, hi)], fit_cfg, 1, seed=0)[0],
        ]
        n_frames = 3 if name == "t-below-rank" else 20
        mix = band_mags(rng, lo, n_frames) + band_mags(rng, hi, n_frames)
        cfg = {
            "tol-stopped": SnmfConfig(rank=rank, max_iters=5000, tol=1e-6),
            "capped": SnmfConfig(rank=rank, max_iters=40, tol=0.0),
            "mu-0": SnmfConfig(rank=rank, sparsity=0.0),
            "all-zero": SnmfConfig(rank=rank),
        }.get(name, SnmfConfig(rank=rank))
        if name == "all-zero":
            mix = np.zeros_like(mix)
        calls = gram_spy(monkeypatch)
        masks = separate(mix, dicts, cfg, seed=4)
        masks_ref, n_iters_ref = snmf_separate_oracle(mix, dicts, cfg, seed=4)
        assert len(calls) - 1 == n_iters_ref
        if name == "tol-stopped":
            assert n_iters_ref < cfg.max_iters
        if name == "capped":
            assert n_iters_ref == cfg.max_iters
        np.testing.assert_allclose(masks, masks_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["low-rank-mu-0", "capped", "rank-1"])
    def test_fit_objective_matches_direct(self, name, monkeypatch):
        # 0.5||V||² - <WᵀV, H> + 0.5<WᵀW H, H> cancels to the residual; at an
        # exact low-rank fit (mu = 0) nearly all of ||V||² cancels.
        make, cfg = FIT_CASES[name]
        mags = make(np.random.default_rng(11))
        v = np.concatenate(mags).T
        calls = gram_spy(monkeypatch)
        d, history = fit_dictionary(mags, cfg, seed=5)
        h, obj = calls[-1]
        assert obj == history[-1]
        direct = direct_objective(v, d.w, h, cfg.sparsity)
        assert abs(obj - direct) <= 1e-9 * float(np.sum(v * v))

    def test_separate_objective_matches_direct(self, monkeypatch):
        rng = np.random.default_rng(13)
        w = np.abs(rng.standard_normal((24, 6)))
        dicts = [Dictionary(w[:, :3], 0), Dictionary(w[:, 3:], 1)]
        mix = (w @ np.abs(rng.standard_normal((6, 30)))).T  # exactly representable
        cfg = SnmfConfig(sparsity=0.0, max_iters=500, tol=1e-14)
        calls = gram_spy(monkeypatch)
        separate(mix, dicts, cfg, seed=0)
        h, obj = calls[-1]
        direct = direct_objective(mix.T, w, h, cfg.sparsity)
        assert direct < 1e-3 * calls[0][1]
        assert abs(obj - direct) <= 1e-9 * float(np.sum(mix * mix))


def test_save_load_round_trip(tmp_path):
    d = Dictionary(np.random.default_rng(9).random((12, 4)), class_id=2)
    path = tmp_path / "d.dict"
    save_dictionary(path, d)
    back = load_dictionary(path)
    assert back.class_id == 2
    np.testing.assert_array_equal(back.w, d.w)
