import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scesep
from scesep.dsp import (
    StftConfig,
    Waveform,
    compress,
    hann_window,
    istft,
    resample,
    standardize,
    stft,
)
from scesep.errors import ConstantSignal, ShapeMismatch, TooShort

from oracles import istft_loop_oracle, stft_gather_oracle

CFG = StftConfig()


def rand_wave(n=20000, seed=0, rate=10000):
    return Waveform(np.random.default_rng(seed).standard_normal(n), rate)


class TestStandardize:
    def test_two_samples(self):
        out = standardize(Waveform(np.array([1.0, 3.0]), 10000))
        # divisor-n convention: sd([1,3]) = 1
        np.testing.assert_allclose(out.samples, [-1.0, 1.0], atol=1e-12)

    def test_fixed_point(self):
        w = rand_wave(seed=1)
        z = standardize(w)
        z2 = standardize(z)
        np.testing.assert_allclose(z2.samples, z.samples, atol=1e-9)

    def test_mean_and_sd(self):
        out = standardize(rand_wave(seed=2))
        assert abs(out.samples.mean()) < 1e-12
        assert abs(out.samples.std() - 1.0) < 1e-9

    def test_constant_rejected(self):
        with pytest.raises(ConstantSignal):
            standardize(Waveform(np.array([5.0, 5.0, 5.0]), 10000))


class TestResample:
    def test_sine_preserved(self):
        fs_in = 20000
        t = np.arange(2 * fs_in) / fs_in
        w = Waveform(np.sin(2 * np.pi * 1000 * t), fs_in)
        out = resample(w, 10000)
        assert out.sample_rate_hz == 10000
        assert abs(len(out) - fs_in) <= 1  # duration preserved
        t_out = np.arange(len(out)) / 10000
        ref = np.sin(2 * np.pi * 1000 * t_out)
        corr = np.corrcoef(out.samples[200:-200], ref[200:-200])[0, 1]
        assert corr > 0.999

    def test_identity_rate(self):
        w = rand_wave(seed=3)
        out = resample(w, w.sample_rate_hz)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_antialiasing(self):
        fs = 10000
        t = np.arange(4 * fs) / fs
        tone = Waveform(np.sin(2 * np.pi * 6000 * t), fs)
        # 6 kHz tone resampled to 10 kHz is untouched
        np.testing.assert_array_equal(resample(tone, fs).samples, tone.samples)
        # but cannot survive resampling to 8 kHz (Nyquist 4 kHz)
        down = resample(tone, 8000)
        spec = np.abs(np.fft.rfft(down.samples)) ** 2
        in_power = np.mean(tone.samples**2)
        out_power = np.mean(down.samples**2)
        assert 10 * np.log10(in_power / max(out_power, 1e-30)) > 40
        assert spec.max() < 1e-3 * len(down)

    def test_scipy_loaded_only_to_change_rate(self):
        # A fresh interpreter, since this one may already hold scipy.
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import scesep.cli
            from scesep.dsp import Waveform, resample
            loaded = lambda: any(m.split(".")[0] == "scipy" for m in sys.modules)
            w = Waveform(np.ones(64), 10000)
            print(loaded())
            resample(w, w.sample_rate_hz)
            print(loaded())
            resample(w, 8000)
            print(loaded())
        """)
        paths = [str(Path(scesep.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["False", "False", "True"]


class TestStft:
    def test_frame_count_padded(self):
        # 2 s at 10 kHz with hop/2 reflect padding per side gives 78 frames
        assert stft(rand_wave()).shape == (78, 257)

    def test_bin_center_tone(self):
        fs = 10000
        freq = 32 * fs / 512  # exactly bin 32
        t = np.arange(2 * fs) / fs
        s = stft(Waveform(np.sin(2 * np.pi * freq * t), fs))
        mags = np.abs(s)
        assert np.all(np.argmax(mags[5:-5], axis=1) == 32)

    def test_zero_input(self):
        s = stft(Waveform(np.zeros(2048), 10000))
        assert np.all(s == 0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            stft(Waveform(np.zeros(100), 10000))

    @pytest.mark.parametrize("window_len,hop", [(512, 256), (512, 128), (256, 256)])
    def test_min_samples_counts_unpadded_input(self, window_len, hop):
        cfg = StftConfig(window_len=window_len, hop=hop)
        need = cfg.min_samples
        assert need == max(1, window_len - 2 * (hop // 2))
        assert stft(rand_wave(n=need), cfg).shape == (1, cfg.n_freq)
        # 0 samples cannot be reflect-padded; 1 sample gives "need >= 256,
        # got 1" at the default config
        for n in {0, 1, need // 2, need - 1} - {need}:
            with pytest.raises(TooShort, match=f"need >= {need} samples, got {n}$"):
                stft(rand_wave(n=n), cfg)

    def test_linearity(self):
        x, y = rand_wave(seed=4), rand_wave(seed=5)
        combo = Waveform(2.0 * x.samples - 0.5 * y.samples, 10000)
        err = np.abs(stft(combo) - (2.0 * stft(x) - 0.5 * stft(y))).max()
        assert err < 1e-10 * np.abs(stft(combo)).max()


class TestIstft:
    def test_round_trip(self):
        w = rand_wave(seed=6)
        out = istft(stft(w), CFG, len(w))
        rel = np.linalg.norm(out.samples - w.samples) / np.linalg.norm(w.samples)
        assert rel < 1e-6

    def test_zero_spectrogram(self):
        out = istft(np.zeros((10, 257), dtype=complex), CFG, 2560)
        assert len(out) == 2560
        assert np.all(out.samples == 0)

    def test_linearity(self):
        n = 20000
        a = stft(rand_wave(n, seed=8))
        b = stft(rand_wave(n, seed=9))
        lhs = istft(a + b, CFG, n).samples
        rhs = istft(a, CFG, n).samples + istft(b, CFG, n).samples
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(lhs).max()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            istft(np.zeros((10, 100), dtype=complex), CFG, 2560)

    def test_masked_frames_are_not_amplified_at_the_end(self):
        # For most lengths the last synthesized samples lie under one fading
        # window, whose squared sum falls to ~1e-9; the floored sum keeps each
        # output sample within 10x the largest inverse-FFT frame sample.
        for n in range(20000, 20256):
            rng = np.random.default_rng(n)
            spec = stft(Waveform(rng.standard_normal(n), CFG.sample_rate_hz))
            spec *= rng.integers(0, 2, size=spec.shape)  # a random binary mask
            frames = np.fft.irfft(spec, n=CFG.window_len, axis=1)
            assert np.abs(istft(spec, CFG, n).samples).max() <= 10 * np.abs(frames).max(), n

    @pytest.mark.parametrize("window_len,hop", [(512, 256), (512, 128), (256, 256)])
    @pytest.mark.parametrize("duration_s", [2, 3, 8])
    def test_matches_frame_loop_oracle(self, duration_s, window_len, hop):
        cfg = StftConfig(window_len=window_len, hop=hop)
        w = rand_wave(n=duration_s * cfg.sample_rate_hz, seed=duration_s + hop)
        # A masked spectrogram is not the STFT of any signal, so the frames
        # disagree where they overlap and the order of the sums shows.
        spec = stft(w, cfg)
        spec *= np.random.default_rng(hop).uniform(size=spec.shape)
        out = istft(spec, cfg, len(w))
        ref = istft_loop_oracle(spec, cfg, len(w))
        np.testing.assert_array_equal(out.samples, ref.samples)


@settings(max_examples=60, deadline=None)
@given(
    window_len=st.sampled_from([8, 16, 64, 4096]),
    hop_div=st.sampled_from([4, 2, 1]),
    extra=st.integers(0, 200),
    trim=st.integers(-40, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(window_len=16, hop_div=1, extra=0, trim=0, seed=0)  # one frame; the window sum has zeros
@example(window_len=4096, hop_div=1, extra=5000, trim=0, seed=1)
def test_view_framing_and_where_division_match_oracles_byte_for_byte(window_len, hop_div, extra, trim, seed):
    # hop = window_len leaves window sums below WINDOW_SUM_FLOOR around every
    # frame start (a zero of the squared periodic Hann at the start itself),
    # so the floored branch of the normalization runs too.
    cfg = StftConfig(window_len=window_len, hop=window_len // hop_div)
    rng = np.random.default_rng(seed)
    w = Waveform(rng.standard_normal(cfg.min_samples + extra), cfg.sample_rate_hz)
    spec = stft(w, cfg)
    assert spec.tobytes() == stft_gather_oracle(w, cfg).tobytes()
    spec *= rng.uniform(size=spec.shape)  # frames that disagree where they overlap
    length = max(1, len(w) + trim)
    assert istft(spec, cfg, length).samples.tobytes() == istft_loop_oracle(spec, cfg, length).samples.tobytes()


def test_cola_window_sum_constant():
    # Periodic Hann at 50% overlap: shifted windows sum to exactly 1.
    win = hann_window(512)
    total = np.zeros(512 * 4)
    for start in range(0, len(total) - 512 + 1, 256):
        total[start : start + 512] += win
    interior = total[512:-512]
    np.testing.assert_allclose(interior, 1.0, atol=1e-12)


def test_parseval_sanity():
    w = rand_wave(seed=10)
    s = stft(w)
    win = hann_window(CFG.window_len)
    # Frame the windowed time-domain energy the same way as the analysis,
    # over the reflect-padded samples it frames
    x = np.pad(w.samples, CFG.hop // 2, mode="reflect")
    T = s.shape[0]
    framed = 0.0
    for t in range(T):
        seg = x[t * CFG.hop : t * CFG.hop + CFG.window_len] * win
        framed += np.sum(seg**2)
    # rfft energy: double the positive bins except DC/Nyquist
    weights = np.full(CFG.n_freq, 2.0)
    weights[0] = weights[-1] = 1.0
    spec_energy = np.sum(weights * np.abs(s) ** 2) / CFG.window_len
    assert abs(spec_energy - framed) / framed < 0.01


class TestCompress:
    def test_hand_example(self):
        feat = compress(np.array([[4.0 + 0j, 1.0 + 0j]]))
        np.testing.assert_allclose(feat.mag, [[1.0, 0.5]])
        assert feat.norm_scale == 2.0

    def test_silent_input(self):
        feat = compress(np.zeros((3, 4), dtype=complex))
        assert np.all(feat.mag == 0)
        assert feat.norm_scale == 1.0

    def test_max_is_one(self):
        s = stft(rand_wave(seed=11))
        assert compress(s).mag.max() == 1.0

    def test_norm_scale_restores_root(self):
        s = stft(rand_wave(seed=12))
        feat = compress(s)
        np.testing.assert_allclose(feat.mag * feat.norm_scale, np.sqrt(np.abs(s)), rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=16, unique=True))
    # distinct magnitudes whose square roots round to the same double
    @example([1000.0, 999.9999999999999])
    def test_monotone_in_magnitude(self, mags):
        # compress is non-decreasing, not strictly increasing: sqrt can map
        # two close magnitudes to one value.
        s = np.array(mags, dtype=complex).reshape(1, -1)
        feat = compress(s)
        by_input = feat.mag[0][np.argsort(np.abs(s[0]), kind="stable")]
        assert np.all(np.diff(by_input) >= 0.0)
