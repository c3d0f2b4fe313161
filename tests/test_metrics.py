import numpy as np
import pytest

from scesep.dsp import Waveform
from scesep.errors import CountMismatch, SilentReference
from scesep.metrics import SDR_CAP_DB, best_permutation, sdr


def wave(samples):
    return Waveform(np.asarray(samples, dtype=float), 10000)


def sine(freq, n=10000, amp=1.0, fs=10000):
    return wave(amp * np.sin(2 * np.pi * freq * np.arange(n) / fs))


class TestSdr:
    def test_perfect_reconstruction_capped(self):
        ref = sine(440.0)
        assert sdr(ref, ref) == SDR_CAP_DB

    def test_scale_invariant(self):
        ref = sine(440.0)
        scaled = wave(ref.samples * 0.1)
        assert sdr(ref, scaled) == SDR_CAP_DB

    def test_known_value(self):
        # orthogonal error of equal power: projection keeps target power 1,
        # error power 0.25 -> 10*log10(4) dB
        n = 10000
        ref = sine(500.0, n)
        est = wave(ref.samples + 0.5 * np.sin(2 * np.pi * 1000.0 * np.arange(n) / 10000))
        assert sdr(ref, est) == pytest.approx(10 * np.log10(4.0), abs=0.01)

    def test_orthogonal_estimate_floor(self):
        ref = sine(500.0)
        est = sine(1000.0)
        assert sdr(ref, est) == -SDR_CAP_DB

    def test_silent_reference(self):
        with pytest.raises(SilentReference):
            sdr(wave(np.zeros(100)), sine(440.0, 100))

    def test_length_mismatch_truncates(self):
        ref = sine(440.0, 8000)
        est = sine(440.0, 10000)
        assert sdr(ref, est) == SDR_CAP_DB


class TestBestPermutation:
    def test_picks_matching_order(self):
        a, b = sine(300.0), sine(1500.0)
        res = best_permutation([a, b], [b, a])
        assert res.permutation == (1, 0)
        assert res.per_source_sdr_db == [SDR_CAP_DB, SDR_CAP_DB]

    def test_identity_when_aligned(self):
        a, b = sine(300.0), sine(1500.0)
        res = best_permutation([a, b], [a, b])
        assert res.permutation == (0, 1)

    def test_tie_breaks_lexicographic(self):
        a = sine(300.0)
        res = best_permutation([a, a], [a, a])
        assert res.permutation == (0, 1)

    def test_improvements_use_mixture(self):
        a, b = sine(300.0), sine(1500.0)
        mix = wave(a.samples + b.samples)
        res = best_permutation([a, b], [a, b], mixture=mix)
        base = [sdr(a, mix), sdr(b, mix)]
        for imp, s, bl in zip(res.sdr_improvement_db, res.per_source_sdr_db, base):
            assert imp == pytest.approx(s - bl)

    def test_without_mixture_improvements_nan(self):
        a = sine(300.0)
        res = best_permutation([a], [a])
        assert np.isnan(res.sdr_improvement_db[0])

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            best_permutation([sine(300.0)], [sine(300.0), sine(600.0)])

    def test_three_sources(self):
        srcs = [sine(300.0), sine(900.0), sine(2100.0)]
        res = best_permutation(srcs, [srcs[2], srcs[0], srcs[1]])
        assert res.permutation == (2, 0, 1)

