import wave

import numpy as np
import pytest

from scesep.audio_io import read_wav, write_wav
from scesep.dsp import Waveform


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    w = Waveform(rng.uniform(-0.9, 0.9, 5000), 10000)
    path = tmp_path / "x.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate_hz == 10000
    assert np.abs(back.samples - w.samples).max() <= 1.0 / 32768


def test_quantization_mapping(tmp_path):
    path = tmp_path / "q.wav"
    write_wav(path, Waveform(np.array([0.0, 0.5, -1.0]), 8000))
    back = read_wav(path)
    np.testing.assert_allclose(back.samples, [0.0, 16384 / 32768, -1.0])


def test_clipping(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(path, Waveform(np.array([2.0, -2.0]), 8000))
    back = read_wav(path)
    np.testing.assert_allclose(back.samples, [32767 / 32768, -1.0])


def test_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(8000)
        f.writeframes(np.zeros(100, dtype="<i2").tobytes())
    with pytest.raises(ValueError, match="expected mono"):
        read_wav(path)


def test_rejects_wrong_depth(tmp_path):
    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(1)
        f.setframerate(8000)
        f.writeframes(bytes(100))
    with pytest.raises(ValueError, match="expected 16-bit PCM"):
        read_wav(path)
