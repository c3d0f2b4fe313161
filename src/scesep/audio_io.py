"""WAV file I/O: PCM 16-bit signed little-endian, mono only."""

import wave

import numpy as np

from .dsp import Waveform
from .errors import ShapeMismatch

# Header sample rates read_wav accepts, in Hz: telephone speech to
# high-resolution audio. A clip is resampled to the model rate by a filter
# whose length grows with the rate, so a damaged header claiming billions of
# Hz would ask for billions of filter taps.
SAMPLE_RATE_RANGE_HZ = (1000, 384000)


def read_wav(path) -> Waveform:
    """Read a mono PCM16 WAV file; samples are mapped to [-1, 1).

    A header sample rate outside ``SAMPLE_RATE_RANGE_HZ`` is rejected."""
    try:
        f = wave.open(str(path), "rb")
    except (wave.Error, EOFError, RuntimeError) as e:  # wave raises the last two bare on bad chunks
        raise ValueError(f"{path}: not a readable WAV file ({str(e) or 'damaged header'})") from e
    with f:
        if f.getnchannels() != 1:
            raise ShapeMismatch(
                f"{path}: expected mono, got {f.getnchannels()} channels"
            )
        if f.getsampwidth() != 2:
            raise ShapeMismatch(
                f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit"
            )
        rate = f.getframerate()
        lo, hi = SAMPLE_RATE_RANGE_HZ
        if not lo <= rate <= hi:
            raise ValueError(f"{path}: sample rate {rate} Hz is outside [{lo}, {hi}] Hz")
        raw = f.readframes(f.getnframes())
    if len(raw) % 2:
        raise ValueError(f"{path}: data chunk ends mid-sample")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(path, w: Waveform) -> None:
    """Write a mono PCM16 WAV file; samples outside [-1, 1) are clipped."""
    scaled = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate_hz)
        f.writeframes(scaled.tobytes())
