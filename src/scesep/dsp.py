"""Waveform conditioning and STFT analysis/synthesis.

Analysis uses a periodic Hann window (512 samples, hop 256 by default).
Synthesis overlap-adds Hann-windowed frames and divides by the running
sum of squared windows, which reconstructs the input exactly wherever
that sum is nonzero.
"""

from dataclasses import dataclass
from math import gcd

import numpy as np
from scipy.signal import resample_poly

from .errors import ConstantSignal, ShapeMismatch, TooShort


@dataclass(frozen=True)
class Waveform:
    """Mono waveform with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ShapeMismatch(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class StftConfig:
    window_len: int = 512
    hop: int = 256
    sample_rate_hz: int = 10000

    def __post_init__(self):
        if self.window_len < 2 or self.hop < 1:
            raise ValueError("window_len >= 2 and hop >= 1 required")
        if self.window_len & (self.window_len - 1) != 0:
            raise ValueError("window_len must be a power of two")
        if self.hop > self.window_len or self.window_len % self.hop != 0:
            raise ValueError("hop must divide window_len")

    @property
    def fft_len(self) -> int:
        return self.window_len

    @property
    def n_freq(self) -> int:
        return self.fft_len // 2 + 1


@dataclass(frozen=True)
class MagnitudeFeature:
    """Sqrt-compressed, percent-normalized magnitude; ``mag * norm_scale``
    is ``sqrt(|s|)``."""

    mag: np.ndarray
    norm_scale: float


def hann_window(n: int) -> np.ndarray:
    # Periodic Hann: shifted copies at 50% overlap sum to exactly 1.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def standardize(w: Waveform) -> Waveform:
    """Remove the mean and scale to unit standard deviation (divisor n)."""
    x = w.samples
    if len(x) < 2:
        raise ConstantSignal("need at least 2 samples")
    mu = x.mean()
    sd = x.std()
    if sd == 0.0:
        raise ConstantSignal("zero-variance signal")
    return Waveform((x - mu) / sd, w.sample_rate_hz)


def resample(w: Waveform, target_hz: int) -> Waveform:
    """Band-limited polyphase resampling (Kaiser-windowed sinc)."""
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if target_hz == w.sample_rate_hz:
        return w
    g = gcd(target_hz, w.sample_rate_hz)
    up, down = target_hz // g, w.sample_rate_hz // g
    y = resample_poly(w.samples, up, down, window=("kaiser", 5.0))
    return Waveform(y, target_hz)


def reflect_pad(w: Waveform, cfg: StftConfig) -> Waveform:
    """Reflect-pad hop/2 samples per side (framing convention for features)."""
    pad = cfg.hop // 2
    return Waveform(np.pad(w.samples, pad, mode="reflect"), w.sample_rate_hz)


def n_frames(n_samples: int, cfg: StftConfig) -> int:
    return (n_samples - cfg.window_len) // cfg.hop + 1


def stft(w: Waveform, cfg: StftConfig = StftConfig(), pad: bool = False) -> np.ndarray:
    """Complex spectrogram, shape (T, F) with F = fft_len/2 + 1.

    With ``pad=True`` the waveform is reflect-padded hop/2 per side first,
    so a 2 s clip at the default config yields T = 78 frames.
    """
    if pad:
        w = reflect_pad(w, cfg)
    x = w.samples
    if len(x) < cfg.window_len:
        raise TooShort(f"need >= {cfg.window_len} samples, got {len(x)}")
    T = n_frames(len(x), cfg)
    win = hann_window(cfg.window_len)
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop * np.arange(T)[:, None]
    return np.fft.rfft(x[idx] * win, n=cfg.fft_len, axis=1)


def istft(
    s: np.ndarray,
    cfg: StftConfig = StftConfig(),
    trim: bool = False,
    length: int = None,
) -> Waveform:
    """Overlap-add inverse STFT (Hann analysis + Hann synthesis).

    With ``trim=True`` drops the leading hop/2 samples, inverting the
    ``pad=True`` framing of :func:`stft`; ``length`` then truncates or
    zero-extends to the original waveform length (samples past the last
    full analysis frame are not recoverable).
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[1] != cfg.n_freq:
        raise ShapeMismatch(f"expected (T, {cfg.n_freq}), got {s.shape}")
    T = s.shape[0]
    win = hann_window(cfg.window_len)
    frames = np.fft.irfft(s, n=cfg.fft_len, axis=1) * win
    n = (T - 1) * cfg.hop + cfg.window_len
    y = np.zeros(n)
    wsum = np.zeros(n)
    for t in range(T):
        start = t * cfg.hop
        y[start : start + cfg.window_len] += frames[t]
        wsum[start : start + cfg.window_len] += win * win
    nz = wsum > 1e-12
    y[nz] /= wsum[nz]
    y[~nz] = 0.0
    if trim:
        y = y[cfg.hop // 2 :]
    if length is not None:
        if len(y) < length:
            y = np.pad(y, (0, length - len(y)))
        else:
            y = y[:length]
    return Waveform(y, cfg.sample_rate_hz)


def compress(s: np.ndarray) -> MagnitudeFeature:
    """Square-root nonlinearity followed by percent normalization.

    The normalization divisor is recorded as ``norm_scale``; an all-zero
    spectrogram gets norm_scale 1 to avoid division by zero.
    """
    s = np.asarray(s)
    if s.size == 0:
        raise ShapeMismatch("empty spectrogram")
    root = np.sqrt(np.abs(s))
    scale = float(root.max())
    if scale == 0.0:
        scale = 1.0
    return MagnitudeFeature(root / scale, scale)
