"""Waveform conditioning and STFT analysis/synthesis.

Analysis uses a periodic Hann window (512 samples, hop 256 by default).
Synthesis overlap-adds Hann-windowed frames and divides by the running
sum of squared windows, which reconstructs the input exactly wherever
that sum is nonzero.

One framing serves every spectrogram: :func:`stft` reflect-pads hop/2
samples per side before framing, and :func:`istft` drops the leading
hop/2 samples and fits the result to the input's length.
"""

from dataclasses import dataclass
from math import gcd

import numpy as np

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


@dataclass(frozen=True)
class StftConfig:
    window_len: int = 512
    hop: int = 256
    sample_rate_hz: int = 10000

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError(f"window_len must be >= 2, got {self.window_len}")
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")
        if self.window_len & (self.window_len - 1) != 0:
            raise ValueError(f"window_len must be a power of two, got {self.window_len}")
        if self.hop > self.window_len or self.window_len % self.hop != 0:
            raise ValueError(
                f"hop must divide window_len, got hop {self.hop} and window_len {self.window_len}"
            )

    @property
    def fft_len(self) -> int:
        return self.window_len

    @property
    def n_freq(self) -> int:
        return self.fft_len // 2 + 1

    @property
    def min_samples(self) -> int:
        """Shortest input that fills one frame once reflect-padded."""
        return max(1, self.window_len - 2 * (self.hop // 2))


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
    # Imported here, not at module level: scipy.signal costs every command
    # about 1 s and 70 MB at start-up, and only foreign-rate WAVs need it.
    from scipy.signal import resample_poly

    g = gcd(target_hz, w.sample_rate_hz)
    up, down = target_hz // g, w.sample_rate_hz // g
    y = resample_poly(w.samples, up, down, window=("kaiser", 5.0))
    return Waveform(y, target_hz)


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Complex spectrogram, shape (T, F) with F = fft_len/2 + 1, of the
    waveform reflect-padded hop/2 per side: a 2 s clip at the default
    config yields T = 78 frames."""
    if len(w) < cfg.min_samples:
        raise TooShort(f"need >= {cfg.min_samples} samples, got {len(w)}")
    x = np.pad(w.samples, cfg.hop // 2, mode="reflect")
    T = (len(x) - cfg.window_len) // cfg.hop + 1
    win = hann_window(cfg.window_len)
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop * np.arange(T)[:, None]
    return np.fft.rfft(x[idx] * win, n=cfg.fft_len, axis=1)


def istft(s: np.ndarray, cfg: StftConfig, length: int) -> Waveform:
    """Overlap-add inverse STFT (Hann analysis + Hann synthesis) of an
    :func:`stft` spectrogram: drops the leading hop/2 samples, then
    truncates or zero-extends to ``length``, the original waveform's
    length (samples past the last full analysis frame are not
    recoverable)."""
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[1] != cfg.n_freq:
        raise ShapeMismatch(f"expected (T, {cfg.n_freq}), got {s.shape}")
    T = s.shape[0]
    r = cfg.window_len // cfg.hop  # hop-sized blocks per frame
    win = hann_window(cfg.window_len)
    frames = (np.fft.irfft(s, n=cfg.fft_len, axis=1) * win).reshape(T, r, cfg.hop)
    n = (T - 1 + r) * cfg.hop
    y = np.zeros(n)
    wsum = np.zeros(n)
    # Block j of frame t lands on output block t + j. Taking j from last to
    # first adds each output block's terms in increasing t, the order of a
    # frame-by-frame loop, so the sums are the same bit for bit.
    y_blocks, w_blocks = y.reshape(-1, cfg.hop), wsum.reshape(-1, cfg.hop)
    w2 = (win * win).reshape(r, cfg.hop)
    for j in reversed(range(r)):
        y_blocks[j : j + T] += frames[:, j]
        w_blocks[j : j + T] += w2[j]
    nz = wsum > 1e-12
    y[nz] /= wsum[nz]
    y[~nz] = 0.0
    y = y[cfg.hop // 2 :]
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
