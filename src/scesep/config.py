"""Flat run configuration with `key = value` config-file support.

Precedence: CLI flag > config file > default. Unknown keys are rejected.
"""

import math
from dataclasses import dataclass, fields

from .audio_io import SAMPLE_RATE_RANGE_HZ
from .dsp import StftConfig
from .mixtures import SEGMENT_SECONDS, SNR_LIMIT_DB
from .model import ModelConfig
from .snmf import SnmfConfig


@dataclass
class RunConfig:
    seed: int = 0
    # corpus
    n_train: int = 16
    n_val: int = 4
    n_test: int = 4
    snr_min_db: float = -5.0
    snr_max_db: float = 5.0
    clip_duration_s: float = 3.0
    # stft, model and snmf keys take their defaults from the sub-config they feed
    window_len: int = StftConfig.window_len
    hop: int = StftConfig.hop
    sample_rate_hz: int = StftConfig.sample_rate_hz
    # model
    n_blstm_layers: int = ModelConfig.n_blstm_layers
    hidden_total: int = ModelConfig.hidden_total
    embed_dim: int = ModelConfig.embed_dim
    batch_size: int = ModelConfig.batch_size
    sce_weight: float = ModelConfig.sce_weight
    epochs: int = ModelConfig.epochs
    lr: float = ModelConfig.lr
    grad_clip: float = ModelConfig.grad_clip
    # inference
    kmeans_restarts: int = 8
    kmeans_max_iter: int = 300
    low_energy_threshold: float = 0.1
    # snmf
    snmf_rank: int = SnmfConfig.rank
    snmf_sparsity: float = SnmfConfig.sparsity
    snmf_max_iters: int = SnmfConfig.max_iters
    snmf_tol: float = SnmfConfig.tol
    trim_threshold: float = SnmfConfig.trim_threshold

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        lows = {"n_train": 0, "n_val": 0, "n_test": 0, "kmeans_restarts": 1, "kmeans_max_iter": 1}
        for key, low in lows.items():
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("snr_min_db", "snr_max_db"):
            if not -SNR_LIMIT_DB <= getattr(self, key) <= SNR_LIMIT_DB:
                raise ValueError(f"{key} must be in [-{SNR_LIMIT_DB:g}, {SNR_LIMIT_DB:g}] dB, "
                                 f"got {getattr(self, key)}")
        if self.snr_min_db > self.snr_max_db:
            raise ValueError(
                f"snr_min_db must be <= snr_max_db, got {self.snr_min_db} > {self.snr_max_db}"
            )
        lo, hi = SAMPLE_RATE_RANGE_HZ  # what read_wav accepts, so the corpus's own WAVs load
        if not lo <= self.sample_rate_hz <= hi:
            raise ValueError(f"sample_rate_hz must be in [{lo}, {hi}] Hz, got {self.sample_rate_hz}")
        if not 0 <= self.low_energy_threshold < 1:  # compress scales the loudest bin to 1
            raise ValueError(f"low_energy_threshold must be in [0, 1), got {self.low_energy_threshold}")
        if self.clip_duration_s < SEGMENT_SECONDS:
            raise ValueError(f"clip_duration_s must be >= {SEGMENT_SECONDS}, got {self.clip_duration_s}")
        # model_config builds the StftConfig too: a bad value fails every command.
        self.model_config(ModelConfig.n_table_rows), self.snmf_config()
        if 2 * self.hop > self.window_len:  # istft's squared-window sum has zeros
            raise ValueError(f"hop must be at most window_len / 2, got hop {self.hop} "
                             f"and window_len {self.window_len}")

    def _pick(self, cls, **derived):
        """Build `cls` from the fields named as its own, less any `snmf_` prefix, plus `derived`."""
        mine = {f.name.removeprefix("snmf_"): getattr(self, f.name) for f in fields(self)}
        return cls(**{f.name: mine[f.name] for f in fields(cls) if f.name in mine}, **derived)

    def stft_config(self) -> StftConfig:
        return self._pick(StftConfig)

    def model_config(self, n_table_rows: int) -> ModelConfig:
        return self._pick(ModelConfig, n_freq=self.stft_config().n_freq, n_table_rows=n_table_rows)

    def snmf_config(self) -> SnmfConfig:
        return self._pick(SnmfConfig)


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Parse `key = value` lines; `#` starts a comment; unknown keys, values
    of the wrong type and non-finite numbers fail, naming `file:line`."""
    overrides = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _FIELDS[key]
            try:
                overrides[key] = kind(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be {kind.__name__}, got {value!r}") from None
            if not math.isfinite(overrides[key]):
                raise ValueError(f"{path}:{lineno}: {key} must be finite, got {value!r}")
    return overrides


def resolve(file_overrides: dict = None, cli_overrides: dict = None) -> RunConfig:
    """Merge defaults, config file, and CLI flags (in rising precedence)."""
    merged = {}
    merged.update(file_overrides or {})
    merged.update({k: v for k, v in (cli_overrides or {}).items() if v is not None})
    return RunConfig(**merged)
