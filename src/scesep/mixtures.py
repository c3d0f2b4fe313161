"""Mixture construction at controlled SNR and per-bin dominance labels.

Synthetic speech-like and noise generators stand in for real corpora at
desk scale; real WAV clips can be substituted through the manifest.
"""

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .dsp import StftConfig, Waveform, stft
from .errors import EmptyCorpus, ShapeMismatch, SilentSource, UnknownKind
from .seeding import rng_for, stream_seed

NOISE_KINDS = ("siren", "jackhammer", "engine", "crowd")
SPEECH_CLASS_ID = 0
SEGMENT_SECONDS = 2.0
# Speech is mixed at unit gain, so at -140 dB the noise samples reach ~1e7,
# where float64 rounding exceeds the absolute 1e-9 tolerance of eval's
# partition check and a correct pipeline fails it; -100 dB passes. The bound
# is symmetric, and it holds for config keys and manifest rows alike.
SNR_LIMIT_DB = 100.0


@dataclass(frozen=True)
class SourceClip:
    waveform: Waveform
    class_id: int
    clip_id: str


@dataclass(frozen=True)
class MixRecord:
    """One mixture: waveforms, mixture spectrogram, true source magnitudes,
    labels, provenance."""

    clip_id: str
    mixture: Waveform
    sources: list  # scaled source Waveforms, speech first
    snr_db: float
    mixture_spec: np.ndarray  # complex STFT (T, F) of the mixture
    source_mags: list  # |STFT| (T, F) float64 per source; no phase is kept
    labels: np.ndarray  # (T, F, M) int8 in {-1, +1}
    source_ids: list  # global source-table row per source
    source_clip_ids: list
    noise_kind: str
    seed: int


def _unit_power(x: np.ndarray) -> np.ndarray:
    rms = np.sqrt(np.mean(x * x))
    return x / rms if rms > 0 else x


def synth_speechlike(
    duration_s: float, seed: int, sample_rate_hz: int = StftConfig.sample_rate_hz
) -> SourceClip:
    """Harmonic stack with pitch contour, formant-like band emphasis, and
    a syllabic (~4 Hz) amplitude envelope. Unit power, deterministic."""
    if duration_s < SEGMENT_SECONDS:
        raise ValueError("duration_s must be >= 2")
    rng = np.random.default_rng(seed)
    fs = sample_rate_hz
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs

    f0 = rng.uniform(85.0, 220.0)
    vibrato = 0.03 * np.sin(2 * np.pi * rng.uniform(4.0, 7.0) * t + rng.uniform(0, 2 * np.pi))
    drift = 0.12 * np.sin(2 * np.pi * rng.uniform(0.2, 0.6) * t + rng.uniform(0, 2 * np.pi))
    inst_f0 = f0 * (1.0 + vibrato + drift)
    phase = 2 * np.pi * np.cumsum(inst_f0) / fs

    centers = np.array([rng.uniform(300, 800), rng.uniform(1000, 1800), rng.uniform(2200, 3000)])
    widths = np.array([150.0, 220.0, 300.0])

    sig = np.zeros(n)
    k_max = int(3800.0 / f0)
    for k in range(1, max(k_max, 1) + 1):
        fk = k * f0
        formant_gain = np.sum(np.exp(-0.5 * ((fk - centers) / widths) ** 2))
        amp = (formant_gain + 0.05) / np.sqrt(k)
        sig += amp * np.sin(k * phase + rng.uniform(0, 2 * np.pi))

    syllable_rate = rng.uniform(3.0, 5.0)
    env = 0.5 * (1.0 + np.sin(2 * np.pi * syllable_rate * t + rng.uniform(0, 2 * np.pi)))
    sig *= (0.15 + 0.85 * env) ** 1.5

    return SourceClip(Waveform(_unit_power(sig), fs), SPEECH_CLASS_ID, f"speech-{seed}")


def synth_noise(
    kind: str, duration_s: float, seed: int, sample_rate_hz: int = StftConfig.sample_rate_hz
) -> SourceClip:
    """Synthetic noise of the given kind, unit power, deterministic."""
    if kind not in NOISE_KINDS:
        raise UnknownKind(f"unknown noise kind {kind!r}; choose from {NOISE_KINDS}")
    if duration_s < SEGMENT_SECONDS:
        raise ValueError("duration_s must be >= 2")
    rng = np.random.default_rng(seed)
    fs = sample_rate_hz
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs

    if kind == "siren":
        center = rng.uniform(700.0, 1100.0)
        depth = rng.uniform(300.0, 500.0)
        rate = rng.uniform(0.3, 0.7)
        inst_f = center + depth * np.sin(2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi))
        sig = np.sin(2 * np.pi * np.cumsum(inst_f) / fs)
    elif kind == "jackhammer":
        period = int(fs / rng.uniform(25.0, 35.0))
        sig = np.zeros(n)
        click_len = int(0.003 * fs)
        decay = np.exp(-np.arange(click_len) / (0.001 * fs))
        for start in range(0, n - click_len, period):
            sig[start : start + click_len] += decay * rng.standard_normal(click_len)
        gate = (np.sin(2 * np.pi * rng.uniform(0.8, 1.2) * t + rng.uniform(0, 2 * np.pi)) > -0.4)
        sig *= gate
    elif kind == "engine":
        f0 = rng.uniform(50.0, 90.0)
        sig = np.zeros(n)
        for k in range(1, 6):
            sig += np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi)) / k
        rumble = np.fft.irfft(
            np.fft.rfft(rng.standard_normal(n))
            * np.exp(-np.fft.rfftfreq(n, 1 / fs) / 120.0),
            n=n,
        )
        sig = 0.85 * _unit_power(sig) + 0.35 * _unit_power(rumble)
    else:  # crowd: band-limited pink noise
        spec = np.fft.rfft(rng.standard_normal(n))
        freqs = np.fft.rfftfreq(n, 1 / fs)
        shaping = np.zeros_like(freqs)
        band = (freqs >= 100.0) & (freqs <= 4500.0)
        shaping[band] = 1.0 / np.sqrt(freqs[band])
        sig = np.fft.irfft(spec * shaping, n=n)

    return SourceClip(Waveform(_unit_power(sig), fs), 1 + NOISE_KINDS.index(kind), f"{kind}-{seed}")


def _segment(clip: SourceClip, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    x = clip.waveform.samples
    if len(x) < n_samples:
        raise ValueError(f"clip {clip.clip_id} shorter than {n_samples} samples")
    start = int(rng.integers(0, len(x) - n_samples + 1))
    return x[start : start + n_samples]


def make_labels(source_mags) -> np.ndarray:
    """Per-bin dominance labels as int8 from per-source magnitudes: +1 for
    the loudest source, -1 otherwise.

    Ties (including all-zero bins) go to the lowest source index.
    """
    shapes = {m.shape for m in source_mags}
    if len(shapes) != 1:
        raise ShapeMismatch(f"source spectrograms differ in shape: {shapes}")
    mags = np.stack(source_mags, axis=-1)  # (T, F, M)
    winner = np.argmax(mags, axis=-1)
    y = np.full(mags.shape, -1, dtype=np.int8)
    t_idx, f_idx = np.indices(winner.shape)
    y[t_idx, f_idx, winner] = 1
    return y


def mix_at_snr(
    speech: SourceClip,
    noise: SourceClip,
    snr_db: float,
    seed: int,
    cfg: StftConfig = StftConfig(),
    clip_id: str = "",
    source_ids: Optional[list] = None,
) -> MixRecord:
    """Mix 2 s segments of speech and noise at an exact SNR.

    Speech is kept at unit gain; the noise gain g solves
    10*log10(P_speech / (g^2 * P_noise)) = snr_db over the chosen segments.
    """
    rng = rng_for(seed, "segment-choice")
    n_seg = int(SEGMENT_SECONDS * cfg.sample_rate_hz)
    s = _segment(speech, n_seg, rng)
    v = _segment(noise, n_seg, rng)
    p_s = np.mean(s * s)
    p_v = np.mean(v * v)
    if p_s == 0.0 or p_v == 0.0:
        raise SilentSource("segment has zero power")
    g = np.sqrt(p_s / (p_v * 10.0 ** (snr_db / 10.0)))
    scaled = [s, g * v]
    mixture = Waveform(scaled[0] + scaled[1], cfg.sample_rate_hz)
    source_wavs = [Waveform(x, cfg.sample_rate_hz) for x in scaled]
    source_mags = [np.abs(stft(w, cfg)) for w in source_wavs]
    mixture_spec = stft(mixture, cfg)
    labels = make_labels(source_mags)
    return MixRecord(
        clip_id=clip_id or f"mix-{seed}",
        mixture=mixture,
        sources=source_wavs,
        snr_db=float(snr_db),
        mixture_spec=mixture_spec,
        source_mags=source_mags,
        labels=labels,
        source_ids=list(source_ids) if source_ids is not None else [0, 1],
        source_clip_ids=[speech.clip_id, noise.clip_id],
        noise_kind=NOISE_KINDS[noise.class_id - 1] if 1 <= noise.class_id <= len(NOISE_KINDS) else "unknown",
        seed=seed,
    )


@dataclass(frozen=True)
class Corpus:
    train: list
    val: list
    test: list
    n_sources: int  # rows needed in the source table (train + val sources)


SPLITS = ("train", "val", "test")


class ManifestRow(NamedTuple):
    """One manifest line; `where` names it in error messages."""

    where: str
    clip_id: str
    split: str
    class_id: int  # noise class, 1..len(NOISE_KINDS)
    specs: tuple  # (speech_spec, noise_spec)
    seed: int  # mixture seed
    snr_db: float


def corpus_rows(
    n_train: int, n_val: int, n_test: int, snr_range_db=(-5.0, 5.0), seed: int = 0
) -> list:
    """Draw each row's noise kind, SNR and mixture seed; no audio is made."""
    rows = []
    for split, count in zip(SPLITS, (n_train, n_val, n_test)):
        for i in range(count):
            tag = f"{split}-{i}"
            kind = NOISE_KINDS[int(rng_for(seed, f"{tag}-kind").integers(len(NOISE_KINDS)))]
            snr = float(rng_for(seed, f"{tag}-snr").uniform(*snr_range_db))
            specs = (f"synth:speechlike:{tag}-speech", f"synth:{kind}:{tag}-{kind}")
            rows.append(ManifestRow(tag, tag, split, 1 + NOISE_KINDS.index(kind), specs,
                                    stream_seed(seed, f"{tag}-mix"), snr))
    return rows


def build_corpus(
    n_train: int,
    n_val: int,
    n_test: int,
    snr_range_db=(-5.0, 5.0),
    seed: int = 0,
    cfg: StftConfig = StftConfig(),
    clip_duration_s: float = 3.0,
) -> Corpus:
    """Synthetic corpus with disjoint source clips across splits, built from
    :func:`corpus_rows` exactly as :func:`read_manifest` streams its rows."""
    rows = corpus_rows(n_train, n_val, n_test, snr_range_db, seed)
    stream = stream_records(rows, seed, cfg, clip_duration_s)
    splits = {split: [] for split in SPLITS}
    for split, rec in stream.records:
        splits[split].append(rec)
    return Corpus(**splits, n_sources=stream.n_sources)


def _clip_from_spec(spec: str, corpus_seed: int, cfg: StftConfig, duration_s: float) -> SourceClip:
    """Load or regenerate one source, from a spec `_speaker_rows` has checked;
    the spec string becomes its clip id.

    `synth:<generator>:<tag>-<name>` draws from the stream `<tag>-speech`
    (speechlike) or `<tag>-noise` (a noise kind) of the corpus seed.
    """
    parts = spec.split(":")
    if parts[0] == "wav":
        from .audio_io import read_wav
        from .dsp import resample, standardize

        w = standardize(resample(read_wav(":".join(parts[1:])), cfg.sample_rate_hz))
        return SourceClip(Waveform(_unit_power(w.samples), cfg.sample_rate_hz), -1, spec)
    generator, tag, fs = parts[1], parts[2].rsplit("-", 1)[0], cfg.sample_rate_hz
    if generator == "speechlike":
        clip = synth_speechlike(duration_s, stream_seed(corpus_seed, f"{tag}-speech"), fs)
    else:
        clip = synth_noise(generator, duration_s, stream_seed(corpus_seed, f"{tag}-noise"), fs)
    return SourceClip(clip.waveform, clip.class_id, spec)


def _speaker_rows(rows) -> dict:
    """Check every row's split, noise class, seed, SNR and source specs, and
    give each distinct train/val speech spec (one "speaker") its own
    source-table row after the noise-kind rows 1..4. Test-split sources are
    out-of-set and get none. A spec is `wav:<path>` or
    `synth:<generator>:<tag>`, whose generator is `speechlike` for the speech
    and the row's noise kind for the noise."""
    speakers = {}
    for row in rows:
        if row.split not in SPLITS:
            raise ValueError(f"{row.where}: unknown split {row.split!r}")
        if not 1 <= row.class_id <= len(NOISE_KINDS):
            raise ValueError(f"{row.where}: noise class {row.class_id} outside 1..{len(NOISE_KINDS)}")
        for slot, spec, kind in zip(("speech", "noise"), row.specs, ("speechlike", NOISE_KINDS[row.class_id - 1])):
            parts = spec.split(":")
            if parts[0] != "wav" and (parts[:2] != ["synth", kind] or len(parts) != 3):
                raise ValueError(f"{row.where}: {slot} spec {spec!r} must be wav:<path> or synth:{kind}:<tag>")
        if not 0 <= row.seed < 2**64:
            raise ValueError(f"{row.where}: seed must be in [0, 2**64), got {row.seed}")
        if not -SNR_LIMIT_DB <= row.snr_db <= SNR_LIMIT_DB:
            raise ValueError(f"{row.where}: snr_db must be in [-{SNR_LIMIT_DB:g}, {SNR_LIMIT_DB:g}] dB, "
                             f"got {row.snr_db}")
        if row.split != "test":
            speakers.setdefault(row.specs[0], 1 + len(NOISE_KINDS) + len(speakers))
    return speakers


class RecordStream(NamedTuple):
    """A manifest's records, built one at a time as `records` is read; the
    other fields come from the rows alone, before any audio is made."""

    records: Iterator  # (split, MixRecord) for each row, in order
    n_sources: int  # rows needed in the source table (train + val sources)
    splits: frozenset  # splits that have at least one row


def stream_records(rows, corpus_seed: int, cfg: StftConfig, clip_duration_s: float) -> RecordStream:
    """Check every row, then stream `(split, MixRecord)` for each row in order;
    a record is built only when the reader reaches its row."""
    speakers = _speaker_rows(rows)

    def records():
        for row in rows:
            speech, noise = (_clip_from_spec(s, corpus_seed, cfg, clip_duration_s) for s in row.specs)
            noise = SourceClip(noise.waveform, row.class_id, noise.clip_id)
            source_ids = [0 if row.split == "test" else speakers[row.specs[0]], row.class_id]
            yield row.split, mix_at_snr(speech, noise, row.snr_db, row.seed, cfg, row.clip_id, source_ids)

    return RecordStream(records(), 1 + len(NOISE_KINDS) + len(speakers),
                        frozenset(row.split for row in rows))


# --- manifest (external interface) -------------------------------------


def write_manifest(path, rows) -> None:
    """One row per line:
    clip_id, split, noise class_id, source specs, mixture seed, snr_db.

    The source-spec field holds `speech_spec,noise_spec`, each either
    `synth:<generator>:<clip_id>` or `wav:<path>`.
    """
    lines = [
        f"{r.clip_id}\t{r.split}\t{r.class_id}\t{','.join(r.specs)}\t{r.seed}\t{r.snr_db!r}"
        for r in rows
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def manifest_rows(path) -> list:
    """Parse a manifest into the rows :func:`write_manifest` writes."""
    rows = []
    with open(path, "rb") as f:  # decoded line by line, so a bad byte names its line
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                clip_id, split, class_id, spec, seed, snr_db = line.rstrip("\r\n").split("\t")
                speech_spec, noise_spec = spec.split(",")
                rows.append(ManifestRow(f"{path}:{lineno}", clip_id, split, int(class_id),
                                        (speech_spec, noise_spec), int(seed), float(snr_db)))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if not rows:
        raise EmptyCorpus(f"manifest {path} is empty")
    return rows


def read_manifest(
    path,
    corpus_seed: int,
    cfg: StftConfig = StftConfig(),
    clip_duration_s: float = 3.0,
) -> RecordStream:
    """Parse and check a manifest once, and stream its records (synthetic
    clips are regenerated as each record is built)."""
    return stream_records(manifest_rows(path), corpus_seed, cfg, clip_duration_s)
