import numpy as np
import pytest

from scesep import mixtures
from scesep.audio_io import write_wav
from scesep.dsp import StftConfig, Waveform, stft
from scesep.errors import ShapeMismatch, SilentSource, UnknownKind
from scesep.inference import reconstruct_binary
from scesep.metrics import best_permutation
from scesep.mixtures import (
    NOISE_KINDS,
    SPLITS,
    Corpus,
    SourceClip,
    build_corpus,
    corpus_rows,
    make_labels,
    manifest_rows,
    mix_at_snr,
    read_manifest,
    synth_noise,
    synth_speechlike,
    write_manifest,
)

CFG = StftConfig()


def tone_clip(freqs, clip_id="tone", seed=0, duration_s=3.0, class_id=0):
    """Harmonically clean clip at bin-centered frequencies."""
    fs = 10000
    t = np.arange(int(duration_s * fs)) / fs
    rng = np.random.default_rng(seed)
    sig = sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)) for f in freqs)
    sig = sig / np.sqrt(np.mean(sig**2))
    return SourceClip(Waveform(sig, fs), class_id, clip_id)


class TestMixAtSnr:
    def test_equal_power_zero_snr(self):
        a = tone_clip([625.0], "a", 1)
        b = tone_clip([3125.0], "b", 2, class_id=1)
        rec = mix_at_snr(a, b, 0.0, seed=3)
        p = [np.mean(s.samples**2) for s in rec.sources]
        assert abs(10 * np.log10(p[0] / p[1])) < 1e-9

    def test_gain_formula(self):
        # P_speech = 1, P_noise = 4, snr 6.0206 dB -> g = 0.25
        fs = 10000
        n = 3 * fs
        ones = SourceClip(Waveform(np.sign(np.sin(2 * np.pi * 625 * np.arange(n) / fs)) * 1.0, fs), 0, "s")
        noise = SourceClip(Waveform(np.sign(np.sin(2 * np.pi * 1250 * np.arange(n) / fs)) * 2.0, fs), 1, "n")
        rec = mix_at_snr(ones, noise, 6.020599913279624, seed=4)
        g = np.abs(rec.sources[1].samples).max() / 2.0
        assert abs(g - 0.25) < 1e-9

    def test_negative_snr_gain(self):
        a = tone_clip([625.0], "a", 1)
        b = tone_clip([3125.0], "b", 2, class_id=1)
        rec = mix_at_snr(a, b, -5.0, seed=5)
        p = [np.mean(s.samples**2) for s in rec.sources]
        measured = 10 * np.log10(p[0] / p[1])
        assert abs(measured - (-5.0)) < 1e-9

    def test_silent_source(self):
        silent = SourceClip(Waveform(np.zeros(30000), 10000), 0, "z")
        with pytest.raises(SilentSource):
            mix_at_snr(silent, tone_clip([625.0], class_id=1), 0.0, seed=6)

    def test_mixture_sums(self):
        rec = mix_at_snr(
            synth_speechlike(3.0, 7), synth_noise("siren", 3.0, 8), 2.0, seed=9
        )
        total = rec.sources[0].samples + rec.sources[1].samples
        assert np.abs(rec.mixture.samples - total).max() < 1e-12
        spec_err = np.abs(
            rec.mixture_spec - stft(rec.sources[0], CFG) - stft(rec.sources[1], CFG)
        ).max()
        assert spec_err < 1e-9


    def test_source_mags_are_stft_magnitudes(self):
        rec = mix_at_snr(synth_speechlike(3.0, 7), synth_noise("siren", 3.0, 8), 2.0, seed=9)
        for wav, mag in zip(rec.sources, rec.source_mags, strict=True):
            assert mag.dtype == np.float64
            np.testing.assert_array_equal(mag, np.abs(stft(wav, CFG)))


class TestMakeLabels:
    def test_rule(self):
        a = np.array([[3.0]])
        b = np.array([[5.0]])
        np.testing.assert_array_equal(make_labels([a, b])[0, 0], [-1.0, 1.0])

    def test_tie_lowest_index(self):
        a = np.array([[2.0]])
        b = np.array([[2.0]])
        np.testing.assert_array_equal(make_labels([a, b])[0, 0], [1.0, -1.0])

    def test_single_source(self):
        a = np.zeros((3, 4))
        assert np.all(make_labels([a]) == 1.0)

    def test_one_hot(self):
        rng = np.random.default_rng(0)
        mags = [np.abs(rng.standard_normal((5, 6))) for _ in range(3)]
        y = make_labels(mags)
        np.testing.assert_allclose(((y + 1) / 2).sum(axis=2), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_labels([np.zeros((2, 3)), np.zeros((3, 2))])

    def test_int8_plus_minus_one(self):
        rec = mix_at_snr(synth_speechlike(3.0, 7), synth_noise("siren", 3.0, 8), 2.0, seed=9)
        rng = np.random.default_rng(1)
        mags = [np.abs(rng.standard_normal((5, 6))) for _ in range(3)]
        for y in (rec.labels, make_labels(mags), make_labels(rec.source_mags)):
            assert y.dtype == np.int8
            assert set(np.unique(y)) == {-1, 1}
        np.testing.assert_array_equal(rec.labels, make_labels(rec.source_mags))

    def test_int8_labels_reconstruct_like_float64(self):
        rec = mix_at_snr(synth_speechlike(3.0, 7), synth_noise("siren", 3.0, 8), 2.0, seed=9)
        n = len(rec.mixture)
        fast = reconstruct_binary(rec.mixture_spec, rec.labels, CFG, n)
        ref = reconstruct_binary(rec.mixture_spec, rec.labels.astype(np.float64), CFG, n)
        for a, b in zip(fast, ref, strict=True):
            np.testing.assert_array_equal(a.samples, b.samples)


class TestGenerators:
    def test_deterministic(self):
        a = synth_speechlike(2.5, 42)
        b = synth_speechlike(2.5, 42)
        np.testing.assert_array_equal(a.waveform.samples, b.waveform.samples)
        for kind in NOISE_KINDS:
            x = synth_noise(kind, 2.5, 7)
            y = synth_noise(kind, 2.5, 7)
            np.testing.assert_array_equal(x.waveform.samples, y.waveform.samples)

    def test_speechlike_band_limited(self):
        clip = synth_speechlike(3.0, 3)
        spec = np.abs(np.fft.rfft(clip.waveform.samples)) ** 2
        freqs = np.fft.rfftfreq(len(clip.waveform.samples), 1e-4)
        assert spec[freqs < 4000].sum() / spec.sum() > 0.8

    def test_siren_tracks_sweep(self):
        clip = synth_noise("siren", 3.0, 4)
        s = np.abs(stft(clip.waveform, CFG))
        peaks = np.argmax(s, axis=1)
        # single dominant moving peak: peak bin varies and dominates its frame
        assert peaks.std() > 1.0
        # energy concentrated within a few bins of the moving peak
        conc = []
        for t, p in enumerate(peaks):
            lo, hi = max(0, p - 3), min(s.shape[1], p + 4)
            conc.append(s[t, lo:hi].sum() / (s[t].sum() + 1e-12))
        assert np.median(conc) > 0.5

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            synth_noise("volcano", 3.0, 0)


class TestBuildCorpus:
    def test_sizes_and_disjoint_clips(self):
        c = build_corpus(8, 2, 2, seed=1)
        assert (len(c.train), len(c.val), len(c.test)) == (8, 2, 2)
        seen = {}
        for split in ("train", "val", "test"):
            for rec in getattr(c, split):
                for cid in rec.source_clip_ids:
                    assert seen.setdefault(cid, split) == split
        splits_per_clip = set(seen.values())
        assert splits_per_clip == {"train", "val", "test"}

    def test_snr_in_range(self):
        c = build_corpus(6, 0, 0, snr_range_db=(-5, 5), seed=2)
        for rec in c.train:
            p = [np.mean(s.samples**2) for s in rec.sources]
            measured = 10 * np.log10(p[0] / p[1])
            assert -5 - 1e-6 <= measured <= 5 + 1e-6
            assert abs(measured - rec.snr_db) < 1e-6

    def test_deterministic(self):
        a = build_corpus(3, 1, 1, seed=9)
        b = build_corpus(3, 1, 1, seed=9)
        for ra, rb in zip(a.train + a.val + a.test, b.train + b.val + b.test):
            np.testing.assert_array_equal(ra.mixture.samples, rb.mixture.samples)
            assert ra.snr_db == rb.snr_db


def test_oracle_mask_recovers_disjoint_sources():
    # Spectrally disjoint bin-centered tone stacks: the true binary mask
    # must recover each source at > 20 dB SDR.
    bin_hz = 10000 / 512
    speech = tone_clip([bin_hz * k for k in (10, 20, 31, 47)], "lo", 1)
    noise = tone_clip([bin_hz * k for k in (150, 170, 200)], "hi", 2, class_id=1)
    rec = mix_at_snr(speech, noise, 0.0, seed=3)
    stems = reconstruct_binary(rec.mixture_spec, rec.labels, CFG, length=len(rec.mixture))
    res = best_permutation(rec.sources, stems, mixture=rec.mixture)
    assert min(res.sdr_improvement_db) > 20.0


def assert_same_records(a, b):
    """Every MixRecord field of two corpora equal, and n_sources."""
    assert a.n_sources == b.n_sources
    for split in ("train", "val", "test"):
        assert len(getattr(a, split)) == len(getattr(b, split))
        for ra, rb in zip(getattr(a, split), getattr(b, split)):
            assert ra.clip_id == rb.clip_id
            np.testing.assert_array_equal(ra.mixture.samples, rb.mixture.samples)
            assert ra.mixture.sample_rate_hz == rb.mixture.sample_rate_hz
            for sa, sb in zip(ra.sources, rb.sources, strict=True):
                np.testing.assert_array_equal(sa.samples, sb.samples)
            assert ra.snr_db == rb.snr_db
            np.testing.assert_array_equal(ra.mixture_spec, rb.mixture_spec)
            for sa, sb in zip(ra.source_mags, rb.source_mags, strict=True):
                np.testing.assert_array_equal(sa, sb)
            np.testing.assert_array_equal(ra.labels, rb.labels)
            assert ra.source_ids == rb.source_ids
            assert ra.source_clip_ids == rb.source_clip_ids
            assert ra.noise_kind == rb.noise_kind
            assert ra.seed == rb.seed


def read_corpus(path, corpus_seed):
    """Collect the records `read_manifest` streams into a Corpus."""
    stream = read_manifest(path, corpus_seed=corpus_seed)
    splits = {split: [] for split in SPLITS}
    for split, rec in stream.records:
        splits[split].append(rec)
    return Corpus(**splits, n_sources=stream.n_sources)


def test_manifest_round_trip(tmp_path):
    corpus = build_corpus(3, 1, 1, seed=5)
    path = tmp_path / "manifest.tsv"
    write_manifest(path, corpus_rows(3, 1, 1, seed=5))
    assert_same_records(corpus, read_corpus(path, corpus_seed=5))


def test_read_manifest_builds_records_only_when_read(tmp_path, monkeypatch):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, corpus_rows(3, 2, 0, seed=5))
    built, real_mix = [], mixtures.mix_at_snr

    def counting_mix(*args, **kwargs):
        built.append(args[5])  # clip_id
        return real_mix(*args, **kwargs)

    monkeypatch.setattr(mixtures, "mix_at_snr", counting_mix)
    stream = read_manifest(path, corpus_seed=5)
    assert stream.n_sources == 1 + len(NOISE_KINDS) + 5  # one speaker per train/val row
    assert stream.splits == {"train", "val"}
    assert built == []  # parsing and checking the rows makes no audio
    assert next(stream.records)[0] == "train" and built == ["train-0"]
    assert [split for split, _ in stream.records] == ["train", "train", "val", "val"]
    assert built == ["train-0", "train-1", "train-2", "val-0", "val-1"]


def write_tone_wav(path, freq_hz, fs=10000):
    write_wav(path, Waveform(0.3 * tone_clip([freq_hz]).waveform.samples[: 3 * fs], fs))


def wav_manifest(tmp_path):
    """Manifest text mixing `wav:` and `synth:` sources; one speech WAV is
    used by two train rows."""
    speech, noise = tmp_path / "speech.wav", tmp_path / "noise.wav"
    write_tone_wav(speech, 625.0)
    write_tone_wav(noise, 3125.0)
    return (
        f"train-0\ttrain\t1\twav:{speech},synth:siren:train-0-siren\t11\t2.5\n"
        f"train-1\ttrain\t3\twav:{speech},wav:{noise}\t12\t-1.25\n"
        f"val-0\tval\t4\tsynth:speechlike:val-0-speech,synth:crowd:val-0-crowd\t13\t0.0\n"
        f"test-0\ttest\t2\tsynth:speechlike:test-0-speech,wav:{noise}\t14\t4.0\n"
    )


def test_wav_manifest_round_trip(tmp_path):
    text = wav_manifest(tmp_path)
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    first.write_text(text)
    corpus = read_corpus(first, corpus_seed=3)
    write_manifest(second, manifest_rows(first))
    assert second.read_text() == text
    assert_same_records(corpus, read_corpus(second, corpus_seed=3))


def test_shared_wav_speaker_gets_one_table_row(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(wav_manifest(tmp_path))
    corpus = read_corpus(path, corpus_seed=3)
    first, second = corpus.train
    speaker_row = 1 + len(NOISE_KINDS)
    assert first.source_ids == [speaker_row, 1]
    assert second.source_ids == [speaker_row, 3]
    assert corpus.val[0].source_ids == [speaker_row + 1, 4]
    assert corpus.test[0].source_ids == [0, 2]
    assert corpus.n_sources == speaker_row + 2
    assert second.noise_kind == "engine"


@pytest.mark.parametrize(
    "field, value, message",
    [
        (2, "0", "noise class 0"),
        (2, "5", "noise class 5"),
        (1, "dev", "unknown split"),
        (3, "synth:speechlike:train-1-speech", "not enough values"),
        (5, "1.0\t2.0", "too many values"),
        (4, "soon", "invalid literal"),
    ],
)
def test_bad_manifest_row_rejected(tmp_path, field, value, message):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, corpus_rows(2, 0, 1, seed=4))
    lines = path.read_text().splitlines()
    row = lines[1].split("\t")
    row[field] = value
    lines[1] = "\t".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path}:2: {message}"):
        read_manifest(path, corpus_seed=4)


def test_blank_manifest_lines_are_skipped(tmp_path):
    path, spaced = tmp_path / "manifest.tsv", tmp_path / "spaced.tsv"
    write_manifest(path, corpus_rows(2, 0, 1, seed=4))
    spaced.write_text("\n" + "\n \t\n".join(path.read_text().splitlines()) + "\n\n")
    rows = manifest_rows(spaced)
    assert [row.where for row in rows] == [f"{spaced}:{n}" for n in (2, 4, 6)]
    assert [row[1:] for row in rows] == [row[1:] for row in manifest_rows(path)]
    assert_same_records(read_corpus(path, corpus_seed=4), read_corpus(spaced, corpus_seed=4))


def test_non_utf8_manifest_byte_names_its_line(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, corpus_rows(2, 0, 1, seed=4))
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 4] = 0xFF  # the fifth byte of line 2
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"{path}:2: 'utf-8' codec can't decode byte 0xff"):
        manifest_rows(path)
