"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure). Criteria 6 and 7 share one desk-scale training run through a
module fixture, which dominates the suite's runtime.
"""

import math
import time

import numpy as np
import pytest

from scesep import nn
from scesep.dsp import StftConfig, Waveform, compress, istft, stft
from scesep.inference import denoise, reconstruct_binary, reconstruct_ratio
from scesep.metrics import best_permutation
from scesep.mixtures import SourceClip, build_corpus, mix_at_snr
from scesep.model import ModelConfig, sce_loss, train
from scesep.seeding import rng_for
from scesep import snmf as snmf_mod
from scesep.verify import run_gradient_checks

from oracles import sce_loss_oracle

CFG = StftConfig()


def verdict(ok: bool, criterion: str, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {criterion}{suffix}", flush=True)
    return ok


def tones(freq_bins, clip_id, seed, class_id=0, duration_s=3.0):
    """Unit-power stack of bin-centered sinusoids."""
    fs = CFG.sample_rate_hz
    t = np.arange(int(duration_s * fs)) / fs
    rng = np.random.default_rng(seed)
    sig = sum(
        np.sin(2 * np.pi * (k * fs / CFG.window_len) * t + rng.uniform(0, 2 * np.pi))
        for k in freq_bins
    )
    sig = sig / np.sqrt(np.mean(sig**2))
    return SourceClip(Waveform(sig, fs), class_id, clip_id)


def disjoint_mixture(seed):
    """A 0 dB mixture whose sources occupy disjoint frequency bins."""
    rng = np.random.default_rng(seed)
    lo = sorted(rng.choice(np.arange(8, 90), size=4, replace=False))
    hi = sorted(rng.choice(np.arange(140, 250), size=4, replace=False))
    speech = tones(lo, f"lo-{seed}", seed * 2 + 1)
    noise = tones(hi, f"hi-{seed}", seed * 2 + 2, class_id=1)
    return mix_at_snr(speech, noise, 0.0, seed=seed)


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    results = run_gradient_checks(seed=0)
    elapsed = time.monotonic() - start
    ok = all(passed for _, _, _, passed in results) and elapsed < 60.0
    worst = max(err for _, err, _, _ in results)
    assert verdict(
        ok,
        "criterion 1: every layer and loss matches finite differences",
        f"worst rel error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_loss_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        B, T, F, M, E = rng.integers(1, 7, size=5)
        v_i = rng.standard_normal((B, T, F, E))
        v_o = rng.standard_normal((B, M, E))
        y = np.where(rng.random((B, T, F, M)) < 0.5, -1.0, 1.0)
        fast = float(sce_loss(nn.Tensor(v_i), nn.Tensor(v_o), y).data)
        worst = max(worst, abs(fast - sce_loss_oracle(v_i, v_o, y)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 10.0
    assert verdict(
        ok,
        "criterion 2: tensorized loss equals the scalar oracle on 50 shapes",
        f"worst abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_analytic_loss_anchor():
    B, T, F, M, E = 3, 5, 7, 2, 4
    v_i = nn.Tensor(np.zeros((B, T, F, E)))
    v_o = nn.Tensor(np.zeros((B, M, E)))
    y = np.where(np.random.default_rng(3).random((B, T, F, M)) < 0.5, -1.0, 1.0)
    per_bin = float(sce_loss(v_i, v_o, y).data) / (T * F)
    err = abs(per_bin - math.log(2.0))
    assert verdict(
        err < 1e-12,
        "criterion 3: zero-embedding per-bin loss equals log 2",
        f"abs err {err:.2e}",
    )


def test_criterion_4_stft_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    worst_rt = 0.0
    for _ in range(100):
        w = Waveform(rng.standard_normal(2 * CFG.sample_rate_hz), CFG.sample_rate_hz)
        out = istft(stft(w, CFG), CFG, len(w))
        rel = np.linalg.norm(out.samples - w.samples) / np.linalg.norm(w.samples)
        worst_rt = max(worst_rt, rel)
    a = Waveform(rng.standard_normal(20000), CFG.sample_rate_hz)
    b = Waveform(rng.standard_normal(20000), CFG.sample_rate_hz)
    combo = Waveform(1.7 * a.samples - 0.4 * b.samples, CFG.sample_rate_hz)
    lin = np.abs(stft(combo, CFG) - (1.7 * stft(a, CFG) - 0.4 * stft(b, CFG))).max()
    lin_rel = lin / np.abs(stft(combo, CFG)).max()
    elapsed = time.monotonic() - start
    ok = worst_rt < 1e-6 and lin_rel < 1e-9 and elapsed < 30.0
    assert verdict(
        ok,
        "criterion 4: inverse-STFT round trip and STFT linearity",
        f"round trip {worst_rt:.2e}, linearity {lin_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_oracle_mask_bound():
    start = time.monotonic()
    worst = np.inf
    for seed in range(10):
        rec = disjoint_mixture(seed)
        stems = reconstruct_binary(rec.mixture_spec, rec.labels, CFG, length=len(rec.mixture))
        res = best_permutation(rec.sources, stems, mixture=rec.mixture)
        worst = min(worst, min(res.sdr_improvement_db))
    elapsed = time.monotonic() - start
    ok = worst > 20.0 and elapsed < 60.0
    assert verdict(
        ok,
        "criterion 5: true-label binary masks beat +20 dB on disjoint mixtures",
        f"worst improvement {worst:.1f} dB, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def desk_run():
    """Train the reference desk-scale model once; criteria 6 and 7 share it."""
    corpus = build_corpus(64, 8, 16, seed=11)
    cfg = ModelConfig(n_table_rows=corpus.n_sources)
    start = time.monotonic()
    state = train(corpus.train, corpus.val, cfg, seed=1)
    train_seconds = time.monotonic() - start

    def mean_improvement(stems_fn):
        per_clip = []
        for rec in corpus.test:
            stems = stems_fn(rec)
            res = best_permutation(rec.sources, stems, mixture=rec.mixture)
            per_clip.append(np.mean(res.sdr_improvement_db))
        return float(np.mean(per_clip))

    means = {}
    for mode in ("mi", "cluster"):
        means[mode] = mean_improvement(
            lambda rec, m=mode: denoise(state.model, rec.mixture, mode=m, k=2, seed=rec.seed).stems
        )

    snmf_cfg = snmf_mod.SnmfConfig()
    by_class = {}
    for rec in corpus.train:
        for idx, spec in enumerate(rec.source_specs):
            class_id = 0 if idx == 0 else 1
            by_class.setdefault(class_id, []).append(
                snmf_mod.trim_silence(compress(spec).mag, snmf_cfg.trim_threshold)
            )
    dicts = [
        snmf_mod.fit_dictionary(mags, snmf_cfg, class_id, seed=0)[0]
        for class_id, mags in sorted(by_class.items())
    ]

    def snmf_stems(rec):
        masks = snmf_mod.separate(compress(rec.mixture_spec).mag, dicts, snmf_cfg, seed=0)
        return reconstruct_ratio(rec.mixture_spec, masks, CFG, length=len(rec.mixture))

    means["snmf"] = mean_improvement(snmf_stems)
    return {"means": means, "train_seconds": train_seconds}


@pytest.mark.slow
def test_criterion_6_desk_scale_learning_trend(desk_run):
    mi = desk_run["means"]["mi"]
    cluster = desk_run["means"]["cluster"]
    in_budget = desk_run["train_seconds"] < 30 * 60
    ok = mi >= 5.0 and cluster >= 3.0 and mi >= cluster and in_budget
    assert verdict(
        ok,
        "criterion 6: desk-scale trend (MI >= +5 dB, cluster >= +3 dB, MI >= cluster)",
        f"MI {mi:+.2f} dB, cluster {cluster:+.2f} dB, "
        f"train {desk_run['train_seconds'] / 60:.1f} min",
    )


@pytest.mark.slow
def test_criterion_7_snmf_baseline_sanity(desk_run):
    # (a) objective monotone non-increasing on 20 random problems
    worst_rise = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t, f = int(rng.integers(20, 60)), int(rng.integers(10, 40))
        cfg = snmf_mod.SnmfConfig(
            rank=int(rng.integers(2, 12)),
            sparsity=float(rng.uniform(0.0, 0.5)),
            max_iters=100,
            tol=0.0,
        )
        _, history = snmf_mod.fit_dictionary([rng.random((t, f))], cfg, 0, seed)
        worst_rise = max(worst_rise, float(np.max(np.diff(history))))
    monotone = worst_rise <= 1e-10

    # (b) disjoint-span mixtures separated at >= +3 dB
    snmf_cfg = snmf_mod.SnmfConfig(rank=8)
    train_recs = [disjoint_mixture(s) for s in range(30, 36)]
    per_class = {0: [], 1: []}
    for rec in train_recs:
        for idx, spec in enumerate(rec.source_specs):
            per_class[idx].append(compress(spec).mag)
    dicts = [
        snmf_mod.fit_dictionary(mags, snmf_cfg, cid, seed=0)[0]
        for cid, mags in sorted(per_class.items())
    ]
    imps = []
    for seed in range(40, 44):
        rec = disjoint_mixture(seed)
        masks = snmf_mod.separate(compress(rec.mixture_spec).mag, dicts, snmf_cfg, seed=0)
        stems = reconstruct_ratio(rec.mixture_spec, masks, CFG, length=len(rec.mixture))
        res = best_permutation(rec.sources, stems, mixture=rec.mixture)
        imps.append(np.mean(res.sdr_improvement_db))
    disjoint_gain = float(np.mean(imps))

    # (c) on the held-out set the linear baseline does not beat SCE+MI
    snmf_mean = desk_run["means"]["snmf"]
    mi_mean = desk_run["means"]["mi"]
    ok = monotone and disjoint_gain >= 3.0 and snmf_mean <= mi_mean
    assert verdict(
        ok,
        "criterion 7: SNMF monotone, separates disjoint spans, trails SCE+MI",
        f"worst rise {worst_rise:.1e}, disjoint {disjoint_gain:+.2f} dB, "
        f"SNMF {snmf_mean:+.2f} vs MI {mi_mean:+.2f} dB",
    )


def test_criterion_8_partition_invariants(tmp_path):
    from scesep.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_train = 4\nn_val = 2\nn_test = 2\nepochs = 2\nbatch_size = 2\n")
    data, run, ev = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
    ok = main(["--config", str(cfg), "--out", str(data), "mix"]) == 0
    manifest = data / "manifest.tsv"
    ok = ok and main(["--config", str(cfg), "--out", str(run), "train", "--manifest", str(manifest)]) == 0
    # eval re-checks mask partitions and K-means inertia monotonicity on
    # every clip and exits non-zero on any violation
    ok = ok and main([
        "--config", str(cfg), "--out", str(ev), "eval",
        "--manifest", str(manifest),
        "--checkpoint", str(run / "model.scem"),
        "--algo", "sce-mi", "--mode", "both",
    ]) == 0
    ok = ok and (ev / "metrics.csv").exists()
    assert verdict(ok, "criterion 8: eval enforces mask-partition invariants")


def test_criterion_9_determinism(tmp_path):
    from scesep.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_train = 4\nn_val = 2\nn_test = 2\nepochs = 2\nbatch_size = 2\n")
    digests = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        data, run, ev = base / "data", base / "run", base / "eval"
        assert main(["--config", str(cfg), "--seed", "5", "--out", str(data), "mix"]) == 0
        manifest = data / "manifest.tsv"
        assert main([
            "--config", str(cfg), "--seed", "5", "--out", str(run),
            "train", "--manifest", str(manifest),
        ]) == 0
        assert main([
            "--config", str(cfg), "--seed", "5", "--out", str(ev),
            "eval", "--manifest", str(manifest),
            "--checkpoint", str(run / "model.scem"), "--algo", "sce-mi",
        ]) == 0
        digests.append(
            (
                manifest.read_bytes(),
                (run / "model.scem").read_bytes(),
                (ev / "metrics.csv").read_bytes(),
            )
        )
    ok = digests[0] == digests[1]
    assert verdict(
        ok, "criterion 9: identical seeds give byte-identical manifests, checkpoints, CSVs"
    )
