"""Command-line surface: mix, train, denoise, eval, gradcheck.

Exit codes: 0 success, 1 verification/eval failure, 2 usage or I/O error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import snmf as snmf_mod
from .audio_io import read_wav, write_wav
from .config import parse_config_file, resolve
from .dsp import Waveform, compress, istft
from .errors import EmptyCorpus, ScesepError
from .inference import (
    denoise,
    embed_mixture,
    reconstruct_binary,
    reconstruct_ratio,
    separate_embedded,
)
from .metrics import CSV_HEADER, best_permutation
from .mixtures import (
    NOISE_KINDS,
    corpus_rows,
    read_manifest,
    stream_records,
    write_manifest,
)
from .model import (
    ModelConfig,
    load_checkpoint,
    load_inference_model,
    save_checkpoint,
    train,
    write_log,
)
from .seeding import stream_seed
from .verify import run_gradient_checks

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

ALGOS = ("sce-mi", "snmf", "oracle-binary", "identity")


def _cluster_count(text):
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


def _build_parser():
    parser = argparse.ArgumentParser(prog="scesep", description=__doc__)
    parser.add_argument("--config", type=Path, help="key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mix = sub.add_parser("mix", help="build a synthetic corpus manifest")
    p_mix.add_argument("--materialize", action="store_true", help="also write WAVs")

    p_train = sub.add_parser("train", help="train SCE+MI or fit SNMF dictionaries")
    p_train.add_argument("--manifest", type=Path, required=True)
    p_train.add_argument("--algo", choices=("sce-mi", "snmf"), default="sce-mi")
    p_train.add_argument("--resume", type=Path, help="checkpoint to continue from")

    p_den = sub.add_parser("denoise", help="separate one WAV into source stems")
    p_den.add_argument("--checkpoint", type=Path, required=True)
    p_den.add_argument("input_wav", type=Path)
    p_den.add_argument("--mode", choices=("cluster", "mi"), default="cluster")
    p_den.add_argument("--K", type=_cluster_count, default=2)

    p_eval = sub.add_parser("eval", help="evaluate algorithms on the test split")
    p_eval.add_argument("--manifest", type=Path, required=True)
    p_eval.add_argument("--checkpoint", type=Path, help="SCEM checkpoint for sce-mi")
    p_eval.add_argument("--snmf-dir", type=Path, help="directory of SNMF dictionaries")
    p_eval.add_argument("--algo", action="append", choices=ALGOS)
    p_eval.add_argument("--mode", choices=("cluster", "mi", "both"), default="both")

    sub.add_parser("gradcheck", help="finite-difference verification suite")
    return parser


def cmd_mix(cfg, out_dir: Path, materialize: bool) -> int:
    if cfg.n_train == cfg.n_val == cfg.n_test == 0:
        raise ValueError("n_train, n_val and n_test are all 0: the corpus would have no rows")
    rows = corpus_rows(
        cfg.n_train, cfg.n_val, cfg.n_test, (cfg.snr_min_db, cfg.snr_max_db), cfg.seed
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.tsv"
    write_manifest(manifest, rows)
    print(f"wrote {manifest}: train={cfg.n_train} val={cfg.n_val} test={cfg.n_test}")
    if materialize:
        n_wavs = 0
        stream = stream_records(rows, cfg.seed, cfg.stft_config(), cfg.clip_duration_s)
        for _, rec in stream.records:
            wavs = {"mix": rec.mixture, **{f"src{i}": s for i, s in enumerate(rec.sources)}}
            # Unit-power sources peak far above PCM16 full scale. One gain per
            # record clips no sample and keeps mix = src0 + src1.
            gain = (32767 / 32768) / max(np.abs(w.samples).max() for w in wavs.values())
            for name, wav in wavs.items():
                scaled = Waveform(gain * wav.samples, wav.sample_rate_hz)
                write_wav(out_dir / f"{rec.clip_id}.{name}.wav", scaled)
                n_wavs += 1
        print(f"materialized {n_wavs} WAV files")
    return EXIT_OK


def cmd_train(cfg, out_dir: Path, manifest: Path, algo: str, resume: Path) -> int:
    if algo == "snmf" and resume is not None:
        raise ValueError("--resume applies only to --algo sce-mi")
    stream = read_manifest(manifest, cfg.seed, cfg.stft_config(), cfg.clip_duration_s)
    if "train" not in stream.splits:
        raise EmptyCorpus(f"manifest {manifest} has no train rows")
    if algo == "snmf":
        return _train_snmf(cfg, out_dir, stream.records)
    # Test records are built and dropped at once; no loop variable outlives them.
    kept = [(split, rec) for split, rec in stream.records if split != "test"]
    out_dir.mkdir(parents=True, exist_ok=True)
    model_cfg = cfg.model_config(stream.n_sources)
    state = None
    if resume is not None:
        state, meta = load_checkpoint(resume)
        # Only epochs may differ: raising it is what a resume is for.
        saved = dict(vars(state.model.config), seed=meta["seed"], epochs=model_cfg.epochs)
        run = dict(vars(model_cfg), seed=cfg.seed)
        conflicts = ", ".join(k for k in run if run[k] != saved[k])
        if conflicts:
            raise ValueError(f"{resume}: run config conflicts with the checkpoint on {conflicts}")
        state.model.config = model_cfg
        print(f"resuming from {resume} at epoch {state.epoch}")
    state = train([rec for split, rec in kept if split == "train"],
                  [rec for split, rec in kept if split == "val"], model_cfg, cfg.seed, state=state)
    ckpt = out_dir / "model.scem"
    save_checkpoint(ckpt, state, cfg.seed)
    write_log(out_dir / "train_log.csv", state.log_rows)
    if state.log_rows:
        _, train_sce, train_mi, _, _ = state.log_rows[-1]
        summary = f"final train_sce={train_sce:.4f} train_mi={train_mi:.6f}"
    else:
        summary = f"no epochs trained (at epoch {state.epoch} of {model_cfg.epochs})"
    print(f"wrote {ckpt} (best val at epoch {state.best_epoch}); {summary}")
    return EXIT_OK


def _train_snmf(cfg, out_dir: Path, records) -> int:
    snmf_cfg = cfg.snmf_config()
    by_class = {}  # each train record is folded in as it is built, then dropped
    for split, rec in records:
        if split != "train":
            continue
        for class_id, source_mag in zip((0, 1 + NOISE_KINDS.index(rec.noise_kind)), rec.source_mags):
            mag = snmf_mod.trim_silence(compress(source_mag).mag, snmf_cfg.trim_threshold)
            by_class.setdefault(class_id, []).append(mag)
    out_dir.mkdir(parents=True, exist_ok=True)
    for class_id, mags in sorted(by_class.items()):
        w, history = snmf_mod.fit_dictionary(mags, snmf_cfg, class_id, cfg.seed)
        path = out_dir / f"snmf_class{class_id}.dict"
        snmf_mod.save_dictionary(path, w, class_id)
        print(f"wrote {path} (rank {snmf_cfg.rank}, final objective {history[-1]:.4f})")
    return EXIT_OK


def cmd_denoise(cfg, out_dir: Path, checkpoint: Path, input_wav: Path, mode: str, k: int) -> int:
    if mode == "mi" and k != ModelConfig.n_mix_sources:
        raise ValueError(f"--mode mi always separates {ModelConfig.n_mix_sources} sources; "
                         f"--K {k} applies only to --mode cluster")
    model = load_inference_model(checkpoint)
    w = read_wav(input_wav)
    stft_cfg = cfg.stft_config()
    # Counted at the model's rate, which the WAV is resampled to.
    need = stft_cfg.min_samples
    if len(w) * stft_cfg.sample_rate_hz < need * w.sample_rate_hz:
        raise ValueError(f"{input_wav}: need >= {need} samples at {stft_cfg.sample_rate_hz} Hz, "
                         f"got {len(w)} at {w.sample_rate_hz} Hz")
    if w.sample_rate_hz != stft_cfg.sample_rate_hz:
        print(
            f"warning: resampling {input_wav} from {w.sample_rate_hz} Hz "
            f"to {stft_cfg.sample_rate_hz} Hz",
            file=sys.stderr,
        )
    try:
        result = denoise(
            model, w, mode=mode, k=k, cfg=stft_cfg, seed=cfg.seed,
            restarts=cfg.kmeans_restarts, low_energy_threshold=cfg.low_energy_threshold,
            max_iter=cfg.kmeans_max_iter,
        )
    except MemoryError as e:
        raise MemoryError(f"{e} ({input_wav.name}: {len(w) / w.sample_rate_hz:.1f} s "
                          f"at {w.sample_rate_hz} Hz)") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, stem in enumerate(result.stems):
        path = out_dir / f"{input_wav.stem}.src{i}.wav"
        write_wav(path, stem)
        rms = float(np.sqrt(np.mean(stem.samples**2)))
        print(f"{path} rms={rms:.6f}")
    return EXIT_OK


def _check_partition_invariants(rec, result, stft_cfg) -> None:
    """Mask partition invariants, enforced on every eval run."""
    if result.mode == "mi":
        roundtrip = istft(rec.mixture_spec, stft_cfg, len(rec.mixture)).samples
        total = np.sum([s.samples for s in result.stems], axis=0)
        if np.max(np.abs(total - roundtrip)) > 1e-9:
            raise ScesepError("ratio-mask stems do not sum to the mixture")
    else:
        onehot = (result.masks + 1.0) / 2.0
        if not np.allclose(onehot.sum(axis=2), 1.0):
            raise ScesepError("binary masks are not an exact partition")
        history = np.array(result.assignment.inertia_history)
        if np.any(np.diff(history) > 1e-9 * max(history[0], 1.0)):
            raise ScesepError("K-means inertia increased across Lloyd iterations")


def _estimates_for(algo, mode, rec, model, ws, cfg, stft_cfg):
    """Yield (mode_tag, stems) pairs for one algorithm on one record."""
    if algo == "identity":
        yield "", [rec.mixture for _ in rec.sources]
    elif algo == "oracle-binary":
        yield "", reconstruct_binary(rec.mixture_spec, rec.labels, stft_cfg, len(rec.mixture))
    elif algo == "snmf":
        masks = snmf_mod.separate(compress(rec.mixture_spec).mag, ws, cfg.snmf_config(), cfg.seed)
        yield "", reconstruct_ratio(rec.mixture_spec, masks, stft_cfg, len(rec.mixture))
    else:  # sce-mi
        modes = ("cluster", "mi") if mode == "both" else (mode,)
        emb = embed_mixture(model, rec.mixture, stft_cfg)  # one forward serves every mode
        for m in modes:
            result = separate_embedded(
                model, emb, mode=m, k=len(rec.sources),
                seed=stream_seed(cfg.seed, f"eval-{rec.clip_id}"),
                restarts=cfg.kmeans_restarts,
                low_energy_threshold=cfg.low_energy_threshold,
                max_iter=cfg.kmeans_max_iter,
            )
            _check_partition_invariants(rec, result, stft_cfg)
            yield m, result.stems


def cmd_eval(cfg, out_dir: Path, manifest: Path, checkpoint: Path,
             snmf_dir: Path, algos, mode: str) -> int:
    algos = list(dict.fromkeys(algos or ["sce-mi"]))  # a repeated --algo counts once
    for algo, flag, given in (("sce-mi", "--checkpoint", checkpoint), ("snmf", "--snmf-dir", snmf_dir)):
        if algo in algos and given is None:
            raise ValueError(f"eval --algo {algo} needs {flag}")
    model = load_inference_model(checkpoint) if "sce-mi" in algos else None
    stft_cfg = cfg.stft_config()
    ws = None  # the speech W, then every noise W side by side
    if "snmf" in algos:
        speech = snmf_mod.load_dictionary(snmf_dir / "snmf_class0.dict", stft_cfg.n_freq)
        noise_ws = []
        for kind_idx in range(1, 1 + len(NOISE_KINDS)):
            path = snmf_dir / f"snmf_class{kind_idx}.dict"
            if path.exists():
                noise_ws.append(snmf_mod.load_dictionary(path, stft_cfg.n_freq))
        if not noise_ws:
            raise FileNotFoundError(
                f"{snmf_dir} holds no noise dictionary snmf_class1..{len(NOISE_KINDS)}.dict"
            )
        ws = [speech, np.hstack(noise_ws)]
    stream = read_manifest(manifest, cfg.seed, stft_cfg, cfg.clip_duration_s)
    if "test" not in stream.splits:
        raise EmptyCorpus(f"manifest {manifest} has no test rows")

    # Each test record is scored by every algo as it is built, then dropped;
    # metrics.csv keeps its rows grouped by algo.
    by_algo = {algo: [] for algo in algos}
    gains = {}  # (algo, mode_tag) -> noise kind -> SDR improvements
    for split, rec in stream.records:
        if split != "test":
            continue
        for algo in algos:
            for mode_tag, stems in _estimates_for(algo, mode, rec, model, ws, cfg, stft_cfg):
                res = best_permutation(rec.sources, stems, rec.mixture)
                by_kind = gains.setdefault((algo, mode_tag), {})
                by_kind.setdefault(rec.noise_kind, []).extend(res.sdr_improvement_db)
                for est_idx, ref_idx in enumerate(res.permutation):
                    by_algo[algo].append(
                        f"{rec.clip_id},{algo},{mode_tag},{rec.snr_db!r},{rec.noise_kind},"
                        f"{ref_idx},{res.per_source_sdr_db[est_idx]!r},"
                        f"{res.sdr_improvement_db[est_idx]!r}"
                    )
    rows = [row for algo_rows in by_algo.values() for row in algo_rows]
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(CSV_HEADER + "\n")
        f.write("\n".join(rows) + "\n")
    print(f"wrote {csv_path} ({len(rows)} rows)")
    for (algo, mode_tag), by_kind in gains.items():
        label = f"{algo}/{mode_tag}" if mode_tag else algo
        for kind, vals in sorted(by_kind.items()):
            vals = np.array(vals)
            print(f"{label:24s} noise={kind:12s} mean={vals.mean():+7.2f} dB "
                  f"median={np.median(vals):+7.2f} dB n={len(vals)}")
    return EXIT_OK


def cmd_gradcheck(seed: int) -> int:
    failed = False
    for name, err, tol, ok in run_gradient_checks(seed):
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name:28s} max_rel_error={err:.3e} tol={tol:.0e}")
        failed |= not ok
    return EXIT_FAIL if failed else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_overrides = parse_config_file(args.config) if args.config else {}
        cfg = resolve(file_overrides, {"seed": args.seed})
        if args.command == "mix":
            return cmd_mix(cfg, args.out, args.materialize)
        if args.command == "train":
            return cmd_train(cfg, args.out, args.manifest, args.algo, args.resume)
        if args.command == "denoise":
            return cmd_denoise(cfg, args.out, args.checkpoint, args.input_wav, args.mode, args.K)
        if args.command == "eval":
            return cmd_eval(cfg, args.out, args.manifest, args.checkpoint,
                            args.snmf_dir, args.algo, args.mode)
        return cmd_gradcheck(cfg.seed)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ScesepError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as e:
        print(f"error: out of memory in {args.command}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
