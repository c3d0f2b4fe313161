"""Measure the memory and fault cost of training or of one ``denoise``.

    python3 tests/memory_probe.py train [--epochs N] [--seed S] [--swap NAME[,NAME...]]
    python3 tests/memory_probe.py denoise --seconds S --mode {cluster,mi} [--K K] [--seed S]

``train`` builds the default-config corpus (16 train and 4 validation clips)
and trains the default model for N epochs. With ``--swap``, the child first
replaces each named ``nn`` attribute (a key of ``SWAPS``) with its plain
reference from ``tests/oracles.py``, which gives the same bits; a trick of
the fast form pays only if runs without the swap read lower. ``oracles`` is
imported in every ``train`` child, swaps or none. ``denoise`` writes an
untrained default-model checkpoint and a synthetic 10 kHz WAV of S seconds
(speech-like signal plus engine noise) to a temporary directory, then runs
the CLI's ``denoise`` on it, with ``--K K`` clusters in cluster mode
(default 2); memory does not depend on the weights. Either job runs in a
fresh child process with one BLAS thread, unless ``OPENBLAS_NUM_THREADS`` is
set. One line is printed:

    peak_rss_mb=…  minor_faults=…  sys_s=…  wall_s=…

and, for ``train``, ``  swap=`` with the swapped names (or ``none``).
``peak_rss_mb`` is the child's ``ru_maxrss``, imports and set-up included.
The other three cover the measured job only (the epochs, or the one
``denoise`` command). scesep is imported from the ``src/`` next to this file.
pytest does not collect this file.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# --swap name -> (nn attribute that holds it, or None for the module; its reference in oracles.py)
SWAPS = {
    "_accum": ("Tensor", "accum_copy_oracle"),
    "_unbroadcast": (None, "unbroadcast_sum_oracle"),
    "softmax": (None, "softmax_reduce_oracle"),
    "log_sigmoid": (None, "log_sigmoid_two_pass_oracle"),
    "affine": (None, "affine_add_matmul_oracle"),
    "Adam.step": ("Adam", "adam_step_oracle"),
}


def _swap_names(text):
    names = text.split(",")
    unknown = [n for n in names if n not in SWAPS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown {', '.join(unknown)}; choose from {', '.join(SWAPS)}")
    return names


def _apply_swaps(names):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import oracles
    from scesep import nn

    for name in names:
        owner, ref = SWAPS[name]
        setattr(getattr(nn, owner) if owner else nn, name.rpartition(".")[2], getattr(oracles, ref))


def _train(epochs, seed):
    from scesep import mixtures, model
    from scesep.config import RunConfig

    cfg = RunConfig()
    corpus = mixtures.build_corpus(
        cfg.n_train, cfg.n_val, 0, (cfg.snr_min_db, cfg.snr_max_db),
        seed=seed, cfg=cfg.stft_config(), clip_duration_s=cfg.clip_duration_s,
    )
    model_cfg = cfg.model_config(corpus.n_sources)
    return lambda: model.train(corpus.train, corpus.val, model_cfg, seed, epochs=epochs)


def _denoise(workdir, mode, k, seed):
    from scesep.cli import main

    args = ["--seed", str(seed), "--out", str(Path(workdir) / "stems"), "denoise",
            "--checkpoint", str(Path(workdir) / "model.scem"), str(Path(workdir) / "mix.wav"),
            "--mode", mode]
    if mode == "cluster":
        args += ["--K", str(k)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            if main(args) != 0:
                raise SystemExit("denoise failed")

    return run


def _write_denoise_inputs(workdir, seconds, seed):
    import numpy as np

    from scesep import mixtures, nn
    from scesep.audio_io import write_wav
    from scesep.config import RunConfig
    from scesep.dsp import Waveform
    from scesep.model import SeparationModel, TrainState, save_checkpoint
    from scesep.seeding import rng_for

    cfg = RunConfig()
    m = SeparationModel(cfg.model_config(cfg.n_train), rng_for(seed, "model-init"))
    save_checkpoint(Path(workdir) / "model.scem", TrainState(m, nn.Adam(m.parameters(), cfg.lr)), seed)
    speech = mixtures.synth_speechlike(seconds, seed).waveform.samples
    noise = mixtures.synth_noise("engine", seconds, seed + 1).waveform.samples
    mix = 0.2 * (speech + 0.5 * noise)
    write_wav(Path(workdir) / "mix.wav", Waveform(np.clip(mix, -1.0, 1.0), cfg.sample_rate_hz))


def _child(job):
    sys.path.insert(0, str(SRC))
    if job["kind"] == "train":
        _apply_swaps(job["swap"])
        run = _train(job["epochs"], job["seed"])
    else:
        run = _denoise(job["workdir"], job["mode"], job["k"], job["seed"])
    before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    run()
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(f"peak_rss_mb={after.ru_maxrss / 1024.0:.1f}  minor_faults={after.ru_minflt - before.ru_minflt}  "
          f"sys_s={after.ru_stime - before.ru_stime:.2f}  wall_s={wall:.2f}"
          + (f"  swap={','.join(job['swap']) or 'none'}" if job["kind"] == "train" else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="kind")
    train = sub.add_parser("train")
    train.add_argument("--epochs", type=int, default=6)
    train.add_argument("--seed", type=int, default=1)
    train.add_argument("--swap", type=_swap_names, default=[],
                       help="comma-separated nn attributes to replace with their oracles")
    denoise = sub.add_parser("denoise")
    denoise.add_argument("--seconds", type=float, required=True)
    denoise.add_argument("--mode", choices=("cluster", "mi"), required=True)
    denoise.add_argument("--K", type=int, default=2, help="clusters in cluster mode")
    denoise.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.child:
        return _child(json.loads(args.child))
    if args.kind is None:
        parser.error("choose train or denoise")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    with tempfile.TemporaryDirectory() as workdir:
        job = {"kind": args.kind, "seed": args.seed}
        if args.kind == "train":
            job.update(epochs=args.epochs, swap=args.swap)
        else:
            sys.path.insert(0, str(SRC))
            _write_denoise_inputs(workdir, args.seconds, args.seed)
            job.update(workdir=workdir, mode=args.mode, k=args.K)
        subprocess.run([sys.executable, __file__, "--child", json.dumps(job)], env=env, check=True)


if __name__ == "__main__":
    main()
