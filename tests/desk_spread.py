"""Spread of the desk-scale SDR numbers over training seeds.

    python3 tests/desk_spread.py [--seeds 1,2,...,8]

Builds the corpus of acceptance criteria 6 and 7 (corpus seed 11; 64
train, 8 validation and 16 test clips) once, then, for each training seed,
trains the default model on it and denoises every test clip in MI mode and
in cluster mode (K = 2, each clip's own seed), as ``tests/test_acceptance.py``
does at training seed 1. One line per training seed gives its final
``val_mi``, its mean MI SDRi and its mean cluster SDRi (dB), and the wall
seconds its training and scoring took; a last two lines give
the mean and the sample SD of each over the seeds. A change that moves these
numbers can then be read against the spread that the training seed alone
gives. Set ``OPENBLAS_NUM_THREADS`` to fix the BLAS thread count, which
moves the numbers too. scesep is imported from the ``src/`` next to this
file, so a copy of the script run inside another checkout measures that
checkout. pytest does not collect this file.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from scesep.inference import denoise  # noqa: E402
from scesep.metrics import best_permutation  # noqa: E402
from scesep.mixtures import build_corpus  # noqa: E402
from scesep.model import ModelConfig, train  # noqa: E402

COLUMNS = ("val_mi", "mi_sdri_db", "cluster_sdri_db")


def mean_sdri(model, records, mode):
    """Mean over clips of each clip's mean SDR improvement, as in criterion 6."""
    per_clip = []
    for rec in records:
        stems = denoise(model, rec.mixture, mode=mode, k=2, seed=rec.seed).stems
        per_clip.append(np.mean(best_permutation(rec.sources, stems, mixture=rec.mixture).sdr_improvement_db))
    return float(np.mean(per_clip))


def seed_row(corpus, seed):
    """(final val_mi, MI SDRi, cluster SDRi) of one training seed."""
    state = train(corpus.train, corpus.val, ModelConfig(n_table_rows=corpus.n_sources), seed=seed)
    val_mi = state.log_rows[-1][4]
    return val_mi, mean_sdri(state.model, corpus.test, "mi"), mean_sdri(state.model, corpus.test, "cluster")


def cells(values):
    """One row of COLUMNS: val_mi to 6 decimals, the SDRi in dB to 3."""
    return "  ".join(f"{v:>15.6f}" if c == "val_mi" else f"{v:>15.3f}" for c, v in zip(COLUMNS, values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8", help="comma-separated training seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    corpus = build_corpus(64, 8, 16, seed=11)
    print("seed  " + "  ".join(f"{c:>15}" for c in COLUMNS) + "   wall_s", flush=True)
    rows = []
    for seed in seeds:
        start = time.monotonic()
        rows.append(seed_row(corpus, seed))
        print(f"{seed:>4}  {cells(rows[-1])}  {time.monotonic() - start:7.1f}", flush=True)
    print(f"mean  {cells([statistics.fmean(col) for col in zip(*rows)])}")
    if len(rows) > 1:
        print(f"  sd  {cells([statistics.stdev(col) for col in zip(*rows)])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
