"""Print a sha256 digest of every artifact of a small end-to-end run.

    python3 tests/artifact_digests.py [--seed N] [--against FILE]

Runs, in one process and into a fresh temporary directory, at a fixed small
config: ``mix --materialize``, ``train`` for 3 epochs, ``train --algo snmf``,
a four-algorithm ``eval`` in both modes, and ``denoise`` in cluster mode
(K = 2 and K = 3) and mi mode on one materialized mixture. Then ``denoise``
runs in both modes on two more inputs: ``inputs/joined.wav``, the first
25,000 samples of the ``test-0`` and ``test-1`` mixtures joined, whose last
analysis frame fades out inside the output; and ``inputs/joined-8k.wav``,
the same samples labelled 8 kHz, so that they are resampled. It then prints
``sha256  relative/path`` for every file written (manifest, WAVs,
checkpoint, train log, SNMF dictionaries, ``metrics.csv``, input WAVs,
stems) and for each command's standard output, in which the temporary
directory reads ``<out>``. Each container
(``.scem`` checkpoint, ``.dict`` dictionary) gets one more line,
``sha256  path#tensors``, over its tensors alone: each one's name, shape and
float64 bytes in file order, without the meta block. A change to the meta
alone then shows as a changed file line next to an unchanged tensors line.

Two checkouts that print the same lines produce the same bytes. With
``--against FILE``, a listing saved from an earlier run, it prints only the
lines that differ (``-`` saved, ``+`` this run) and exits 1 if any do, else
0. scesep is imported from the ``src/`` next to this file, so a copy of the
script run inside another checkout digests that checkout. pytest does not
collect it.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scesep.audio_io import read_wav, write_wav  # noqa: E402
from scesep.cli import main as scesep_main  # noqa: E402
from scesep.container import MAGIC_MODEL, MAGIC_NMF, read_container  # noqa: E402
from scesep.dsp import Waveform  # noqa: E402

CONFIG = """\
n_train = 8
n_val = 2
n_test = 3
epochs = 3
batch_size = 2
"""


def run_all(root: Path, seed: int) -> None:
    """Run every command into ``root``; each one's stdout goes to
    ``root/stdout/<step>.txt`` with ``root`` masked."""
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG)
    data, run = root / "data", root / "run"
    manifest = str(data / "manifest.tsv")
    steps = [
        ("1-mix", data, ["mix", "--materialize"]),
        ("2-train", run, ["train", "--manifest", manifest]),
        ("3-train-snmf", run, ["train", "--manifest", manifest, "--algo", "snmf"]),
        ("4-eval", root / "eval", [
            "eval", "--manifest", manifest, "--checkpoint", str(run / "model.scem"),
            "--snmf-dir", str(run), "--algo", "sce-mi", "--algo", "snmf",
            "--algo", "oracle-binary", "--algo", "identity",
        ]),
    ]
    for mode in ("cluster", "mi"):
        steps.append((f"5-denoise-{mode}", root / f"denoise-{mode}", [
            "denoise", "--checkpoint", str(run / "model.scem"),
            str(data / "test-0.mix.wav"), "--mode", mode,
        ]))
    steps.append(("6-denoise-cluster-k3", root / "denoise-cluster-k3", [
        "denoise", "--checkpoint", str(run / "model.scem"),
        str(data / "test-0.mix.wav"), "--mode", "cluster", "--K", "3",
    ]))
    (root / "stdout").mkdir()

    def execute(name, out, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = scesep_main(["--config", str(cfg), "--seed", str(seed), "--out", str(out)] + argv)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        (root / "stdout" / f"{name}.txt").write_text(buf.getvalue().replace(str(root), "<out>"))

    for step in steps:
        execute(*step)
    joined = np.concatenate([read_wav(data / f"test-{i}.mix.wav").samples for i in (0, 1)])[:25000]
    (root / "inputs").mkdir()
    for stem, rate in (("joined", 10000), ("joined-8k", 8000)):
        wav = root / "inputs" / f"{stem}.wav"
        write_wav(wav, Waveform(joined, rate))
        for mode in ("cluster", "mi"):
            execute(f"7-denoise-{stem}-{mode}", root / f"denoise-{stem}-{mode}", [
                "denoise", "--checkpoint", str(run / "model.scem"), str(wav), "--mode", mode,
            ])


def tensors_digest(path: Path) -> str:
    """sha256 over a container's tensors (name, shape, float64 bytes) in file order."""
    _, tensors = read_container(path, MAGIC_MODEL if path.suffix == ".scem" else MAGIC_NMF)
    h = hashlib.sha256()
    for name, value in tensors.items():
        h.update(f"{name}\0{value.shape}\0".encode())
        h.update(value.astype("<f8").tobytes())
    return h.hexdigest()


def digest_lines(root: Path) -> list:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
        if path.suffix in (".scem", ".dict"):
            lines.append(f"{tensors_digest(path)}  {rel}#tensors")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--against", type=Path, help="a saved listing to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_all(root, args.seed)
        lines = digest_lines(root)
    if args.against is not None:
        lines = [d for d in difflib.ndiff(args.against.read_text().splitlines(), lines) if d[:1] in "+-"]
    for line in lines:
        print(line)
    return 1 if args.against is not None and lines else 0


if __name__ == "__main__":
    sys.exit(main())
