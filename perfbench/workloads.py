"""The benchmark's workloads and the checks on their outputs.

Every workload runs in one process as a closed loop: one call at a time, each
after the previous one returns. A workload is built from the workload seed
alone; scesep only ever sees the generated inputs. Its measured loop runs
*passes* of operations; ``pass_ops(p)`` gives the ops of pass ``p``. ``train``
and ``eval`` repeat one fixed pass, and every repeat must reproduce the first
bit for bit. ``infer-*`` draws fresh clips from the seed for every pass, so a
longer run averages K-means cost over more inputs.
"""

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

# scesep functions are called through their modules, so the tracer's wrappers
# see the harness's own calls too.
from scesep import cli, inference, mixtures
from scesep import model as model_mod
from scesep.config import RunConfig
from scesep.dsp import StftConfig, Waveform
from scesep.metrics import best_permutation
from scesep.seeding import rng_for, stream_seed


class CheckFailed(Exception):
    """An operation's output broke one of its invariants."""


class Op:
    """One timed call. ``run`` is timed; ``check(result)`` is not."""

    def __init__(self, kind, clips, run, check):
        self.kind, self.clips, self.run, self.check = kind, clips, run, check


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _run_cli(argv, out_dir):
    """In-process ``scesep`` call; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--out", str(out_dir)] + argv)
    return code, buf.getvalue()


class TrainWorkload:
    """SCE+MI training, driven one epoch at a time.

    ``model.train(..., state=s, epochs=e + 1)`` continues bit-exactly, so
    each epoch is one timed op. Every ``epochs_per_run`` epochs training
    restarts from scratch, which makes each pass of epochs repeat the first.
    """

    def __init__(self, plan):
        self.p = plan
        self.cfg = RunConfig()
        self.model_cfg = None

    def setup(self, workdir, seed):
        cfg = self.cfg
        self.seed = seed
        corpus = mixtures.build_corpus(
            cfg.n_train, cfg.n_val, 0, (cfg.snr_min_db, cfg.snr_max_db),
            seed=seed, cfg=cfg.stft_config(), clip_duration_s=cfg.clip_duration_s,
        )
        self.train_recs, self.val_recs = corpus.train, corpus.val
        self.model_cfg = cfg.model_config(corpus.n_sources)
        self.state = None
        self.reference_rows = []

    def pass_ops(self, p=0):
        return [self._epoch_op(e) for e in range(self.p["epochs_per_run"])]

    def _epoch_op(self, epoch):
        def run():
            state = None if epoch == 0 else self.state
            self.state = model_mod.train(
                self.train_recs, self.val_recs, self.model_cfg, self.seed,
                state=state, epochs=epoch + 1,
            )
            return self.state

        def check(state):
            row = state.log_rows[-1]
            _require(state.epoch == epoch + 1 and row[0] == epoch, "epoch did not advance")
            _require(all(math.isfinite(v) for v in row[1:]), f"non-finite loss {row}")
            _require(
                all(np.all(np.isfinite(p.data)) for p in state.model.parameters()),
                "non-finite parameters",
            )
            if len(self.reference_rows) <= epoch:
                self.reference_rows.append(row)
            _require(row == self.reference_rows[epoch], f"epoch {epoch} not reproduced: {row}")

        return Op("epoch", len(self.train_recs), run, check)

    def quality(self):
        """Final validation mask loss of a full run of epochs."""
        return {"train_val_mi": (self.reference_rows[-1][4], "loss")}

    def expected_calls(self, kind):
        B, L = self.model_cfg.batch_size, self.model_cfg.n_blstm_layers
        steps = math.ceil(len(self.train_recs) / B)
        batches = steps + math.ceil(len(self.val_recs) / B)
        return {
            "nn.blstm_layer": L * batches,
            "nn.backward": steps,
            "nn.adam_step": steps,
            "nn.clip_global_norm": steps,
            "model.forward_embeddings": batches,
            "model.mi_masks": batches,
            "model.sce_loss": batches,
            "model.mi_loss": batches,
            "model.batch_from_records": batches,
            "model.evaluate_losses": 1,
            "dsp.compress": len(self.train_recs) + len(self.val_recs),
        }


class InferWorkload:
    """``inference.denoise`` on harness-built mixtures, one mode per workload.

    Clip durations come from a fixed set, each used once per pass in a
    seeded order, so every pass has the same mix of recurrent lengths T and
    K-means point counts N = T * F. The clips' content is drawn afresh for
    each pass from the workload seed and the pass index.
    """

    def __init__(self, plan, mode):
        self.p = plan
        self.mode = mode
        self.stft_cfg = StftConfig()

    def setup(self, workdir, seed):
        self.seed = seed
        self.model = self._fixture_model(workdir)
        self.clips = {0: self._make_clips(seed, 0)}
        self.reference = {}

    def _fixture_model(self, workdir):
        fx = self.p["fixture"]
        cfg = RunConfig(epochs=fx["epochs"], lr=fx["lr"])
        corpus = mixtures.build_corpus(
            fx["n_train"], fx["n_val"], 0, (cfg.snr_min_db, cfg.snr_max_db),
            seed=fx["seed"], cfg=cfg.stft_config(), clip_duration_s=cfg.clip_duration_s,
        )
        state = model_mod.train(
            corpus.train, corpus.val, cfg.model_config(corpus.n_sources), fx["seed"]
        )
        path = Path(workdir) / "fixture.scem"
        model_mod.save_checkpoint(path, state, fx["seed"])
        return model_mod.load_inference_model(path)

    def _make_clips(self, seed, p):
        durations = self.p["durations_s"]
        rng = rng_for(seed, f"infer-inputs-{p}")
        order = rng.permutation(len(durations))
        kinds = mixtures.NOISE_KINDS
        kinds = [kinds[i % len(kinds)] for i in rng.permutation(len(durations))]
        snrs = rng.uniform(*self.p["snr_range_db"], size=len(durations))
        fs = self.stft_cfg.sample_rate_hz
        clips = []
        for i, j in enumerate(order):
            d = float(durations[j])
            s = mixtures.synth_speechlike(d, stream_seed(seed, f"infer-speech-{p}-{i}"), fs)
            v = mixtures.synth_noise(kinds[i], d, stream_seed(seed, f"infer-noise-{p}-{i}"), fs)
            s, v = s.waveform.samples, v.waveform.samples
            g = math.sqrt(np.mean(s * s) / (np.mean(v * v) * 10.0 ** (snrs[i] / 10.0)))
            sources = [Waveform(s, fs), Waveform(g * v, fs)]
            clips.append((Waveform(s + g * v, fs), sources, stream_seed(seed, f"denoise-{p}-{i}")))
        return clips

    def pass_ops(self, p=0):
        if p not in self.clips:  # keep pass 0 for quality(), and the current pass
            self.clips = {0: self.clips[0], p: self._make_clips(self.seed, p)}
        return [self._denoise_op(p, i) for i in range(len(self.clips[p]))]

    def _denoise_op(self, p, i):
        mixture, _, seed = self.clips[p][i]
        k = self.p["K"]

        def run():
            return inference.denoise(
                self.model, mixture, mode=self.mode, k=k, cfg=self.stft_cfg, seed=seed
            )

        def check(result):
            n_stems = k if self.mode == "cluster" else self.model.config.n_mix_sources
            _require(len(result.stems) == n_stems, f"{len(result.stems)} stems, expected {n_stems}")
            for stem in result.stems:
                _require(len(stem) == len(mixture), "stem length differs from the mixture")
                _require(bool(np.all(np.isfinite(stem.samples))), "non-finite stem")
            masks = result.masks
            if self.mode == "cluster":
                _require(bool(np.all(np.abs(masks) == 1.0)), "binary mask outside {-1, +1}")
                _require(bool(np.all(((masks + 1.0) / 2.0).sum(axis=2) == 1.0)),
                         "binary masks do not partition the bins")
                h = np.array(result.assignment.inertia_history)
                _require(not np.any(np.diff(h) > 1e-9 * max(h[0], 1.0)),
                         "K-means inertia increased")
            else:
                _require(bool(np.all((masks >= 0.0) & (masks <= 1.0))), "ratio mask outside [0, 1]")
                _require(float(np.max(np.abs(masks.sum(axis=2) - 1.0))) <= 1e-9,
                         "ratio masks do not sum to 1")
            digest = _digest([s.samples for s in result.stems])
            ref = self.reference.setdefault((p, i), [digest, None])
            _require(ref[0] == digest, f"pass {p} clip {i} not reproduced")
            if p == 0 and ref[1] is None:
                ref[1] = result.stems

        return Op(self.mode, 1, run, check)

    def quality(self):
        """Mean SDR improvement (dB) of the stems over the clips of pass 0 and
        their sources."""
        gains = []
        for i, (mixture, sources, _) in enumerate(self.clips[0]):
            res = best_permutation(sources, self.reference[0, i][1], mixture=mixture)
            gains.extend(res.sdr_improvement_db)
        return {f"sdri_{self.mode}_db": (float(np.mean(gains)), "dB")}

    def expected_calls(self, kind):
        n_stems = self.p["K"] if self.mode == "cluster" else self.model.config.n_mix_sources
        calls = {
            "inference.denoise": 1,
            "dsp.stft": 1,
            "dsp.compress": 1,
            "model.forward_embeddings": 1,
            "nn.blstm_layer": self.model.config.n_blstm_layers,
            "inference.reconstruct": 1,
            "dsp.istft": n_stems,
        }
        calls["inference.kmeans" if self.mode == "cluster" else "model.mi_masks"] = 1
        return calls


class EvalWorkload:
    """The SNMF baseline through the in-process CLI.

    A pass is ``train --algo snmf`` then ``eval`` with the SNMF, oracle-binary
    and identity algorithms, both on a manifest that ``mix`` wrote in set-up.
    ``sce-mi`` is left out, so no ``nn`` code runs here.
    """

    ALGOS = ("snmf", "oracle-binary", "identity")

    def __init__(self, plan):
        self.p = plan

    def setup(self, workdir, seed):
        self.dir = Path(workdir)
        c = self.p["corpus"]
        conf = self.dir / "run.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in c.items()), encoding="utf-8")
        self.base = ["--config", str(conf), "--seed", str(seed)]
        code, out = _run_cli(self.base + ["mix"], self.dir)
        _require(code == 0, f"mix exited {code}: {out}")
        self.manifest = self.dir / "manifest.tsv"
        rows = [line.split("\t") for line in self.manifest.read_text().splitlines()]
        self.n_rows = len(rows)
        self.n_train = sum(r[1] == "train" for r in rows)
        self.n_test = sum(r[1] == "test" for r in rows)
        self.n_classes = 1 + len({r[2] for r in rows if r[1] == "train"})
        self.snmf_dir = self.dir / "snmf"
        self.eval_dir = self.dir / "eval"
        self.reference_csv = None

    def pass_ops(self, p=0):
        return [self._train_op(), self._eval_op()]

    def _train_op(self):
        argv = self.base + ["train", "--manifest", str(self.manifest), "--algo", "snmf"]

        def check(result):
            code, _ = result
            _require(code == 0, f"train --algo snmf exited {code}")
            n = len(list(self.snmf_dir.glob("snmf_class*.dict")))
            _require(n == self.n_classes, f"{n} dictionaries, expected {self.n_classes}")

        # Clips count once per pass, on the eval op: throughput is test clips
        # scored per second of the whole fit-then-score pipeline.
        return Op("snmf-train", 0, lambda: _run_cli(argv, self.snmf_dir), check)

    def _eval_op(self):
        argv = self.base + ["eval", "--manifest", str(self.manifest),
                            "--snmf-dir", str(self.snmf_dir)]
        for algo in self.ALGOS:
            argv += ["--algo", algo]

        def check(result):
            code, _ = result
            _require(code == 0, f"eval exited {code}")
            text = (self.eval_dir / "metrics.csv").read_text(encoding="utf-8")
            rows = text.splitlines()[1:]
            want = self.n_test * len(self.ALGOS) * 2
            _require(len(rows) == want, f"{len(rows)} metrics.csv rows, expected {want}")
            _require(all(math.isfinite(float(r.split(",")[-1])) for r in rows), "non-finite SDR")
            if self.reference_csv is None:
                self.reference_csv = text
            _require(text == self.reference_csv, "metrics.csv not reproduced")

        return Op("eval", self.n_test, lambda: _run_cli(argv, self.eval_dir), check)

    def quality(self):
        """Mean SNMF SDR improvement (dB), read back from metrics.csv."""
        rows = [r.split(",") for r in self.reference_csv.splitlines()[1:]]
        gains = [float(r[7]) for r in rows if r[1] == "snmf"]
        return {"sdri_snmf_db": (float(np.mean(gains)), "dB")}

    def expected_calls(self, kind):
        R = self.n_rows
        common = {
            "mixtures.read_manifest": 1,
            "mixtures.mix_at_snr": R,
            "mixtures.synth": 2 * R,
            "dsp.stft": 3 * R,
        }
        if kind == "snmf-train":
            return dict(common, **{
                "cli.train": 1,
                "snmf.trim_silence": 2 * self.n_train,
                "dsp.compress": 2 * self.n_train,
                "snmf.fit_dictionary": self.n_classes,
                "container.write": self.n_classes,
            })
        n = self.n_test
        m = 2  # sources per mixture
        return dict(common, **{
            "cli.eval": 1,
            "container.read": self.n_classes,
            "snmf.separate": n,
            "dsp.compress": n,
            "inference.reconstruct": 2 * n,
            "dsp.istft": 2 * m * n,
            "metrics.best_permutation": len(self.ALGOS) * n,
            "metrics.sdr": len(self.ALGOS) * n * (m * m + m),
        })


def make(name, plan):
    if name == "train":
        return TrainWorkload(plan["train"])
    if name in ("infer-cluster", "infer-mi"):
        return InferWorkload(plan["infer"], name.split("-")[1])
    if name == "eval":
        return EvalWorkload(plan["eval"])
    raise ValueError(f"unknown workload {name!r}")
