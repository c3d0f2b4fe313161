import csv
import hashlib
import io
import os
import re
import resource
import struct
import subprocess
import sys
import wave
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scesep
from scesep import mixtures
from scesep.audio_io import read_wav, write_wav
from scesep.cli import main
from scesep.config import RunConfig
from scesep.container import MAGIC_MODEL, MAGIC_NMF, read_container, write_container
from scesep.dsp import Waveform
from scesep.inference import denoise
from scesep.metrics import CSV_HEADER, sdr
from scesep.model import load_inference_model

SMALL_CFG = """
n_train = 4
n_val = 2
n_test = 2
epochs = 2
batch_size = 2
hidden_total = 8
embed_dim = 4
snmf_rank = 8
snmf_max_iters = 40
kmeans_restarts = 2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small end-to-end workspace: config, corpus, checkpoint, dictionaries."""
    root = tmp_path_factory.mktemp("ws")
    cfg = root / "run.cfg"
    cfg.write_text(SMALL_CFG)
    data = root / "data"
    assert main(["--config", str(cfg), "--out", str(data), "mix", "--materialize"]) == 0
    manifest = data / "manifest.tsv"
    run = root / "run"
    assert main(["--config", str(cfg), "--out", str(run), "train", "--manifest", str(manifest)]) == 0
    assert main([
        "--config", str(cfg), "--out", str(run), "train",
        "--manifest", str(manifest), "--algo", "snmf",
    ]) == 0
    return {"cfg": cfg, "data": data, "manifest": manifest, "run": run}


# Config lines every command rejects before it reads or writes anything.
REJECTED_CORPUS_KEYS = [
    ("n_train = -3", "n_train must be >= 0, got -3"),
    ("n_val = -1", "n_val must be >= 0, got -1"),
    ("n_test = -2", "n_test must be >= 0, got -2"),
    ("clip_duration_s = 1.5", "clip_duration_s must be >= 2.0, got 1.5"),
    ("snr_min_db = 6", "snr_min_db must be <= snr_max_db, got 6.0 > 5.0"),
]

CRITERION_9_CFG = "n_train = 4\nn_val = 2\nn_test = 2\nepochs = 2\nbatch_size = 2\n"

# sha256 of the manifest `mix` writes, recorded from the audio-synthesizing
# implementation that drew the same rows.
MANIFEST_SHA256 = {
    ("default", 0): "be66bae4b6156962adff237ddd3fe54a3d368b48e2c49cb64646df1a81771987",
    ("default", 1): "07e41a171987a261ab0db4042999bf296cfa8637fad78a1c93bc2125b8174b59",
    ("default", 5): "f4e6e36e035b3d5ee53e559699e39124f98d7665ac5613467650b8c64f707f85",
    ("default", 7919): "f73971c88443b00d29c00fcdb719cbfcc4cffbb8fd1ca376c56f99454c6ec91f",
    ("criterion-9", 0): "f2e61321d37e8696da29375bd0405c58c99d356ba0e3b23e4f3bd2722b4438e9",
    ("criterion-9", 1): "8ec5441d42466d63995d107fe16e9e7db3ebc48cb390f934218dd529bfc8739c",
    ("criterion-9", 5): "008ee17d293428ead8019d7e41d0e9552913746d915e9ba29671e07712c88bdb",
    ("criterion-9", 7919): "bcb5d1a924c1f0fa347abb65d60fea5b0fcbb76629ac32489b40b8209b482448",
}


class TestMix:
    def test_manifest_written(self, workspace):
        lines = workspace["manifest"].read_text().splitlines()
        assert len(lines) == 4 + 2 + 2  # one record per mixture, no header
        first = lines[0].split("\t")
        assert len(first) == 6
        assert first[1] == "train"

    def test_materialized_wavs(self, workspace):
        assert len(list(workspace["data"].glob("*.mix.wav"))) == 8
        assert len(list(workspace["data"].glob("*.src0.wav"))) == 8

    def test_deterministic_manifest(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert main(["--config", str(workspace["cfg"]), "--out", str(again), "mix"]) == 0
        assert (again / "manifest.tsv").read_bytes() == workspace["manifest"].read_bytes()

    def test_seed_changes_manifest(self, workspace, tmp_path):
        other = tmp_path / "other"
        assert main([
            "--config", str(workspace["cfg"]), "--seed", "9", "--out", str(other), "mix",
        ]) == 0
        assert (other / "manifest.tsv").read_bytes() != workspace["manifest"].read_bytes()

    @pytest.mark.parametrize("config,seed", list(MANIFEST_SHA256))
    def test_manifest_bytes_without_synthesis(self, tmp_path, monkeypatch, config, seed):
        def no_audio(*args, **kwargs):
            raise AssertionError("mix synthesized audio")

        for name in ("synth_speechlike", "synth_noise", "mix_at_snr"):
            monkeypatch.setattr(mixtures, name, no_audio)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CRITERION_9_CFG if config == "criterion-9" else "")
        out = tmp_path / "data"
        assert main(["--config", str(cfg), "--seed", str(seed), "--out", str(out), "mix"]) == 0
        digest = hashlib.sha256((out / "manifest.tsv").read_bytes()).hexdigest()
        assert digest == MANIFEST_SHA256[config, seed]

    def test_materialize_streams_without_train_rows(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_train = 0\nn_val = 1\nn_test = 2\n")
        out = tmp_path / "data"
        wavs_before_mix, mix_at_snr = [], mixtures.mix_at_snr

        def counting_mix(*args, **kwargs):
            wavs_before_mix.append(len(list(out.glob("*.wav"))))
            return mix_at_snr(*args, **kwargs)

        monkeypatch.setattr(mixtures, "mix_at_snr", counting_mix)
        assert main(["--config", str(cfg), "--out", str(out), "mix", "--materialize"]) == 0
        captured = capsys.readouterr()
        assert "materialized 9 WAV files" in captured.out
        assert "Traceback" not in captured.err + captured.out
        assert len(list(out.glob("*.wav"))) == 9
        assert wavs_before_mix == [0, 3, 6]  # each record's WAVs land before the next is built

    def test_materialized_wavs_read_back_unclipped(self, tmp_path):
        # Unit-power sources peak above PCM16 full scale; each record's WAVs
        # share one gain, so they read back as their record and still add up.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_train = 3\nn_val = 1\nn_test = 2\n")
        out = tmp_path / "data"
        assert main(["--config", str(cfg), "--out", str(out), "mix", "--materialize"]) == 0
        run = RunConfig(n_train=3, n_val=1, n_test=2)
        stream = mixtures.read_manifest(out / "manifest.tsv", run.seed, run.stft_config(),
                                        run.clip_duration_s)
        for _, rec in stream.records:
            refs = {"mix": rec.mixture, "src0": rec.sources[0], "src1": rec.sources[1]}
            wavs = {name: read_wav(out / f"{rec.clip_id}.{name}.wav") for name in refs}
            for name, ref in refs.items():
                assert sdr(ref, wavs[name]) >= 60.0, (rec.clip_id, name)
            residual = wavs["mix"].samples - (wavs["src0"].samples + wavs["src1"].samples)
            assert np.abs(residual).max() <= 1.5 / 32768, rec.clip_id

    @pytest.mark.parametrize("line,named", [
        pytest.param(line, named, id=line) for line, named in REJECTED_CORPUS_KEYS
    ])
    def test_rejected_corpus_config_is_usage_error(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG + line + "\n")
        out = tmp_path / "data"
        assert main(["--config", str(cfg), "--out", str(out), "mix", "--materialize"]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_no_rows_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("n_train = 0\nn_val = 0\nn_test = 0\n")
        out = tmp_path / "data"
        assert main(["--config", str(cfg), "--out", str(out), "mix"]) == 2
        err = capsys.readouterr().err
        assert "n_train, n_val and n_test are all 0" in err and "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_outputs_exist(self, workspace):
        assert (workspace["run"] / "model.scem").exists()
        log = (workspace["run"] / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_sce,train_mi,val_sce,val_mi"
        assert len(log) == 3  # header + 2 epochs

    def test_deterministic_checkpoint(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert main([
            "--config", str(workspace["cfg"]), "--out", str(again),
            "train", "--manifest", str(workspace["manifest"]),
        ]) == 0
        assert (again / "model.scem").read_bytes() == (workspace["run"] / "model.scem").read_bytes()

    def test_resume_runs(self, workspace, tmp_path, capsys):
        out = tmp_path / "resumed"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "train", "--manifest", str(workspace["manifest"]),
            "--resume", str(workspace["run"] / "model.scem"),
        ])
        assert code == 0
        assert "resuming" in capsys.readouterr().out

    def test_resume_at_final_epoch_trains_nothing(self, workspace, tmp_path, capsys):
        # the workspace checkpoint is already at epochs = 2
        out = tmp_path / "resumed"
        assert self.resume(workspace, out, "") == 0
        stdout = capsys.readouterr().out
        assert "no epochs trained (at epoch 2 of 2)" in stdout
        assert "train_sce" not in stdout
        assert (out / "model.scem").read_bytes() == (workspace["run"] / "model.scem").read_bytes()
        assert (out / "train_log.csv").read_text() == "epoch,train_sce,train_mi,val_sce,val_mi\n"

    def test_snmf_dictionaries(self, workspace):
        dicts = sorted(p.name for p in workspace["run"].glob("snmf_class*.dict"))
        assert "snmf_class0.dict" in dicts  # speech
        assert len(dicts) >= 2  # plus at least one noise class

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_fails_without_checkpoint(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "huge-lr.cfg"
        cfg.write_text(SMALL_CFG + "lr = 1e300\n")
        out = tmp_path / "run"
        code = main([
            "--config", str(cfg), "--out", str(out),
            "train", "--manifest", str(workspace["manifest"]),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: training loss is nan" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (out / "model.scem").exists()
        assert not (out / "train_log.csv").exists()

    @staticmethod
    def train_without_train_rows(workspace, tmp_path, capsys, monkeypatch, algo):
        """`train --algo algo` on the manifest less its train rows fails
        before it builds a record or makes `--out`, naming the manifest."""
        def no_audio(*args, **kwargs):
            raise AssertionError("train synthesized audio")

        for name in ("synth_speechlike", "synth_noise"):
            monkeypatch.setattr(mixtures, name, no_audio)
        rows = workspace["manifest"].read_text().splitlines()
        manifest = tmp_path / "no_train.tsv"
        manifest.write_text("".join(r + "\n" for r in rows if r.split("\t")[1] != "train"))
        out = tmp_path / "run"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "train", "--manifest", str(manifest), "--algo", algo,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: manifest {manifest} has no train rows" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    def test_snmf_without_train_rows_fails(self, workspace, tmp_path, capsys, monkeypatch):
        self.train_without_train_rows(workspace, tmp_path, capsys, monkeypatch, "snmf")

    def test_sce_mi_without_train_rows_fails(self, workspace, tmp_path, capsys, monkeypatch):
        self.train_without_train_rows(workspace, tmp_path, capsys, monkeypatch, "sce-mi")

    def test_snmf_resume_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "train", "--manifest", str(workspace["manifest"]), "--algo", "snmf",
            "--resume", str(tmp_path / "nope.scem"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: --resume applies only to --algo sce-mi" in captured.err
        assert not out.exists()

    def test_missing_manifest_is_usage_error(self, workspace, tmp_path):
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path),
            "train", "--manifest", str(tmp_path / "nope.tsv"),
        ])
        assert code == 2

    def test_out_of_range_noise_class_is_usage_error(self, workspace, tmp_path, capsys):
        lines = workspace["manifest"].read_text().splitlines()
        row = lines[0].split("\t")
        row[2] = "5"
        lines[0] = "\t".join(row)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "train", "--manifest", str(manifest),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {manifest}:1: noise class 5" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("field,value,named", [
        pytest.param(4, "-1", "seed must be in [0, 2**64), got -1", id="seed=-1"),
        pytest.param(4, str(2**64), f"seed must be in [0, 2**64), got {2**64}", id="seed=2**64"),
        pytest.param(5, "1e6", "snr_db must be in [-100, 100] dB, got 1000000.0", id="snr=1e6"),
        pytest.param(5, "-1e6", "snr_db must be in [-100, 100] dB, got -1000000.0", id="snr=-1e6"),
        pytest.param(5, "nan", "snr_db must be in [-100, 100] dB, got nan", id="snr=nan"),
        pytest.param(5, "inf", "snr_db must be in [-100, 100] dB, got inf", id="snr=inf"),
    ])
    def test_out_of_range_manifest_row_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch, field, value, named
    ):
        lines = workspace["manifest"].read_text().splitlines()
        row = lines[-1].split("\t")
        row[field] = value
        lines[-1] = "\t".join(row)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n")

        def no_audio(*args, **kwargs):
            raise AssertionError("a record was built before every row was checked")

        monkeypatch.setattr(mixtures, "mix_at_snr", no_audio)
        out = tmp_path / "run"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "train", "--manifest", str(manifest), "--algo", "snmf",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {manifest}:{len(lines)}: {named}" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    # The last row of `split` gets these specs ({speech}, {noise}: its own),
    # and noise class `class_id` unless that is None; spec `bad` is named.
    @pytest.mark.parametrize("split,class_id,specs,bad,command", [
        pytest.param("test", "1", "{speech},synth:crowd:{tag}-crowd", 1, ["eval", "--algo", "identity"],
                     id="crowd-noise-as-siren"),
        pytest.param("train", None, "{noise},{speech}", 0, ["train", "--algo", "snmf"], id="swapped-specs"),
        pytest.param("train", None, "{speech},synth:bogus:{tag}-bogus", 1, ["train", "--algo", "snmf"],
                     id="unknown-generator"),
        pytest.param("train", None, "{speech},synth:crowd", 1, ["train", "--algo", "snmf"], id="two-fields"),
    ])
    def test_bad_source_spec_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch, split, class_id, specs, bad, command
    ):
        lines = workspace["manifest"].read_text().splitlines()
        lineno = max(i for i, line in enumerate(lines, 1) if line.split("\t")[1] == split)
        row = lines[lineno - 1].split("\t")
        speech, noise = row[3].split(",")
        row[3] = specs.format(speech=speech, noise=noise, tag=row[0])
        row[2] = class_id or row[2]
        lines[lineno - 1] = "\t".join(row)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n")

        def no_audio(*args, **kwargs):
            raise AssertionError("a record was built before every row was checked")

        monkeypatch.setattr(mixtures, "mix_at_snr", no_audio)
        out = tmp_path / "run"
        code = main(["--config", str(workspace["cfg"]), "--out", str(out),
                     command[0], "--manifest", str(manifest), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {manifest}:{lineno}: " in captured.err
        assert repr(row[3].split(",")[bad]) in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("line,named", [
        pytest.param(line, named, id=line) for line, named in [
            ("snmf_sparsity = nan", "bad.cfg:12: snmf_sparsity must be finite"),
            ("lr = inf", "bad.cfg:12: lr must be finite"),
            ("n_mix_sources = 2", "bad.cfg:12: unknown key 'n_mix_sources'"),
            ("batch_size = 0", "batch_size must be >= 1, got 0"),
            ("n_blstm_layers = 0", "n_blstm_layers must be >= 1, got 0"),
            ("hidden_total = 0", "hidden_total must be >= 2, got 0"),
            ("hidden_total = -2", "hidden_total must be >= 2, got -2"),
            ("epochs = -1", "epochs must be >= 0, got -1"),
            ("lr = 0", "lr must be > 0, got 0.0"),
            ("grad_clip = -1", "grad_clip must be > 0, got -1.0"),
            ("window_len = 0", "window_len must be >= 2, got 0"),
            ("hop = 0", "hop must be >= 1, got 0"),
            ("trim_threshold = 0", "trim_threshold must be < 0"),
            ("snmf_rank = 0", "snmf_rank must be >= 1, got 0"),
            ("snmf_sparsity = -0.5", "snmf_sparsity must be >= 0, got -0.5"),
            ("window_len = 384", "window_len must be a power of two, got 384"),
            ("hop = 96", "hop must divide window_len, got hop 96 and window_len 512"),
            *REJECTED_CORPUS_KEYS,
        ]
    ])
    def test_rejected_config_is_usage_error(self, workspace, tmp_path, capsys, line, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG + line + "\n")
        out = tmp_path / "run"
        code = main([
            "--config", str(cfg), "--out", str(out),
            "train", "--manifest", str(workspace["manifest"]), "--algo", "snmf",
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def resume(self, workspace, out, cfg_text, checkpoint=None, extra=()):
        cfg = out.parent / f"{out.name}.cfg"
        cfg.write_text(SMALL_CFG + cfg_text)
        return main([
            "--config", str(cfg), *extra, "--out", str(out),
            "train", "--manifest", str(workspace["manifest"]),
            "--resume", str(checkpoint or workspace["run"] / "model.scem"),
        ])

    @pytest.mark.parametrize("cfg_text,extra,named", [
        pytest.param(cfg_text, extra, named, id=named) for cfg_text, extra, named in [
            ("hidden_total = 16\n", (), "hidden_total"),
            ("lr = 0.5\n", (), "lr"),
            ("batch_size = 1\n", (), "batch_size"),
            ("", ("--seed", "9"), "seed"),
            ("hidden_total = 16\nlr = 0.5\n", (), "hidden_total, lr"),
        ]
    ])
    def test_resume_conflict_is_usage_error(self, workspace, tmp_path, capsys,
                                            cfg_text, extra, named):
        out = tmp_path / "run"
        assert self.resume(workspace, out, cfg_text, extra=extra) == 2
        assert f"conflicts with the checkpoint on {named}\n" in capsys.readouterr().err
        assert not (out / "model.scem").exists()

    def test_resume_to_more_epochs_matches_straight_run(self, workspace, tmp_path):
        resumed = tmp_path / "resumed"
        assert self.resume(workspace, resumed, "epochs = 3\n") == 0
        straight = tmp_path / "straight"
        (tmp_path / "straight.cfg").write_text(SMALL_CFG + "epochs = 3\n")
        assert main([
            "--config", str(tmp_path / "straight.cfg"), "--out", str(straight),
            "train", "--manifest", str(workspace["manifest"]),
        ]) == 0
        assert (resumed / "model.scem").read_bytes() == (straight / "model.scem").read_bytes()
        log = (resumed / "train_log.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in log[1:]] == ["2"]  # only the resumed epoch

    def test_checkpoint_with_dropped_meta_keys_loads_as_before(self, workspace, tmp_path):
        # Older checkpoints also carry n_mix_sources and lr_opt, which the
        # loader no longer reads.
        fresh = workspace["run"] / "model.scem"
        meta, tensors = read_container(fresh, MAGIC_MODEL)
        assert "n_mix_sources" not in meta and "lr_opt" not in meta
        old = tmp_path / "old.scem"
        write_container(old, MAGIC_MODEL, dict(meta, n_mix_sources=2, lr_opt=meta["lr"]), tensors)
        wav = str(next(iter(workspace["data"].glob("*.mix.wav"))))
        stems = {}
        for name, checkpoint in (("fresh", fresh), ("old", old)):
            out = tmp_path / f"stems-{name}"
            assert main(["--config", str(workspace["cfg"]), "--out", str(out),
                         "denoise", "--checkpoint", str(checkpoint), wav, "--mode", "mi"]) == 0
            stems[name] = [p.read_bytes() for p in sorted(out.glob("*.wav"))]
            assert self.resume(workspace, tmp_path / f"resumed-{name}", "epochs = 3\n",
                               checkpoint=checkpoint) == 0
        assert stems["old"] == stems["fresh"] and len(stems["fresh"]) == 2
        resumed = [(tmp_path / f"resumed-{name}" / "model.scem").read_bytes() for name in stems]
        assert resumed[0] == resumed[1]

    def test_resume_with_wrong_shaped_adam_moment_is_corrupt(self, workspace, tmp_path, capsys):
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        tensors["adam/m/embed.b"] = np.zeros(3)
        bad = tmp_path / "bad_moment.scem"
        write_container(bad, MAGIC_MODEL, meta, tensors)
        out = tmp_path / "run"
        assert self.resume(workspace, out, "epochs = 3\n", checkpoint=bad) == 1
        captured = capsys.readouterr()
        assert f"error: {bad}: checkpoint tensor 'adam/m/embed.b' has shape (3,)" in captured.err
        assert "resuming from" not in captured.out and "Traceback" not in captured.err
        assert not (out / "model.scem").exists() and not (out / "train_log.csv").exists()

    def test_resume_without_seed_is_corrupt(self, workspace, tmp_path, capsys):
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        del meta["seed"]
        bad = tmp_path / "no_seed.scem"
        write_container(bad, MAGIC_MODEL, meta, tensors)
        out = tmp_path / "run"
        assert self.resume(workspace, out, "", checkpoint=bad) == 1
        err = capsys.readouterr().err
        assert "checkpoint has no 'seed'" in err and "Traceback" not in err
        assert not (out / "model.scem").exists()


class TestDenoise:
    def test_writes_stems(self, workspace, tmp_path):
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        out = tmp_path / "stems"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "denoise", "--checkpoint", str(workspace["run"] / "model.scem"),
            str(wav), "--mode", "mi",
        ])
        assert code == 0
        stems = sorted(out.glob("*.src*.wav"))
        assert len(stems) == 2

    def test_cluster_mode_k3(self, workspace, tmp_path):
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        out = tmp_path / "stems3"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "denoise", "--checkpoint", str(workspace["run"] / "model.scem"),
            str(wav), "--mode", "cluster", "--K", "3",
        ])
        assert code == 0
        assert len(list(out.glob("*.src*.wav"))) == 3

    def test_mi_mode_rejects_other_k(self, workspace, tmp_path, capsys, monkeypatch):
        import scesep.cli as cli

        loaded = []
        monkeypatch.setattr(cli, "load_inference_model", lambda path: loaded.append(path))
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        out = tmp_path / "stems"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "denoise", "--checkpoint", str(workspace["run"] / "model.scem"),
            str(wav), "--mode", "mi", "--K", "3",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: --mode mi always separates 2 sources; --K 3 applies only to --mode cluster" in err
        assert not loaded and not out.exists()

    def test_bad_checkpoint_fails(self, workspace, tmp_path):
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        bad = tmp_path / "bad.scem"
        bad.write_bytes(b"not a checkpoint")
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path),
            "denoise", "--checkpoint", str(bad), str(wav),
        ])
        assert code == 1


    @pytest.mark.parametrize("mode", ["cluster", "mi"])
    def test_nonpositive_k_rejected_at_parse_time(self, workspace, tmp_path, capsys, mode):
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        with pytest.raises(SystemExit) as exc:
            main([
                "--out", str(tmp_path), "denoise", "--checkpoint",
                str(workspace["run"] / "model.scem"), str(wav), "--mode", mode, "--K", "0",
            ])
        assert exc.value.code == 2
        assert "--K" in capsys.readouterr().err

    @pytest.mark.parametrize("case,named", [
        pytest.param(case, named, id=case) for case, named in [
            ("no-fmt", "not a readable WAV file (data chunk before fmt chunk)"),
            ("odd-fmt-size", "not a readable WAV file (damaged header)"),
            ("empty", "need >= 256 samples at 10000 Hz, got 0 at 10000 Hz"),
            ("200-samples", "need >= 256 samples at 10000 Hz, got 200 at 10000 Hz"),
            ("rate-7", "sample rate 7 Hz is outside [1000, 384000] Hz"),
            ("rate-2**31", "sample rate 2147493648 Hz is outside [1000, 384000] Hz"),
        ]
    ])
    def test_degenerate_wav_is_usage_error(self, workspace, tmp_path, capsys, case, named):
        wav = tmp_path / f"{case}.wav"
        if case == "no-fmt":
            data = b"data" + struct.pack("<I", 4) + bytes(4)
            wav.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(data)) + b"WAVE" + data)
        else:
            n = {"empty": 0, "200-samples": 200}.get(case, 2000)
            write_wav(wav, Waveform(np.full(n, 0.1), 10000))
        blob = bytearray(wav.read_bytes())
        if case == "odd-fmt-size":  # fmt chunk size 16 -> 17: wave seeks past the chunk
            blob[16] ^= 1
        elif case.startswith("rate-"):  # bytes 24-27 hold the sample rate
            blob[24:28] = struct.pack("<I", 7 if case == "rate-7" else 10000 | 1 << 31)
        wav.write_bytes(bytes(blob))
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path / "stems"),
            "denoise", "--checkpoint", str(workspace["run"] / "model.scem"), str(wav),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {wav}: {named}" in err and "Traceback" not in err

    def test_kmeans_max_iter_is_read(self, workspace, tmp_path):
        cfg = tmp_path / "zero_iter.cfg"
        cfg.write_text(workspace["cfg"].read_text() + "kmeans_max_iter = 0\n")
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        code = main([
            "--config", str(cfg), "--out", str(tmp_path), "denoise",
            "--checkpoint", str(workspace["run"] / "model.scem"), str(wav),
        ])
        assert code == 2

    @pytest.mark.parametrize("missing", [
        "meta:n_freq", "meta:lr", "meta:step", "meta:best_epoch",
        "param/embed.w", "param/blstm1.b",
        "adam/m/blstm0.w", "adam/v/table",
        "best/embed.w", "best/table",
    ])
    def test_checkpoint_missing_key_is_corrupt(self, workspace, tmp_path, capsys, missing):
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        if missing.startswith("meta:"):
            del meta[missing[len("meta:"):]]
        else:
            del tensors[missing]
        bad = tmp_path / "partial.scem"
        write_container(bad, MAGIC_MODEL, meta, tensors)
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path),
            "denoise", "--checkpoint", str(bad), str(wav),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "checkpoint has no" in err and missing.split(":")[-1] in err

    def denoise_with(self, workspace, tmp_path, meta, tensors):
        """Exit code of `denoise` with a checkpoint of these contents, and the
        checkpoint's path."""
        path = tmp_path / "edited.scem"
        write_container(path, MAGIC_MODEL, meta, tensors)
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path / "stems"),
            "denoise", "--checkpoint", str(path), str(wav),
        ])
        return code, path

    def test_checkpoint_without_best_snapshot_is_corrupt(self, workspace, tmp_path, capsys):
        # The last-epoch weights do not stand in for a missing best snapshot.
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        kept = {k: v for k, v in tensors.items() if not k.startswith("best/")}
        code, path = self.denoise_with(workspace, tmp_path, meta, kept)
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {path}: checkpoint has no 'best/blstm0.w'" in err and "Traceback" not in err
        assert not (tmp_path / "stems").exists()

    def test_wrong_shaped_best_tensor_is_corrupt(self, workspace, tmp_path, capsys):
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        tensors["best/embed.w"] = tensors["best/embed.w"][:, :-1]
        code, path = self.denoise_with(workspace, tmp_path, meta, tensors)
        err = capsys.readouterr().err
        assert code == 1
        shape = tensors["param/embed.w"].shape
        assert (f"error: {path}: checkpoint tensor 'best/embed.w' has shape "
                f"{tensors['best/embed.w'].shape}, expected {shape}") in err
        assert "Traceback" not in err

    def test_unread_tensors_are_ignored(self, workspace, tmp_path):
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        stems = []
        for name, extra in (("plain", {}), ("extra", {"notes/x": np.zeros(3), "best/unused": np.ones((2, 2))})):
            (tmp_path / name).mkdir()
            assert self.denoise_with(workspace, tmp_path / name, meta, dict(tensors, **extra))[0] == 0
            stems.append([p.read_bytes() for p in sorted((tmp_path / name / "stems").glob("*.wav"))])
        assert stems[0] == stems[1] and len(stems[0]) == 2

    @pytest.mark.parametrize("mode", ["cluster", "mi"])
    def test_stem_ends_are_not_amplified(self, workspace, mode):
        # At 25,000 samples the last synthesized samples lie under one fading
        # window, whose squared sum alone would amplify a masked frame up to
        # ~26,000x; the floored sum caps that gain at 10.
        model = load_inference_model(workspace["run"] / "model.scem")
        joined = np.concatenate([read_wav(workspace["data"] / f"test-{i}.mix.wav").samples for i in (0, 1)])
        mixture = Waveform(joined[:25000], 10000)
        result = denoise(model, mixture, mode=mode, k=2, seed=0, restarts=2)
        peak = np.abs(mixture.samples).max()
        assert all(np.abs(stem.samples).max() <= 10 * peak for stem in result.stems)

    @pytest.mark.parametrize("channels,width,named", [
        (2, 2, "expected mono, got 2 channels"),
        (1, 1, "expected 16-bit PCM, got 8-bit"),
    ])
    def test_unsupported_wav_format_is_usage_error(self, workspace, tmp_path, capsys, channels, width, named):
        wav = tmp_path / "clip.wav"
        with wave.open(str(wav), "wb") as f:
            f.setnchannels(channels)
            f.setsampwidth(width)
            f.setframerate(10000)
            f.writeframes(bytes(8000))
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path / "stems"),
            "denoise", "--checkpoint", str(workspace["run"] / "model.scem"), str(wav),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {wav}: {named}" in err and "Traceback" not in err

    def test_foreign_rate_is_resampled_with_a_warning(self, workspace, tmp_path, capsys):
        n = 16001
        wav = tmp_path / "8k.wav"
        write_wav(wav, Waveform(read_wav(workspace["data"] / "test-0.mix.wav").samples[:n], 8000))
        out = tmp_path / "stems"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "denoise", "--checkpoint", str(workspace["run"] / "model.scem"), str(wav), "--mode", "mi",
        ])
        assert code == 0
        assert f"warning: resampling {wav} from 8000 Hz to 10000 Hz" in capsys.readouterr().err
        stems = [read_wav(p) for p in sorted(out.glob("*.src*.wav"))]
        assert len(stems) == 2
        assert all(s.sample_rate_hz == 10000 and len(s) == -(-n * 5 // 4) for s in stems)

    @pytest.mark.parametrize("key,value,named", [
        ("n_freq", "25x", "checkpoint meta 'n_freq' is not a valid int: '25x'"),
        ("lr", "0.0l", "checkpoint meta 'lr' is not a valid float: '0.0l'"),
        ("seed", "5s", "checkpoint meta 'seed' is not a valid int: '5s'"),
        ("hidden_total", "7", "checkpoint config rejected: hidden_total must be even"),
    ])
    def test_unparseable_checkpoint_meta_is_corrupt(self, workspace, tmp_path, capsys, key, value, named):
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        meta[key] = value
        bad = tmp_path / "bad_meta.scem"
        write_container(bad, MAGIC_MODEL, meta, tensors)
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path),
            "denoise", "--checkpoint", str(bad), str(wav),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: {named}" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,bad", [
        ("param/embed.w", np.nan), ("best/blstm0.w", np.inf),
        ("adam/m/table", np.nan), ("adam/v/blstm1.b", -np.inf),
    ])
    def test_non_finite_checkpoint_is_corrupt(self, workspace, tmp_path, capsys, key, bad):
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        tensors[key] = tensors[key].copy()
        tensors[key].flat[0] = bad
        path = tmp_path / "non_finite.scem"
        write_container(path, MAGIC_MODEL, meta, tensors)
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path),
            "denoise", "--checkpoint", str(path), str(wav),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and key in err
        assert "Traceback" not in err

    def scaled_checkpoint(self, workspace, tmp_path, key, scale):
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        tensors[key] = tensors[key] * scale
        path = tmp_path / "scaled.scem"
        write_container(path, MAGIC_MODEL, meta, tensors)
        return path

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["cluster", "mi"])
    def test_huge_gate_weights_run_without_warnings(self, workspace, tmp_path, capsys, mode):
        # exp overflows to inf in the gate sigmoid, whose value is then exactly 0
        path = self.scaled_checkpoint(workspace, tmp_path, "best/blstm0.w", -1e300)
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        out = tmp_path / "stems"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "denoise", "--checkpoint", str(path), str(wav), "--mode", mode,
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        stems = [read_wav(p) for p in sorted(out.glob("*.src*.wav"))]
        assert len(stems) == 2 and all(np.all(np.isfinite(s.samples)) for s in stems)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_embedding_norm_fails(self, workspace, tmp_path, capsys):
        path = self.scaled_checkpoint(workspace, tmp_path, "best/embed.w", 1e300)
        wav = next(iter(workspace["data"].glob("*.mix.wav")))
        out = tmp_path / "stems"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out),
            "denoise", "--checkpoint", str(path), str(wav), "--mode", "cluster",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: embedding norm is not finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command,mode,keys", [
        ("denoise", "cluster", ("best/embed.w", "best/embed.b")),
        ("denoise", "mi", ("best/embed.w", "best/embed.b")),
        ("eval", "mi", ("best/embed.w", "best/embed.b")),
        ("denoise", "mi", ("best/mi.w",)),
        ("eval", "mi", ("best/mi.w",)),
    ], ids=["denoise-cluster", "denoise-mi", "eval-mi", "denoise-mi-head", "eval-mi-head"])
    def test_overflowing_finite_weights_are_non_finite_embedding(
        self, workspace, tmp_path, capsys, command, mode, keys
    ):
        # Every weight is finite, but the embedding affine overflows to inf,
        # or (mi.w alone) the field is finite and only the MI head overflows:
        # in MI mode, that is the composed weight embed.w·mi.w.
        meta, tensors = read_container(workspace["run"] / "model.scem", MAGIC_MODEL)
        for key in keys:
            tensors[key] = np.full_like(tensors[key], 1.7e308)
        path = tmp_path / "overflow.scem"
        write_container(path, MAGIC_MODEL, meta, tensors)
        if command == "denoise":
            args = ["denoise", "--checkpoint", str(path), str(next(iter(workspace["data"].glob("*.mix.wav"))))]
        else:
            args = ["eval", "--manifest", str(workspace["manifest"]), "--checkpoint", str(path)]
        out = tmp_path / "out"
        code = main(["--config", str(workspace["cfg"]), "--out", str(out), *args, "--mode", mode])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "is not finite at" in err and "Traceback" not in err
        assert not out.exists()

    def test_out_of_memory_exits_cleanly(self, workspace, tmp_path):
        # Neither mode's denoise of a 300 s clip fits in 300 MB of address
        # space; the limit is set only in the child that runs denoise.
        wav = tmp_path / "long.wav"
        write_wav(wav, Waveform(0.1 * np.random.default_rng(0).standard_normal(300 * 10000), 10000))
        limit = 300 * 2**20
        env = {**os.environ, "PYTHONPATH": str(Path(scesep.__file__).resolve().parents[1])}
        for mode in ("cluster", "mi"):
            proc = subprocess.run(
                [sys.executable, "-m", "scesep.cli", "--config", str(workspace["cfg"]),
                 "--out", str(tmp_path / mode), "denoise",
                 "--checkpoint", str(workspace["run"] / "model.scem"), str(wav), "--mode", mode],
                capture_output=True, text=True, env=env, timeout=300,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            )
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: out of memory in denoise: Unable to allocate"), proc.stderr
            assert proc.stderr.rstrip().endswith("(long.wav: 300.0 s at 10000 Hz)"), proc.stderr
            assert "Traceback" not in proc.stderr


class TestEval:
    def run_eval(self, workspace, out, algos, extra=()):
        args = ["--config", str(workspace["cfg"]), "--out", str(out), "eval",
                "--manifest", str(workspace["manifest"])]
        for a in algos:
            args += ["--algo", a]
        args += list(extra)
        return main(args)

    def test_all_algorithms(self, workspace, tmp_path):
        out = tmp_path / "eval"
        code = self.run_eval(
            workspace, out, ["sce-mi", "snmf", "oracle-binary", "identity"],
            extra=["--checkpoint", str(workspace["run"] / "model.scem"),
                   "--snmf-dir", str(workspace["run"])],
        )
        assert code == 0
        with open(out / "metrics.csv") as f:
            rows = list(csv.DictReader(f))
        assert ",".join(rows[0].keys()) == CSV_HEADER
        algos = {r["algorithm"] for r in rows}
        assert algos == {"sce-mi", "snmf", "oracle-binary", "identity"}
        # identity: the mixture as estimate has zero improvement
        ident = [float(r["sdr_improvement_db"]) for r in rows if r["algorithm"] == "identity"]
        assert max(abs(v) for v in ident) < 1e-9
        # the oracle mask must help on every test clip
        oracle = [float(r["sdr_improvement_db"]) for r in rows if r["algorithm"] == "oracle-binary"]
        assert min(oracle) > 0.0
        modes = {r["mode"] for r in rows if r["algorithm"] == "sce-mi"}
        assert modes == {"cluster", "mi"}

    def test_snmf_stems_have_mixture_length(self, workspace, tmp_path, monkeypatch):
        import scesep.cli as cli

        seen = []
        real = cli.best_permutation

        def spy(sources, stems, mixture, **kwargs):
            seen.append((len(mixture), [len(s) for s in stems]))
            return real(sources, stems, mixture=mixture, **kwargs)

        monkeypatch.setattr(cli, "best_permutation", spy)
        code = self.run_eval(workspace, tmp_path, ["snmf"], extra=["--snmf-dir", str(workspace["run"])])
        assert code == 0
        assert seen and all(lengths == [n] * len(lengths) for n, lengths in seen)

    def test_wav_source_shorter_than_a_segment_is_usage_error(self, workspace, tmp_path, capsys):
        short = tmp_path / "short.wav"
        write_wav(short, Waveform(0.1 * np.random.default_rng(0).standard_normal(15000), 10000))
        lines = workspace["manifest"].read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.split("\t")[1] == "test")
        row = lines[i].split("\t")
        row[3] = f"wav:{short},{row[3].split(',')[1]}"
        lines[i] = "\t".join(row)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "eval"
        code = main(["--config", str(workspace["cfg"]), "--out", str(out),
                     "eval", "--manifest", str(manifest), "--algo", "identity"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: clip wav:{short} shorter than 20000 samples" in err and "Traceback" not in err
        assert not out.exists()

    def test_deterministic_csv(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert self.run_eval(workspace, out, ["identity", "oracle-binary"]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_k_is_not_an_eval_flag(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_eval(workspace, tmp_path, ["sce-mi"], extra=["--K", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --K 2" in capsys.readouterr().err

    def test_repeated_algo_counts_once(self, workspace, tmp_path, capsys):
        once, twice = tmp_path / "once", tmp_path / "twice"
        snmf_dir = ["--snmf-dir", str(workspace["run"])]
        assert self.run_eval(workspace, once, ["snmf"], extra=snmf_dir) == 0
        printed_once = capsys.readouterr().out.replace(str(once), "OUT")
        assert self.run_eval(workspace, twice, ["snmf", "snmf"], extra=snmf_dir) == 0
        printed_twice = capsys.readouterr().out.replace(str(twice), "OUT")
        assert (twice / "metrics.csv").read_bytes() == (once / "metrics.csv").read_bytes()
        assert printed_twice == printed_once

    def test_empty_test_split_fails(self, workspace, tmp_path, capsys, monkeypatch):
        def no_audio(*args, **kwargs):
            raise AssertionError("eval synthesized audio")

        for name in ("synth_speechlike", "synth_noise"):
            monkeypatch.setattr(mixtures, name, no_audio)
        rows = workspace["manifest"].read_text().splitlines()
        manifest = tmp_path / "no_test.tsv"
        manifest.write_text("".join(r + "\n" for r in rows if r.split("\t")[1] != "test"))
        out = tmp_path / "eval"
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(out), "eval",
            "--manifest", str(manifest), "--algo", "identity",
        ])
        assert code == 1
        assert f"manifest {manifest} has no test rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algos,named", [
        pytest.param([], "eval --algo sce-mi needs --checkpoint", id="default-sce-mi"),
        pytest.param(["snmf"], "eval --algo snmf needs --snmf-dir", id="snmf"),
    ])
    def test_missing_model_flag_is_usage_error(self, workspace, tmp_path, capsys, monkeypatch, algos, named):
        import scesep.cli as cli

        built = []
        monkeypatch.setattr(cli, "read_manifest", lambda *args, **kwargs: built.append(args))
        code = self.run_eval(workspace, tmp_path / "eval", algos)
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {named}" in err and "Traceback" not in err
        assert not built  # rejected before any audio is built

    def test_snmf_dir_without_noise_dictionaries(self, workspace, tmp_path, capsys):
        speech_only = tmp_path / "speech_only"
        speech_only.mkdir()
        (speech_only / "snmf_class0.dict").write_bytes((workspace["run"] / "snmf_class0.dict").read_bytes())
        code = self.run_eval(workspace, tmp_path / "eval", ["snmf"], extra=["--snmf-dir", str(speech_only)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {speech_only} holds no noise dictionary snmf_class1..4.dict" in err
        assert "Traceback" not in err

    def copy_dictionaries(self, workspace, tmp_path):
        snmf_dir = tmp_path / "snmf"
        snmf_dir.mkdir()
        for path in workspace["run"].glob("snmf_class*.dict"):
            (snmf_dir / path.name).write_bytes(path.read_bytes())
        return snmf_dir

    @pytest.mark.parametrize("damage", ["no-w", "no-class_id", "nan", "inf", "negative", "no-columns"])
    def test_damaged_dictionary_is_corrupt(self, workspace, tmp_path, capsys, damage):
        snmf_dir = self.copy_dictionaries(workspace, tmp_path)
        path = snmf_dir / "snmf_class0.dict"
        meta, tensors = read_container(path, MAGIC_NMF)
        w = tensors["w"].copy()
        if damage == "no-w":
            tensors = {"v": w}
        elif damage == "no-class_id":
            meta = {}
        elif damage == "no-columns":
            tensors = {"w": w[:, :0]}
        else:
            w[3, 2] = {"nan": np.nan, "inf": np.inf, "negative": -0.25}[damage]
            tensors = {"w": w}
        write_container(path, MAGIC_NMF, meta, tensors)
        out = tmp_path / "eval"
        code = self.run_eval(workspace, out, ["snmf"], extra=["--snmf-dir", str(snmf_dir)])
        err = capsys.readouterr().err
        named = {
            "no-w": "checkpoint has no 'w'", "no-class_id": "checkpoint has no 'class_id'",
            "no-columns": "dictionary 'w' must be a matrix with entries in [0, 1] and at least one column",
        }.get(damage, "dictionary 'w' must be a matrix with entries in [0, 1]")
        assert code == 1
        assert f"error: {path}: {named}" in err and "Traceback" not in err
        assert not out.exists()

    def test_dictionary_rows_must_match_n_freq(self, workspace, tmp_path, capsys):
        snmf_dir = self.copy_dictionaries(workspace, tmp_path)
        path = snmf_dir / "snmf_class0.dict"
        meta, tensors = read_container(path, MAGIC_NMF)
        write_container(path, MAGIC_NMF, meta, {"w": tensors["w"][:-1]})
        out = tmp_path / "eval"
        code = self.run_eval(workspace, out, ["snmf"], extra=["--snmf-dir", str(snmf_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {path}: dictionary has 256 rows, expected n_freq = 257" in err
        assert "Traceback" not in err and not out.exists()

    def test_summary_lines_match_metrics_csv(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        code = self.run_eval(
            workspace, out, ["sce-mi", "snmf", "oracle-binary", "identity"],
            extra=["--checkpoint", str(workspace["run"] / "model.scem"),
                   "--snmf-dir", str(workspace["run"])],
        )
        assert code == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            m = re.fullmatch(r"(\S+) +noise=(\S+) +mean= *(\S+) dB median= *(\S+) dB n=(\d+)", line)
            assert m, line
            printed[m[1], m[2]] = (float(m[3]), float(m[4]), int(m[5]))
        gains = {}
        with open(out / "metrics.csv") as f:
            for r in csv.DictReader(f):
                label = f"{r['algorithm']}/{r['mode']}" if r["mode"] else r["algorithm"]
                gains.setdefault((label, r["noise_kind"]), []).append(float(r["sdr_improvement_db"]))
        assert set(printed) == set(gains)
        for key, vals in gains.items():
            mean, median, count = printed[key]
            assert abs(mean - np.mean(vals)) <= 0.005 + 1e-12
            assert abs(median - np.median(vals)) <= 0.005 + 1e-12
            assert count == len(vals)
        # Labels in the order eval first meets them, noise kinds sorted in each.
        labels = list(dict.fromkeys(label for label, _ in gains))
        assert list(printed) == [(label, kind) for label in labels
                                 for kind in sorted(k for lb, k in gains if lb == label)]

    def test_both_modes_embed_each_clip_once(self, workspace, tmp_path, monkeypatch):
        from scesep.model import SeparationModel

        checkpoint = ["--checkpoint", str(workspace["run"] / "model.scem")]
        rows = {}
        for mode in ("cluster", "mi"):
            assert self.run_eval(workspace, tmp_path / mode, ["sce-mi"], extra=checkpoint + ["--mode", mode]) == 0
            rows[mode] = (tmp_path / mode / "metrics.csv").read_text().splitlines()[1:]
        calls = []
        real = SeparationModel.forward_embeddings

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SeparationModel, "forward_embeddings", counted)
        assert self.run_eval(workspace, tmp_path / "both", ["sce-mi"], extra=checkpoint) == 0
        n_test = sum(r.split("\t")[1] == "test" for r in workspace["manifest"].read_text().splitlines())
        assert n_test and len(calls) == n_test
        both = (tmp_path / "both" / "metrics.csv").read_text().splitlines()[1:]
        for mode, mode_rows in rows.items():
            assert [r for r in both if r.split(",")[2] == mode] == mode_rows

    def test_mode_filter(self, workspace, tmp_path):
        out = tmp_path / "mi_only"
        code = self.run_eval(
            workspace, out, ["sce-mi"],
            extra=["--checkpoint", str(workspace["run"] / "model.scem"), "--mode", "mi"],
        )
        assert code == 0
        with open(out / "metrics.csv") as f:
            rows = list(csv.DictReader(f))
        assert {r["mode"] for r in rows} == {"mi"}


def track_live_records(monkeypatch):
    """Wrap `mix_at_snr` so every MixRecord it builds is tracked until freed.

    Returns `(built, live, peak)`: the clip ids built, in order; the ids of
    the records still alive; and how many were alive after each build."""
    built, live, peak, real = [], set(), [], mixtures.mix_at_snr

    def tracked(*args, **kwargs):
        rec = real(*args, **kwargs)
        built.append(rec.clip_id)
        live.add(rec.clip_id)
        weakref.finalize(rec, live.discard, rec.clip_id)
        peak.append(len(live))
        return rec

    monkeypatch.setattr(mixtures, "mix_at_snr", tracked)
    return built, live, peak


COMMANDS = ["mix", "train", "train-snmf", "denoise", "eval", "gradcheck"]


def rejected_on(workspace, tmp_path, capsys, command, cfg_lines):
    """Run `command` with `cfg_lines` added to the config; assert exit 2 with
    no output and nothing written, and return stderr."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CFG + cfg_lines)
    manifest, ckpt = str(workspace["manifest"]), str(workspace["run"] / "model.scem")
    wav = str(next(iter(workspace["data"].glob("*.mix.wav"))))
    argv = {
        "mix": ["mix", "--materialize"],
        "train": ["train", "--manifest", manifest],
        "train-snmf": ["train", "--manifest", manifest, "--algo", "snmf"],
        "denoise": ["denoise", "--checkpoint", ckpt, wav],
        "eval": ["eval", "--manifest", manifest, "--checkpoint", ckpt],
        "gradcheck": ["gradcheck"],
    }[command]
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()
    return captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_snr_beyond_limit_is_usage_error_on_every_command(workspace, tmp_path, capsys, command):
    # At -140 dB the noise gain is 1e7 and eval's absolute partition check
    # would fail a correct pipeline; the key is rejected before any work.
    err = rejected_on(workspace, tmp_path, capsys, command, "snr_min_db = -140\nsnr_max_db = -140\n")
    assert "snr_min_db must be in [-100, 100] dB, got -140.0" in err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", ["kmeans_restarts", "kmeans_max_iter"])
def test_kmeans_bound_is_usage_error_on_every_command(workspace, tmp_path, capsys, key, command):
    err = rejected_on(workspace, tmp_path, capsys, command, f"{key} = 0\n")
    assert f"{key} must be >= 1, got 0" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_low_sample_rate_is_usage_error_on_every_command(workspace, tmp_path, capsys, command):
    # At 100 Hz the synthetic jackhammer and crowd are silent, and train
    # used to fail on "segment has zero power", naming no key. Below 1000 Hz
    # denoise would reject the corpus's own WAVs.
    err = rejected_on(workspace, tmp_path, capsys, command, "sample_rate_hz = 100\nwindow_len = 16\nhop = 8\n")
    assert "sample_rate_hz must be in [1000, 384000] Hz, got 100" in err


class TestStreamedRecords:
    """Commands hold only the records they still need, whatever n_test is."""

    ALL_ROWS = ["train-0", "train-1", "train-2", "train-3", "val-0", "val-1", "test-0", "test-1"]

    def test_eval_holds_at_most_two_records(self, workspace, tmp_path, monkeypatch):
        built, live, peak = track_live_records(monkeypatch)
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path), "eval",
            "--manifest", str(workspace["manifest"]),
            "--checkpoint", str(workspace["run"] / "model.scem"),
            "--snmf-dir", str(workspace["run"]),
            *[arg for algo in ("sce-mi", "snmf", "oracle-binary", "identity")
              for arg in ("--algo", algo)],
        ])
        assert code == 0
        assert built == self.ALL_ROWS
        assert max(peak) <= 2 and not live

    def test_snmf_train_holds_at_most_two_records(self, workspace, tmp_path, monkeypatch):
        built, live, peak = track_live_records(monkeypatch)
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path),
            "train", "--manifest", str(workspace["manifest"]), "--algo", "snmf",
        ])
        assert code == 0
        assert built == self.ALL_ROWS
        assert max(peak) <= 2 and not live
        for path in workspace["run"].glob("snmf_class*.dict"):
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()

    def test_train_holds_no_test_record(self, workspace, tmp_path, monkeypatch):
        import scesep.cli as cli

        built, live, _ = track_live_records(monkeypatch)
        alive_at_train, real_train = [], cli.train

        def spy(*args, **kwargs):
            alive_at_train.extend(sorted(live))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", spy)
        code = main([
            "--config", str(workspace["cfg"]), "--out", str(tmp_path),
            "train", "--manifest", str(workspace["manifest"]),
        ])
        assert code == 0
        assert built == self.ALL_ROWS
        assert alive_at_train == sorted(self.ALL_ROWS[:6])  # train and val, no test
        assert (tmp_path / "model.scem").read_bytes() == (workspace["run"] / "model.scem").read_bytes()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "mix"]) == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["transmogrify"])


def _mutate(data, blob):
    """Truncate blob, or flip up to three of its bits."""
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")])
    # Bias flips toward the headers, where one bit changes the meaning of the rest.
    where = st.one_of(st.integers(0, min(len(blob), 256) - 1), st.integers(0, len(blob) - 1))
    for pos, bit in data.draw(st.lists(st.tuples(where, st.integers(0, 7)), min_size=1, max_size=3)):
        blob[pos] ^= 1 << bit
    return bytes(blob)


CONFIG_VALUES = ("-2", "-1", "0", "1", "2", "3", "0.5", "-0.5", "1e-9")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target", ["wav", "checkpoint", "config", "manifest", "dictionary"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_hostile_input_keeps_exit_contract(workspace, tmp_path_factory, target, data):
    """Damaged WAVs, checkpoints, manifests and SNMF dictionaries and
    out-of-range config values end in exit 0, 1 or 2 with a message, never a
    traceback or a numpy warning."""
    tmp = tmp_path_factory.mktemp("fuzz")
    clip = read_wav(next(iter(workspace["data"].glob("*.mix.wav"))))
    wav, ckpt, cfg = tmp / "clip.wav", tmp / "model.scem", tmp / "run.cfg"
    write_wav(wav, Waveform(clip.samples[:2000], clip.sample_rate_hz))
    ckpt.write_bytes((workspace["run"] / "model.scem").read_bytes())
    cfg.write_text(SMALL_CFG)
    command = ["denoise", "--checkpoint", str(ckpt), str(wav),
               "--mode", data.draw(st.sampled_from(["mi", "cluster"]), label="mode")]
    if target == "wav":
        wav.write_bytes(_mutate(data, wav.read_bytes()))
    elif target == "checkpoint":
        ckpt.write_bytes(_mutate(data, ckpt.read_bytes()))
    elif target == "config":
        key = data.draw(st.sampled_from([f.name for f in fields(RunConfig)]), label="key")
        value = data.draw(st.sampled_from(CONFIG_VALUES), label="value")
        cfg.write_text(SMALL_CFG + f"{key} = {value}\n")
        if data.draw(st.booleans(), label="mix"):
            command = ["mix"]
    elif target == "manifest":
        manifest = tmp / "manifest.tsv"
        manifest.write_bytes(_mutate(data, workspace["manifest"].read_bytes()))
        command = ["eval", "--manifest", str(manifest), "--algo", "identity"]
    else:
        snmf_dir = tmp / "snmf"
        snmf_dir.mkdir()
        paths = sorted(workspace["run"].glob("snmf_class*.dict"))
        damaged = data.draw(st.sampled_from(paths), label="dictionary")
        for path in paths:
            blob = path.read_bytes()
            (snmf_dir / path.name).write_bytes(_mutate(data, blob) if path == damaged else blob)
        command = ["eval", "--manifest", str(workspace["manifest"]), "--algo", "snmf",
                   "--snmf-dir", str(snmf_dir)]
    output = io.StringIO()
    with redirect_stdout(output), redirect_stderr(output):
        code = main(["--config", str(cfg), "--out", str(tmp / "out"), *command])
    assert code in (0, 1, 2)
    assert "Traceback" not in output.getvalue()
