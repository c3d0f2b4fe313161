import csv

import numpy as np
import pytest

from scesep.cli import main
from scesep.container import MAGIC_MODEL, read_container, write_container
from scesep.metrics import CSV_HEADER

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

    def test_snmf_dictionaries(self, workspace):
        dicts = sorted(p.name for p in workspace["run"].glob("snmf_class*.dict"))
        assert "snmf_class0.dict" in dicts  # speech
        assert len(dicts) >= 2  # plus at least one noise class

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

    @pytest.mark.parametrize("line", ["snmf_sparsity = nan", "lr = inf", "n_mix_sources = 2"])
    def test_rejected_config_is_usage_error(self, workspace, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG + line + "\n")
        out = tmp_path / "run"
        code = main([
            "--config", str(cfg), "--out", str(out),
            "train", "--manifest", str(workspace["manifest"]), "--algo", "snmf",
        ])
        assert code == 2
        assert "bad.cfg:12:" in capsys.readouterr().err
        assert not out.exists()


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
        "param/embed.w", "param/blstm1.bwd.b_candidate",
        "adam/m/blstm0.fwd.w_input", "adam/v/table",
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

    @pytest.mark.parametrize("key,bad", [
        ("param/embed.w", np.nan), ("best/blstm0.fwd.w_input", np.inf),
        ("adam/m/table", np.nan), ("adam/v/blstm1.bwd.b_forget", -np.inf),
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

    def test_deterministic_csv(self, workspace, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert self.run_eval(workspace, out, ["identity", "oracle-binary"]) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_nonpositive_k_rejected_at_parse_time(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run_eval(workspace, tmp_path, ["sce-mi"], extra=["--K", "-1"])
        assert exc.value.code == 2

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
