import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from scesep.config import RunConfig, parse_config_file, resolve
from scesep.dsp import StftConfig
from scesep.model import ModelConfig
from scesep.seeding import rng_for, stream_seed
from scesep.snmf import SnmfConfig

# RunConfig keys read by the CLI itself rather than by a sub-config.
CLI_KEYS = {
    "seed", "n_train", "n_val", "n_test", "snr_min_db", "snr_max_db", "clip_duration_s",
    "kmeans_restarts", "kmeans_max_iter", "low_energy_threshold",
}


class TestParseConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_basic_types(self, tmp_path):
        path = self.write(tmp_path, "epochs = 12\nlr = 0.005\nsnr_min_db = -3\n")
        overrides = parse_config_file(path)
        assert overrides == {"epochs": 12, "lr": 0.005, "snr_min_db": -3.0}
        assert isinstance(overrides["epochs"], int)

    def test_comments_and_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "# full line comment\n\nepochs = 9  # trailing\n")
        assert parse_config_file(path) == {"epochs": 9}

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "momentum = 0.9\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = self.write(tmp_path, "epochs 12\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, value):
        path = self.write(tmp_path, f"epochs = 3\nsnmf_sparsity = {value}\n")
        with pytest.raises(ValueError, match="run.cfg:2: snmf_sparsity must be finite"):
            parse_config_file(path)

    def test_bad_value_type(self, tmp_path):
        path = self.write(tmp_path, "epochs = 3.5\n")
        with pytest.raises(ValueError, match="run.cfg:1: epochs must be int, got '3.5'"):
            parse_config_file(path)


class TestResolve:
    def test_defaults(self):
        cfg = resolve()
        assert cfg == RunConfig()

    def test_file_overrides_defaults(self):
        cfg = resolve({"epochs": 3}, None)
        assert cfg.epochs == 3

    def test_cli_beats_file(self):
        cfg = resolve({"epochs": 3, "lr": 0.5}, {"epochs": 7})
        assert cfg.epochs == 7 and cfg.lr == 0.5

    def test_none_cli_values_ignored(self):
        cfg = resolve({"epochs": 3}, {"epochs": None})
        assert cfg.epochs == 3


class TestCrossKeyChecks:
    @pytest.mark.parametrize("overrides,named", [
        ({"snr_min_db": 6.0}, "snr_min_db must be <= snr_max_db, got 6.0 > 5.0"),
        ({"snr_min_db": 0.0, "snr_max_db": -0.5}, "snr_min_db must be <= snr_max_db"),
        ({"snr_min_db": -140.0}, r"snr_min_db must be in \[-100, 100\] dB, got -140.0"),
        ({"snr_max_db": 100.5}, r"snr_max_db must be in \[-100, 100\] dB, got 100.5"),
        ({"sample_rate_hz": 999}, r"sample_rate_hz must be in \[1000, 384000\] Hz, got 999"),
        ({"sample_rate_hz": 384001}, r"sample_rate_hz must be in \[1000, 384000\] Hz, got 384001"),
        ({"low_energy_threshold": -1.0}, r"low_energy_threshold must be in \[0, 1\), got -1.0"),
        ({"low_energy_threshold": 5.0}, r"low_energy_threshold must be in \[0, 1\), got 5.0"),
        ({"hop": 512}, "hop must be at most window_len / 2, got hop 512 and window_len 512"),
        ({"window_len": 8, "hop": 8}, "hop must be at most window_len / 2, got hop 8 and window_len 8"),
        ({"window_len": 4096, "hop": 4096},
         "hop must be at most window_len / 2, got hop 4096 and window_len 4096"),
    ])
    def test_rejected_with_keys_named(self, overrides, named):
        with pytest.raises(ValueError, match=named):
            resolve(overrides)

    def test_equal_snr_bounds_accepted(self):
        assert resolve({"snr_min_db": 3.0, "snr_max_db": 3.0}).snr_min_db == 3.0

    def test_lowest_sample_rate_accepted(self):
        assert resolve({"sample_rate_hz": 1000}).stft_config().sample_rate_hz == 1000

    def test_snr_limits_accepted(self):
        cfg = resolve({"snr_min_db": -100.0, "snr_max_db": 100.0})
        assert (cfg.snr_min_db, cfg.snr_max_db) == (-100.0, 100.0)


class TestDerivedConfigs:
    def test_stft_config(self):
        s = RunConfig(window_len=256, hop=128).stft_config()
        assert (s.window_len, s.hop) == (256, 128)
        assert s.n_freq == 129

    def test_model_config(self):
        m = RunConfig(hidden_total=16, embed_dim=4).model_config(n_table_rows=10)
        assert m.hidden_total == 16
        assert m.embed_dim == 4
        assert m.n_table_rows == 10
        assert m.n_freq == 257

    def test_snmf_config(self):
        s = RunConfig(snmf_rank=8, snmf_sparsity=0.3).snmf_config()
        assert (s.rank, s.sparsity) == (8, 0.3)

    def test_defaults_agree(self):
        assert RunConfig().stft_config() == StftConfig()
        assert RunConfig().model_config(16) == ModelConfig()
        assert RunConfig().snmf_config() == SnmfConfig()

    def test_every_key_reaches_exactly_one_place(self):
        # Doubling any key (0 -> 1) but hop, which is halved, keeps the config
        # valid; see which sub-configs move. window_len also moves ModelConfig
        # through n_freq.
        base = RunConfig()
        sub_configs = {
            "stft": RunConfig.stft_config,
            "model": lambda c: c.model_config(16),
            "snmf": RunConfig.snmf_config,
        }
        for f in fields(RunConfig):
            value = getattr(base, f.name)
            new = value // 2 if f.name == "hop" else value * 2 if value else 1
            changed = replace(base, **{f.name: f.type(new)})
            moved = {k for k, build in sub_configs.items() if build(changed) != build(base)}
            if f.name in CLI_KEYS:
                assert moved == set(), f.name
            elif f.name == "window_len":
                assert moved == {"stft", "model"}
            else:
                assert len(moved) == 1, (f.name, moved)

    def test_readme_lists_the_defaults(self):
        # README's ini block is the one copy of the defaults outside the code.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        pairs = re.findall(r"(\w+) = (\S+)", block)
        kinds = {f.name: f.type for f in fields(RunConfig)}
        for key, value in pairs:
            assert key in kinds, key
            assert kinds[key](value) == getattr(RunConfig(), key), key
        assert sorted(key for key, _ in pairs) == sorted(set(kinds) - {"seed"})

    def test_model_fields_not_fed_by_run_config(self):
        unfed = {f.name for f in fields(ModelConfig)} - {f.name for f in fields(RunConfig)}
        assert unfed == {"n_freq", "n_table_rows"}


class TestSeeding:
    def test_streams_differ_by_purpose(self):
        assert stream_seed(1, "a") != stream_seed(1, "b")

    def test_streams_differ_by_master(self):
        assert stream_seed(1, "a") != stream_seed(2, "a")

    def test_stable_values(self):
        assert stream_seed(0, "x") == stream_seed(0, "x")

    def test_rng_reproducible(self):
        a = rng_for(5, "draw").random(4)
        b = rng_for(5, "draw").random(4)
        assert (a == b).all()
