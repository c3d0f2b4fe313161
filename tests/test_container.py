import warnings

import numpy as np
import pytest

from scesep.container import (
    FORMAT_VERSION,
    MAGIC_MODEL,
    MAGIC_NMF,
    read_container,
    write_container,
)
from scesep.errors import CorruptCheckpoint
from scesep.model import ModelConfig, SeparationModel, load_checkpoint, save_checkpoint, train
from scesep.seeding import rng_for

from test_model import tiny_record


def test_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    tensors = {
        "a": np.arange(6.0).reshape(2, 3),
        "b": np.array(3.5),
        "nested/name": np.zeros(4),
    }
    write_container(path, MAGIC_MODEL, {"x": 1, "y": "text"}, tensors)
    meta, back = read_container(path, MAGIC_MODEL)
    assert meta == {"x": "1", "y": "text"}
    assert set(back) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], tensors[k])
        assert back[k].shape == np.asarray(tensors[k]).shape


def test_empty_meta_and_tensors(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC_NMF, {}, {})
    meta, tensors = read_container(path, MAGIC_NMF)
    assert meta == {} and tensors == {}


def test_wrong_magic(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC_MODEL, {}, {})
    with pytest.raises(CorruptCheckpoint):
        read_container(path, MAGIC_NMF)


def test_bad_version(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC_MODEL, {}, {})
    blob = bytearray(path.read_bytes())
    blob[4] = FORMAT_VERSION + 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        read_container(path, MAGIC_MODEL)


def test_truncated_file(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC_MODEL, {"k": "v"}, {"t": np.ones(8)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 20])
    with pytest.raises(CorruptCheckpoint):
        read_container(path, MAGIC_MODEL)


def test_absurd_dims(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC_MODEL, {"k": "v"}, {"t": np.ones((8, 8))})
    blob = bytearray(path.read_bytes())
    # header 12 + "k=v" 3 + name length 2 + "t" 1 + rank 1: the first dim
    blob[19:27] = b"\xff" * 8
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        read_container(path, MAGIC_MODEL)


def test_absurd_rank_fails_without_warnings(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC_MODEL, {"k": "v"}, {"t": np.full((8, 8), -1.0)})
    blob = bytearray(path.read_bytes())
    # The rank byte: 40 dims, 38 of them read from the data; -1.0 read as a
    # u64 is above 2**63, so their product overflows even a float64.
    blob[18] = 40
    path.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptCheckpoint, match="overruns the file"):
            read_container(path, MAGIC_MODEL)


def test_byte_identical_rewrites(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    tensors = {"w": np.random.default_rng(0).random((3, 3))}
    write_container(a, MAGIC_MODEL, {"seed": 5}, tensors)
    write_container(b, MAGIC_MODEL, {"seed": 5}, tensors)
    assert a.read_bytes() == b.read_bytes()


class TestCheckpoint:
    CFG = ModelConfig(
        n_blstm_layers=1, hidden_total=4, embed_dim=3, n_freq=5,
        n_table_rows=4, batch_size=2, epochs=2,
    )

    def trained_state(self):
        recs = [tiny_record(i, source_ids=(2 + (i % 2), i % 2)) for i in range(4)]
        return recs, train(recs, recs[:1], self.CFG, seed=5)

    def test_save_load_round_trip(self, tmp_path):
        recs, state = self.trained_state()
        path = tmp_path / "model.scem"
        save_checkpoint(path, state, seed=5)
        loaded, meta = load_checkpoint(path)
        assert loaded.epoch == state.epoch
        assert loaded.best_epoch == state.best_epoch
        assert loaded.optimizer.step_count == state.optimizer.step_count
        for k, v in state.model.named_values().items():
            np.testing.assert_array_equal(loaded.model.named_values()[k], v)

    def test_resume_from_checkpoint_matches_straight_run(self, tmp_path):
        recs = [tiny_record(i, source_ids=(2 + (i % 2), i % 2)) for i in range(4)]
        cfg6 = ModelConfig(
            n_blstm_layers=1, hidden_total=4, embed_dim=3, n_freq=5,
            n_table_rows=4, batch_size=2, epochs=6,
        )
        straight = train(recs, recs[:1], cfg6, seed=5)
        half = train(recs, recs[:1], cfg6, seed=5, epochs=3)
        path = tmp_path / "half.scem"
        save_checkpoint(path, half, seed=5)
        loaded, meta = load_checkpoint(path)
        resumed = train(recs, recs[:1], cfg6, seed=int(meta["seed"]), state=loaded)
        for k, v in straight.model.named_values().items():
            np.testing.assert_array_equal(resumed.model.named_values()[k], v)

    def test_checkpoint_deterministic_bytes(self, tmp_path):
        _, state = self.trained_state()
        a, b = tmp_path / "a.scem", tmp_path / "b.scem"
        save_checkpoint(a, state, seed=5)
        save_checkpoint(b, state, seed=5)
        assert a.read_bytes() == b.read_bytes()
