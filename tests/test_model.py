import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scesep import nn
from scesep.dsp import Waveform
from scesep.errors import EmptyCorpus, NonFiniteLoss, ShapeMismatch, UnknownSource
from scesep.mixtures import MixRecord, make_labels
from scesep.model import (
    LOG_HEADER,
    Batch,
    ModelConfig,
    SeparationModel,
    TrainState,
    _losses,
    batch_from_records,
    evaluate_losses,
    gather_source_vectors,
    load_inference_model,
    mi_loss,
    save_checkpoint,
    sce_loss,
    train,
    write_log,
)
from scesep.seeding import rng_for

from oracles import (
    accum_copy_oracle,
    adam_step_oracle,
    affine_add_matmul_oracle,
    log_sigmoid_two_pass_oracle,
    sce_loss_oracle,
    softmax_reduce_oracle,
    unbroadcast_sum_oracle,
)

TINY = ModelConfig(
    n_blstm_layers=1,
    hidden_total=4,
    embed_dim=3,
    n_freq=5,
    n_table_rows=4,
)


def tiny_record(seed, source_ids=(2, 0), t=6, f=5):
    """A miniature in-memory record with consistent specs and labels."""
    rng = np.random.default_rng(seed)
    specs = [
        rng.standard_normal((t, f)) + 1j * rng.standard_normal((t, f))
        for _ in range(2)
    ]
    mix = specs[0] + specs[1]
    mags = [np.abs(s) for s in specs]
    wave = Waveform(rng.standard_normal(100), 10000)
    return MixRecord(
        clip_id=f"tiny-{seed}",
        mixture=wave,
        sources=[wave, wave],
        snr_db=0.0,
        mixture_spec=mix,
        source_mags=mags,
        labels=make_labels(mags),
        source_ids=list(source_ids),
        source_clip_ids=["a", "b"],
        noise_kind="siren",
        seed=seed,
    )


class TestModelConfig:
    def test_odd_hidden_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden_total=5)

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(sce_weight=1.5)


class TestSeparationModel:
    def test_embedding_shape(self):
        model = SeparationModel(TINY, rng_for(0, "init"))
        h = model.forward_embeddings(np.zeros((2, 6, 5)))
        assert h.shape == (2, 6, 4)
        assert model.embed_field(h).shape == (2, 6, 5, 3)

    def test_rejects_wrong_freq(self):
        model = SeparationModel(TINY, rng_for(0, "init"))
        with pytest.raises(ShapeMismatch):
            model.forward_embeddings(np.zeros((1, 6, 7)))

    def test_mi_masks_sum_to_one(self):
        model = SeparationModel(TINY, rng_for(1, "init"))
        h = model.forward_embeddings(np.random.default_rng(2).random((2, 6, 5)))
        for source in (model.embed_field(h), h):  # the field, then the composed head
            masks = model.mi_masks(source).data
            assert masks.shape == (2, 6, 5, 2)
            np.testing.assert_allclose(masks.sum(axis=-1), 1.0)
            assert masks.min() >= 0.0

    @pytest.mark.parametrize("batch,frames", [(1, 7), (2, 5)])
    @pytest.mark.parametrize("loaded", [False, True], ids=["random", "loaded"])
    def test_composed_head_matches_the_field(self, tmp_path, batch, frames, loaded):
        # From h, the head composes embed.w and mi.w and never builds the
        # field; its masks are the field's up to rounding.
        cfg = dataclasses.replace(TINY, n_blstm_layers=2)
        model = SeparationModel(cfg, rng_for(12, "init"))
        for p in (model.embed_b, model.mi_b):  # nonzero, so the composed bias is exercised
            p.data = rng_for(13, p.name).standard_normal(p.data.shape)
        if loaded:
            path = tmp_path / "model.scem"
            save_checkpoint(path, TrainState(model, nn.Adam(model.parameters(), cfg.lr)), seed=0)
            model = load_inference_model(path)
        h = model.forward_embeddings(np.random.default_rng(14).random((batch, frames, 5)))
        masks, ref = model.mi_masks(h).data, model.mi_masks(model.embed_field(h)).data
        assert masks.shape == ref.shape == (batch, frames, 5, 2)
        np.testing.assert_allclose(masks, ref, rtol=1e-12, atol=0)

    def test_table_rows_unit_norm(self):
        model = SeparationModel(TINY, rng_for(3, "init"))
        np.testing.assert_allclose(np.linalg.norm(model.table.data, axis=1), 1.0)

    def test_named_values_round_trip(self):
        a = SeparationModel(TINY, rng_for(4, "init"))
        b = SeparationModel(TINY, rng_for(5, "init"))
        b.load_values(a.named_values())
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_inference_model_records_no_tape(self, tmp_path):
        # Parameters that need no gradient: the forward keeps only outputs,
        # and they are the gradient path's bytes.
        cfg = dataclasses.replace(TINY, n_blstm_layers=2)
        model = SeparationModel(cfg, rng_for(8, "init"))
        path = tmp_path / "model.scem"
        save_checkpoint(path, TrainState(model, nn.Adam(model.parameters(), cfg.lr)), seed=0)
        loaded = load_inference_model(path)
        assert not any(p.requires_grad for p in loaded.parameters())
        x = np.random.default_rng(9).random((1, 6, 5))
        v, ref = loaded.embed_field(loaded.forward_embeddings(x)), model.embed_field(model.forward_embeddings(x))
        masks, ref_masks = loaded.mi_masks(v), model.mi_masks(ref)
        assert v._parents == () and masks._parents == ()
        assert ref._parents and ref_masks._parents
        assert v.data.tobytes() == ref.data.tobytes()
        assert masks.data.tobytes() == ref_masks.data.tobytes()

    def test_gather_rejects_out_of_range(self):
        model = SeparationModel(TINY, rng_for(7, "init"))
        with pytest.raises(UnknownSource):
            gather_source_vectors(model, [[0, 4]])


class TestSceLoss:
    def test_zero_embeddings_give_log2_per_bin(self):
        # sigma(0) = 1/2 for every term, so the per-bin loss is exactly log 2
        B, T, F, M, E = 2, 3, 4, 2, 5
        v_i = nn.Tensor(np.zeros((B, T, F, E)))
        v_o = nn.Tensor(np.zeros((B, M, E)))
        y = np.where(np.random.default_rng(0).random((B, T, F, M)) < 0.5, -1.0, 1.0)
        total = float(sce_loss(v_i, v_o, y).data)
        assert abs(total / (T * F) - math.log(2.0)) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        B, T, F, M, E = 2, 3, 4, 3, 2
        v_i = rng.standard_normal((B, T, F, E))
        v_o = rng.standard_normal((B, M, E))
        y = np.where(rng.random((B, T, F, M)) < 0.5, -1.0, 1.0)
        fast = float(sce_loss(nn.Tensor(v_i), nn.Tensor(v_o), y).data)
        assert abs(fast - sce_loss_oracle(v_i, v_o, y)) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_oracle_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        B, T, F, M, E = rng.integers(1, 5, size=5)
        v_i = rng.standard_normal((B, T, F, E))
        v_o = rng.standard_normal((B, M, E))
        y = np.where(rng.random((B, T, F, M)) < 0.5, -1.0, 1.0)
        fast = float(sce_loss(nn.Tensor(v_i), nn.Tensor(v_o), y).data)
        assert abs(fast - sce_loss_oracle(v_i, v_o, y)) < 1e-12

    def test_correct_sign_reduces_loss(self):
        # aligned embedding/table pairs must score below log 2 per bin
        v = np.ones((1, 2, 2, 3))
        v_o = np.stack([np.ones((1, 3)), -np.ones((1, 3))], axis=1)
        y = np.stack([np.ones((1, 2, 2)), -np.ones((1, 2, 2))], axis=-1)
        loss = float(sce_loss(nn.Tensor(v), nn.Tensor(v_o), y).data)
        assert loss / 4 < math.log(2.0)

    def test_int8_labels_match_float64_bit_for_bit(self):
        # The default model's embedding field for a batch of two 2 s clips.
        rng = rng_for(23, "sce-int8")
        B, T, F, M, E = 2, 78, 257, 2, 8
        y8 = np.stack([make_labels([np.abs(rng.standard_normal((T, F))) for _ in range(M)])
                       for _ in range(B)])
        assert y8.dtype == np.int8
        v_i0, table0 = rng.standard_normal((B, T, F, E)), rng.standard_normal((6, E))

        def run(y):
            v_i = nn.Tensor(v_i0, requires_grad=True)
            table = nn.Parameter(table0.copy(), "table")
            table.zero_grad()
            loss = sce_loss(v_i, nn.gather_rows(table, [[2, 0], [5, 1]]), y)
            loss.backward()
            return loss.data, v_i.grad, table.grad

        for a, ref in zip(run(y8), run(y8.astype(np.float64)), strict=True):
            np.testing.assert_array_equal(a, ref)

    def test_label_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sce_loss(nn.Tensor(np.zeros((1, 2, 2, 3))), nn.Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2, 2, 3)))


class TestMiLoss:
    def test_perfect_mask_zero_loss(self):
        rng = np.random.default_rng(2)
        x = rng.random((1, 3, 4))
        # one source owns everything: mask (1, 0) matches exactly
        true = np.stack([x, np.zeros_like(x)], axis=-1)
        mask = np.stack([np.ones_like(x), np.zeros_like(x)], axis=-1)
        assert float(mi_loss(nn.Tensor(mask), x, true).data) == 0.0

    def test_known_value(self):
        x = np.ones((1, 1, 1))
        true = np.stack([np.full((1, 1, 1), 0.25), np.full((1, 1, 1), 0.75)], axis=-1)
        mask = np.full((1, 1, 1, 2), 0.5)
        # both bins off by 0.25 -> mean squared error 0.0625
        assert float(mi_loss(nn.Tensor(mask), x, true).data) == pytest.approx(0.0625)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mi_loss(nn.Tensor(np.zeros((1, 2, 3, 2))), np.zeros((1, 2, 4)), np.zeros((1, 2, 3, 2)))


class TestBatchFromRecords:
    def test_shapes_and_normalization(self):
        batch = batch_from_records([tiny_record(0), tiny_record(1)])
        assert batch.x_mag.shape == (2, 6, 5)
        assert batch.labels.shape == (2, 6, 5, 2)
        assert batch.true_mags.shape == (2, 6, 5, 2)
        assert batch.source_ids.shape == (2, 2)
        np.testing.assert_allclose(batch.x_mag.max(axis=(1, 2)), 1.0)

    def test_true_mags_use_mixture_scale(self):
        rec = tiny_record(3)
        batch = batch_from_records([rec])
        scale = np.sqrt(np.abs(rec.mixture_spec)).max()
        expect = np.sqrt(np.abs(rec.source_mags[0])) / scale
        np.testing.assert_allclose(batch.true_mags[0, :, :, 0], expect)


class TestTraining:
    def records(self):
        return [tiny_record(i, source_ids=(2 + (i % 2), i % 2)) for i in range(4)]

    def test_loss_decreases(self):
        recs = self.records()
        cfg = ModelConfig(
            n_blstm_layers=1, hidden_total=4, embed_dim=3, n_freq=5,
            n_table_rows=4, batch_size=2, epochs=30, lr=1e-2,
        )
        state = train(recs, [], cfg, seed=0)
        first, last = state.log_rows[0], state.log_rows[-1]
        assert last[1] < first[1]  # contrastive loss fell
        assert last[2] < first[2]  # mask loss fell

    def test_deterministic(self):
        recs = self.records()
        cfg = ModelConfig(
            n_blstm_layers=1, hidden_total=4, embed_dim=3, n_freq=5,
            n_table_rows=4, batch_size=2, epochs=3,
        )
        a = train(recs, recs[:1], cfg, seed=7)
        b = train(recs, recs[:1], cfg, seed=7)
        for k, v in a.model.named_values().items():
            np.testing.assert_array_equal(v, b.model.named_values()[k])
        assert a.log_rows == b.log_rows

    def test_matches_reduction_oracle_ops(self, monkeypatch):
        # Two Adam steps with the fast tape ops, int8 labels and the in-place
        # Adam step, and with the reduction-based, always-copying ops, a
        # separate matmul and bias add, float64 labels and an Adam step of
        # fresh arrays, end in the same parameters and moments, bit for bit.
        recs = self.records()
        cfg = ModelConfig(
            n_blstm_layers=2, hidden_total=4, embed_dim=3, n_freq=5,
            n_table_rows=4, batch_size=2, epochs=1,
        )
        fast = train(recs, [], cfg, seed=3)
        for name, oracle in [("softmax", softmax_reduce_oracle), ("log_sigmoid", log_sigmoid_two_pass_oracle),
                             ("_unbroadcast", unbroadcast_sum_oracle), ("affine", affine_add_matmul_oracle)]:
            monkeypatch.setattr(nn, name, oracle)
        monkeypatch.setattr(nn.Tensor, "_accum", accum_copy_oracle)
        monkeypatch.setattr(nn.Adam, "step", adam_step_oracle)
        float_recs = [dataclasses.replace(r, labels=r.labels.astype(np.float64)) for r in recs]
        ref = train(float_recs, [], cfg, seed=3)
        assert fast.optimizer.step_count == ref.optimizer.step_count == 2
        for p, q in zip(fast.model.parameters(), ref.model.parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=p.name)
        for moments, ref_moments in [(fast.optimizer.m, ref.optimizer.m), (fast.optimizer.v, ref.optimizer.v)]:
            for p, m, r in zip(fast.model.parameters(), moments, ref_moments):
                np.testing.assert_array_equal(m, r, err_msg=p.name)
        assert fast.log_rows == ref.log_rows

    def test_tape_nodes_per_step(self):
        # Per BLSTM layer one node and its two parameters; affine heads are
        # one node each. The benchmark's train workload reads 42 at 2 layers.
        cfg = ModelConfig(n_blstm_layers=2, hidden_total=4, embed_dim=3, n_freq=5, n_table_rows=4)
        model = SeparationModel(cfg, rng_for(4, "init"))
        l_sce, l_mi = _losses(model, batch_from_records(self.records()[:2]))
        total = nn.add(nn.mul(l_sce, 0.1), nn.mul(l_mi, 0.8))
        seen, stack = set(), [total]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) == 42

    @staticmethod
    def first_parents(node):
        """node, its first parent, that parent's first parent, ..."""
        chain = [node]
        while chain[-1]._parents:
            chain.append(chain[-1]._parents[0])
        return chain

    def test_backward_frees_only_the_arrays_no_backward_reads(self):
        cfg = ModelConfig(n_blstm_layers=2, hidden_total=4, embed_dim=3, n_freq=5, n_table_rows=4)
        model = SeparationModel(cfg, rng_for(4, "init"))
        l_sce, l_mi = _losses(model, batch_from_records(self.records()[:2]))
        total = nn.add(nn.mul(l_sce, 0.1), nn.mul(l_mi, 0.8))
        sce, mi = self.first_parents(l_sce), self.first_parents(l_mi)
        # sce: scale, tsum, log_sigmoid, mul by labels, matmul, reshape x2, embedding affine
        # mi: scale, tsum, mul, sub, mul by x_mag, reshape, softmax, MI-head affine
        unread = [sce[4], sce[2], mi[7], mi[4], mi[2]]
        read = [sce[7], sce[3], mi[6], mi[3]]  # the embedding field, d * y, the mask, the residual
        op = lambda node: node._backward_fn.__qualname__.split(".")[0]  # noqa: E731
        assert [op(n) for n in unread] == ["matmul", "log_sigmoid", "affine", "mul", "mul"]
        assert [op(n) for n in read] == ["affine", "mul", "softmax", "sub"]
        assert all(n.data.base is None for n in unread + read)  # each owns its memory
        refs = [weakref.ref(n.data) for n in unread + read]
        shapes = [n.shape for n in unread + read]
        total.backward()
        assert [r() is None for r in refs] == [True] * len(unread) + [False] * len(read)
        assert [n.shape for n in unread + read] == shapes
        assert np.isfinite(total.data)
        del total, l_sce, l_mi, sce, mi, unread, read
        assert all(r() is None for r in refs)

    def test_gradients_match_oracle_ops(self, monkeypatch):
        # One backward through the fast ops (dropping the tape as it walks)
        # and through the reduction-based, always-copying ones gives every
        # parameter the same gradient, bit for bit.
        cfg = ModelConfig(n_blstm_layers=2, hidden_total=4, embed_dim=3, n_freq=5, n_table_rows=4)
        records = self.records()[:2]

        def grads(batch):
            model = SeparationModel(cfg, rng_for(5, "init"))
            for p in model.parameters():
                p.zero_grad()
            l_sce, l_mi = _losses(model, batch)
            nn.add(nn.mul(l_sce, 0.1), nn.mul(l_mi, 0.8)).backward()
            return [p.grad for p in model.parameters()]

        fast = grads(batch_from_records(records))
        for name, oracle in [("softmax", softmax_reduce_oracle), ("log_sigmoid", log_sigmoid_two_pass_oracle),
                             ("_unbroadcast", unbroadcast_sum_oracle), ("affine", affine_add_matmul_oracle)]:
            monkeypatch.setattr(nn, name, oracle)
        monkeypatch.setattr(nn.Tensor, "_accum", accum_copy_oracle)
        float_batch = batch_from_records([dataclasses.replace(r, labels=r.labels.astype(np.float64))
                                          for r in records])
        for p, g, ref in zip(SeparationModel(cfg).parameters(), fast, grads(float_batch), strict=True):
            assert np.any(g), p.name
            np.testing.assert_array_equal(g, ref, err_msg=p.name)

    def test_resume_matches_straight_run(self):
        recs = self.records()
        cfg = ModelConfig(
            n_blstm_layers=1, hidden_total=4, embed_dim=3, n_freq=5,
            n_table_rows=4, batch_size=2, epochs=6,
        )
        straight = train(recs, recs[:1], cfg, seed=9)
        halfway = train(recs, recs[:1], cfg, seed=9, epochs=3)
        resumed = train(recs, recs[:1], cfg, seed=9, state=halfway)
        for k, v in straight.model.named_values().items():
            np.testing.assert_array_equal(v, resumed.model.named_values()[k])
        assert straight.log_rows == resumed.log_rows

    def test_best_snapshot_tracks_val_mask_loss(self):
        recs = self.records()
        cfg = ModelConfig(
            n_blstm_layers=1, hidden_total=4, embed_dim=3, n_freq=5,
            n_table_rows=4, batch_size=2, epochs=5,
        )
        state = train(recs, recs[:2], cfg, seed=3)
        vals = [row[4] for row in state.log_rows]
        assert state.best_epoch == int(np.argmin(vals))
        assert state.best_values  # snapshot captured

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train([], [], TINY, seed=0)

    def test_non_finite_loss_raises_before_step(self):
        recs = self.records()
        cfg = ModelConfig(
            n_blstm_layers=1, hidden_total=4, embed_dim=3, n_freq=5,
            n_table_rows=4, batch_size=2, epochs=2,
        )
        model = SeparationModel(cfg, rng_for(0, "model-init"))
        state = TrainState(model, nn.Adam(model.parameters(), lr=cfg.lr))
        model.embed_w.data[0, 0] = np.nan
        before = {k: v.copy() for k, v in model.named_values().items()}
        with pytest.raises(NonFiniteLoss, match="nan"):
            train(recs, [], cfg, seed=0, state=state)
        assert state.optimizer.step_count == 0
        assert all(not np.any(p.grad) for p in model.parameters())  # zeroed, no backward
        for k, v in model.named_values().items():
            np.testing.assert_array_equal(v, before[k])

    def test_nan_learning_rate_raises(self):
        # A NaN step poisons every weight; the next batch loss is NaN.
        cfg = ModelConfig(
            n_blstm_layers=1, hidden_total=4, embed_dim=3, n_freq=5,
            n_table_rows=4, batch_size=2, epochs=2, lr=float("nan"),
        )
        with pytest.raises(NonFiniteLoss, match="after 1 optimizer steps"):
            train(self.records(), [], cfg, seed=0)

    def test_evaluate_losses_matches_loss_fn(self):
        recs = self.records()
        model = SeparationModel(TINY, rng_for(11, "init"))
        sce_a, mi_a = evaluate_losses(model, recs, batch_size=2)
        sce_b, mi_b = evaluate_losses(model, recs, batch_size=4)
        assert sce_a == pytest.approx(sce_b, rel=1e-12)
        assert mi_a == pytest.approx(mi_b, rel=1e-12)

    def test_evaluate_losses_records_no_tape(self, monkeypatch):
        # Validation runs on parameters that need no gradient: the losses are
        # the bits of the taped forward, and no loss has parents, so no node
        # below it kept any.
        recs = self.records()
        model = SeparationModel(TINY, rng_for(12, "init"))
        taped = [_losses(model, batch_from_records(recs[lo : lo + 2])) for lo in (0, 2)]
        assert all(t.requires_grad and t._parents for pair in taped for t in pair)
        want_sce = sum(float(s.data) * 2 for s, _ in taped) / 4
        want_mi = sum(float(m.data) * 2 for _, m in taped) / 4
        seen = []

        def recording(*args):
            seen.extend(out := _losses(*args))
            return out

        monkeypatch.setattr("scesep.model._losses", recording)
        sce, mi = evaluate_losses(model, recs, batch_size=2)
        assert (sce, mi) == (want_sce, want_mi)
        assert len(seen) == 4
        assert not any(t.requires_grad or t._parents for t in seen)
        assert all(p.requires_grad for p in model.parameters())

    def test_evaluate_losses_restores_gradients_after_a_raise(self, monkeypatch):
        model = SeparationModel(TINY, rng_for(13, "init"))

        def failing(model, batch):
            assert not any(p.requires_grad for p in model.parameters())
            raise ShapeMismatch("bad batch")

        monkeypatch.setattr("scesep.model._losses", failing)
        with pytest.raises(ShapeMismatch, match="bad batch"):
            evaluate_losses(model, self.records(), batch_size=2)
        assert all(p.requires_grad for p in model.parameters())


def test_write_log_format(tmp_path):
    path = tmp_path / "log.csv"
    write_log(path, [(0, 1.0, 2.0, 3.0, 4.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == LOG_HEADER
    assert lines[1].split(",")[0] == "0"
