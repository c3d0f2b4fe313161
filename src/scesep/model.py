"""Source-contrastive embedding network with a mask-inference head.

The network maps compressed mixture magnitudes (B, T, F) through a BLSTM
stack and a per-timestep linear embedding layer to an embedding field
(B, T, F, E). Training contrasts those per-bin embeddings against a
trainable per-source table; a softmax head over the embedding dimension
yields a ratio mask. Inference never touches the source table.
"""

import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import nn
from .container import MAGIC_MODEL, read_container, require, write_container
from .errors import CorruptCheckpoint, EmptyCorpus, NonFiniteLoss, ShapeMismatch, UnknownSource
from .seeding import rng_for


@dataclass(frozen=True)
class ModelConfig:
    n_blstm_layers: int = 2
    hidden_total: int = 32  # concatenated width of both directions
    embed_dim: int = 8
    n_freq: int = 257
    n_mix_sources = 2  # M: a class constant, not a field; every corpus row mixes two
    n_table_rows: int = 16  # C
    batch_size: int = 4
    sce_weight: float = 0.2  # weight on the contrastive term; 1-w on the mask term
    epochs: int = 100
    lr: float = 1e-2
    grad_clip: float = 5.0

    def __post_init__(self):
        lows = {"n_blstm_layers": 1, "hidden_total": 2, "embed_dim": 1, "batch_size": 1, "epochs": 0}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("lr", "grad_clip"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.hidden_total % 2 != 0:
            raise ValueError("hidden_total must be even (two directions)")
        if not 0.0 <= self.sce_weight <= 1.0:
            raise ValueError("sce_weight must be in [0, 1]")


class SeparationModel:
    """Parameters of the BLSTM stack, embedding layer, MI head, and table."""

    def __init__(self, config: ModelConfig, rng=None):
        self.config = config
        h = config.hidden_total // 2
        if rng is None:
            rng = np.random.default_rng(0)
        self.layers = []  # one (w, b) pair per BLSTM layer
        d_in = config.n_freq
        for i in range(config.n_blstm_layers):
            self.layers.append(nn.init_blstm_params(d_in, h, rng, f"blstm{i}"))
            d_in = config.hidden_total
        k = config.n_freq * config.embed_dim
        bound = 1.0 / math.sqrt(config.hidden_total)
        self.embed_w = nn.Parameter(rng.uniform(-bound, bound, (config.hidden_total, k)), "embed.w")
        self.embed_b = nn.Parameter(np.zeros(k), "embed.b")
        mb = 1.0 / math.sqrt(config.embed_dim)
        self.mi_w = nn.Parameter(rng.uniform(-mb, mb, (config.embed_dim, config.n_mix_sources)), "mi.w")
        self.mi_b = nn.Parameter(np.zeros(config.n_mix_sources), "mi.b")
        rows = rng.standard_normal((config.n_table_rows, config.embed_dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        self.table = nn.Parameter(rows, "table")

    def parameters(self):
        return [p for layer in self.layers for p in layer] + [
            self.embed_w, self.embed_b, self.mi_w, self.mi_b, self.table
        ]

    def named_values(self):
        return {p.name: p.data for p in self.parameters()}

    def load_values(self, values):
        for p in self.parameters():
            if p.name not in values:
                raise ShapeMismatch(f"missing tensor {p.name!r} in checkpoint")
            if values[p.name].shape != p.data.shape:
                raise ShapeMismatch(
                    f"{p.name}: expected {p.data.shape}, got {values[p.name].shape}"
                )
            p.data = values[p.name]

    def forward_embeddings(self, x: np.ndarray) -> nn.Tensor:
        """Compressed magnitudes (B, T, F) -> embedding field (B, T, F, E)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.config.n_freq:
            raise ShapeMismatch(f"expected (B, T, {self.config.n_freq}), got {x.shape}")
        out = nn.Tensor(x)
        for w, b in self.layers:
            out = nn.blstm_layer(out, w, b)
        B, T = x.shape[0], x.shape[1]
        out = nn.affine(nn.reshape(out, (B * T, self.config.hidden_total)), self.embed_w, self.embed_b)
        return nn.reshape(out, (B, T, self.config.n_freq, self.config.embed_dim))

    def mi_masks(self, v_i) -> nn.Tensor:
        """Ratio mask (B, T, F, M) of a Tensor or array field: per-bin affine
        over E, softmax over M."""
        B, T, F, E = v_i.shape
        flat = nn.reshape(v_i, (B * T * F, E))
        logits = nn.affine(flat, self.mi_w, self.mi_b)
        return nn.reshape(nn.softmax(logits, axis=-1), (B, T, F, self.config.n_mix_sources))


def gather_source_vectors(model: SeparationModel, source_ids) -> nn.Tensor:
    """Rows of the source table for a (B, M) id array -> (B, M, E)."""
    ids = np.asarray(source_ids)
    if ids.min() < 0 or ids.max() >= model.config.n_table_rows:
        raise UnknownSource(f"source ids out of range [0, {model.config.n_table_rows})")
    return nn.gather_rows(model.table, ids)


def sce_loss(v_i: nn.Tensor, v_o: nn.Tensor, y: np.ndarray) -> nn.Tensor:
    """Contrastive loss over dominance labels.

    Per bin: -(1/M) * sum_m log sigmoid(y * <v_i, v_o[m]>); total is the
    batch mean of the per-sample sums over (t, f).
    """
    B, T, F, E = v_i.shape
    M = v_o.shape[1]
    if y.shape != (B, T, F, M):
        raise ShapeMismatch(f"labels {y.shape} != {(B, T, F, M)}")
    # Scores and labels stay (B, T*F, M): tsum adds a contiguous array as
    # flat data, so the shape it sees does not change the sum.
    d = nn.matmul(nn.reshape(v_i, (B, T * F, E)), nn.swap_last(v_o))
    return nn.mul(nn.tsum(nn.log_sigmoid(nn.mul(d, y.reshape(B, T * F, M)))), -1.0 / (B * M))


def mi_loss(mask: nn.Tensor, x_mag: np.ndarray, true_source_mags: np.ndarray) -> nn.Tensor:
    """Mean squared error between masked mixture and true source magnitudes."""
    B, T, F, M = mask.shape
    if x_mag.shape != (B, T, F) or true_source_mags.shape != (B, T, F, M):
        raise ShapeMismatch("mi_loss shapes inconsistent with mask")
    est = nn.mul(mask, x_mag[..., None])
    diff = nn.sub(est, true_source_mags)
    return nn.tmean(nn.mul(diff, diff))


# --- training --------------------------------------------------------------


@dataclass
class Batch:
    x_mag: np.ndarray  # (B, T, F) compressed mixture magnitudes
    labels: np.ndarray  # (B, T, F, M) int8 in {-1, +1}
    source_ids: np.ndarray  # (B, M)
    true_mags: np.ndarray  # (B, T, F, M) compressed per-source magnitudes


def batch_from_records(records) -> Batch:
    from .dsp import compress

    xs, ys, ids, trues = [], [], [], []
    for rec in records:
        feat = compress(rec.mixture_spec)
        xs.append(feat.mag)
        ys.append(rec.labels)
        ids.append(rec.source_ids)
        trues.append(np.stack([np.sqrt(m) / feat.norm_scale for m in rec.source_mags], axis=-1))
    return Batch(np.stack(xs), np.stack(ys), np.asarray(ids), np.stack(trues))


def _losses(model, batch):
    v_i = model.forward_embeddings(batch.x_mag)
    v_o = gather_source_vectors(model, batch.source_ids)
    l_sce = sce_loss(v_i, v_o, batch.labels)
    mask = model.mi_masks(v_i)
    l_mi = mi_loss(mask, batch.x_mag, batch.true_mags)
    return l_sce, l_mi


def _bins_per_clip(records):
    t, f, _ = records[0].labels.shape
    return t * f


def evaluate_losses(model, records, batch_size):
    """(mean sce, mean mi) over records, without touching gradients. The
    parameters need no gradient while it runs, so no op records a tape, and
    their flags are restored afterwards, also when a batch raises; the losses
    are the same bits either way."""
    params = model.parameters()
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        sce_sum = mi_sum = 0.0
        for lo in range(0, len(records), batch_size):
            chunk = records[lo : lo + batch_size]
            l_sce, l_mi = _losses(model, batch_from_records(chunk))
            sce_sum += float(l_sce.data) * len(chunk)
            mi_sum += float(l_mi.data) * len(chunk)
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
    return sce_sum / len(records), mi_sum / len(records)


@dataclass
class TrainState:
    """Everything needed to continue or reuse a training run."""

    model: SeparationModel
    optimizer: nn.Adam
    epoch: int = 0
    best_val: float = math.inf
    best_epoch: int = -1
    best_values: dict = field(default_factory=dict)
    log_rows: list = field(default_factory=list)


def train(
    train_records,
    val_records,
    config: ModelConfig,
    seed: int,
    state: TrainState = None,
    epochs: int = None,
) -> TrainState:
    """Train SCE+MI with Adam; deterministic under seed.

    Shuffling and initialization are drawn from named streams of the seed,
    keyed by epoch, so resuming from a checkpoint replays the identical
    continuation. The best-validation parameter snapshot is retained. A NaN
    or infinite batch loss raises NonFiniteLoss before backward or the
    optimizer step.
    """
    if not train_records:
        raise EmptyCorpus("no training records")
    if state is None:
        model = SeparationModel(config, rng_for(seed, "model-init"))
        state = TrainState(model, nn.Adam(model.parameters(), lr=config.lr))
    model, opt = state.model, state.optimizer
    params = model.parameters()
    alpha = config.sce_weight
    # The contrastive loss sums over T*F bins while the mask loss is a per-bin
    # mean; put both on a per-bin scale so neither swamps the other.
    n_bins = _bins_per_clip(train_records)
    end_epoch = config.epochs if epochs is None else epochs
    for epoch in range(state.epoch, end_epoch):
        order = rng_for(seed, f"shuffle-{epoch}").permutation(len(train_records))
        sce_sum = mi_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = batch_from_records([train_records[i] for i in order[lo : lo + config.batch_size]])
            opt.zero_grad()
            # Diverged weights overflow on the way to a non-finite loss; the
            # check below reports that, so numpy need not warn about it too.
            with np.errstate(over="ignore", invalid="ignore"):
                l_sce, l_mi = _losses(model, batch)
                total = nn.add(nn.mul(l_sce, alpha / n_bins), nn.mul(l_mi, 1.0 - alpha))
            loss = float(total.data)
            if not math.isfinite(loss):
                raise NonFiniteLoss(
                    f"training loss is {loss} at epoch {epoch}, after {opt.step_count} optimizer steps"
                )
            sce_sum += float(l_sce.data) * len(batch.x_mag)
            mi_sum += float(l_mi.data) * len(batch.x_mag)
            total.backward()  # drops l_sce's and l_mi's data with the rest of the tape's
            nn.clip_global_norm(params, config.grad_clip)
            opt.step()
        train_sce = sce_sum / len(train_records)
        train_mi = mi_sum / len(train_records)
        if val_records:
            val_sce, val_mi = evaluate_losses(model, val_records, config.batch_size)
        else:
            val_sce, val_mi = train_sce, train_mi
        # Select on the mask loss alone: held-out clips use source-table rows
        # that receive no training gradient, so their contrastive loss says
        # nothing about embedding quality.
        val_total = val_mi
        if val_total < state.best_val:
            state.best_val = val_total
            state.best_epoch = epoch
            state.best_values = {k: v.copy() for k, v in model.named_values().items()}
        state.log_rows.append((epoch, train_sce, train_mi, val_sce, val_mi))
        state.epoch = epoch + 1
    return state


LOG_HEADER = "epoch,train_sce,train_mi,val_sce,val_mi"


def write_log(path, log_rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(LOG_HEADER + "\n")
        for epoch, a, b, c, d in log_rows:
            f.write(f"{epoch},{a!r},{b!r},{c!r},{d!r}\n")


# --- checkpointing ----------------------------------------------------------


def save_checkpoint(path, state: TrainState, seed: int) -> None:
    cfg = state.model.config
    meta = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    meta.update(
        epoch=state.epoch,
        step=state.optimizer.step_count,
        best_val=repr(state.best_val),
        best_epoch=state.best_epoch,
        seed=seed,
    )
    tensors = {}
    for name, value in state.model.named_values().items():
        tensors[f"param/{name}"] = value
    for name, value in (state.best_values or state.model.named_values()).items():
        tensors[f"best/{name}"] = value
    for p, m, v in zip(state.optimizer.params, state.optimizer.m, state.optimizer.v):
        tensors[f"adam/m/{p.name}"] = m
        tensors[f"adam/v/{p.name}"] = v
    write_container(path, MAGIC_MODEL, meta, tensors)


def load_checkpoint(path):
    """Return a TrainState rebuilt from a checkpoint, plus its meta dict."""
    meta, tensors = read_container(path, MAGIC_MODEL)
    need = partial(require, path)
    try:
        config = ModelConfig(**{f.name: need(meta, f.name, f.type) for f in fields(ModelConfig)})
    except ValueError as e:  # a parsed value out of ModelConfig's range
        raise CorruptCheckpoint(f"{path}: checkpoint config rejected: {e}") from None
    meta["seed"] = need(meta, "seed", int)
    model = SeparationModel(config)
    # Each group holds one tensor per parameter, at its shape (no other name is
    # read); a NaN or inf weight or Adam moment would poison every later output.
    groups = {prefix: {} for prefix in ("param/", "best/", "adam/m/", "adam/v/")}
    for prefix, values in groups.items():
        for p in model.parameters():
            key = prefix + p.name
            values[p.name] = value = need(tensors, key)
            if value.shape != p.data.shape:
                raise CorruptCheckpoint(f"{path}: checkpoint tensor {key!r} has shape {value.shape}, "
                                        f"expected {p.data.shape}")
            if not np.all(np.isfinite(value)):
                raise CorruptCheckpoint(f"{path}: checkpoint tensor {key!r} holds non-finite values")
    model.load_values(groups["param/"])
    opt = nn.Adam(model.parameters(), config.lr)
    opt.step_count = need(meta, "step", int)
    opt.m, opt.v = list(groups["adam/m/"].values()), list(groups["adam/v/"].values())
    state = TrainState(
        model,
        opt,
        epoch=need(meta, "epoch", int),
        best_val=need(meta, "best_val", float),
        best_epoch=need(meta, "best_epoch", int),
        best_values=groups["best/"],
    )
    return state, meta


def load_inference_model(path) -> SeparationModel:
    """Model with the best-validation parameters from a checkpoint. Its
    parameters need no gradient, so a forward pass records no tape: each op
    keeps only its output, and the BLSTM keeps no backward cache."""
    state, _ = load_checkpoint(path)
    state.model.load_values(state.best_values)
    for p in state.model.parameters():
        p.requires_grad = False
    return state.model
