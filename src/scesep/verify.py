"""Finite-difference verification of every differentiable component, in six
checks: affine with log-sigmoid, the softmax head, one BLSTM layer, each
loss through the model, and their weighted sum."""

import numpy as np

from . import nn
from .model import (
    ModelConfig,
    SeparationModel,
    gather_source_vectors,
    mi_loss,
    sce_loss,
)
from .seeding import rng_for

# (name, tolerance) pairs; recurrent paths get the looser bound.
TOL_NONRECURRENT = 1e-6
TOL_RECURRENT = 1e-4


def _check_affine(seed):
    rng = rng_for(seed, "gc-affine")
    x = nn.Parameter(rng.standard_normal((6, 4)), "x")
    w = nn.Parameter(rng.standard_normal((4, 5)), "w")
    b = nn.Parameter(rng.standard_normal(5), "b")
    return nn.finite_difference_check(
        lambda: nn.tsum(nn.log_sigmoid(nn.affine(x, w, b))), [x, w, b]
    )


def _check_blstm(seed):
    rng = rng_for(seed, "gc-blstm")
    x = nn.Tensor(rng.standard_normal((2, 3, 4)))
    w, b = nn.init_blstm_params(4, 3, rng, "blstm")
    return nn.finite_difference_check(
        lambda: nn.tsum(nn.mul(nn.blstm_layer(x, w, b), rng_weights(seed, (2, 3, 6)))), [w, b]
    )


def rng_weights(seed, shape):
    return rng_for(seed, f"gc-weights-{shape}").standard_normal(shape)


def _check_softmax_head(seed):
    rng = rng_for(seed, "gc-softmax")
    x = nn.Tensor(rng.standard_normal((6, 3)))
    w = nn.Parameter(rng.standard_normal((3, 2)), "w")
    target = rng.standard_normal((6, 2))
    return nn.finite_difference_check(
        lambda: nn.tsum(nn.mul(nn.softmax(nn.matmul(x, w)), target)), [w]
    )


M = ModelConfig.n_mix_sources  # sources per clip in the model checks
IDS = np.array([[0, 1], [2, 3]])  # source-table rows of their two clips


def _tiny_model(seed, stream, n_blstm_layers=1, T=3, F=4):
    """(model, x, rng) for two clips of T frames and F bins: the model, then
    the input, drawn from one named stream; targets follow from rng."""
    rng = rng_for(seed, stream)
    cfg = ModelConfig(
        n_blstm_layers=n_blstm_layers, hidden_total=4, embed_dim=3, n_freq=F, n_table_rows=4,
    )
    model = SeparationModel(cfg, rng)
    return model, rng.uniform(0, 1, (2, T, F)), rng


def _labels(rng, x):
    return np.where(rng.standard_normal(x.shape + (M,)) > 0, 1.0, -1.0)


def _check_sce_loss(seed):
    model, x, rng = _tiny_model(seed, "gc-sce")
    y = _labels(rng, x)

    def loss_fn():
        return sce_loss(model.forward_embeddings(x), gather_source_vectors(model, IDS), y)

    return nn.finite_difference_check(loss_fn, model.parameters())


def _check_mi_loss(seed):
    model, x, rng = _tiny_model(seed, "gc-mi")
    true = rng.uniform(0, 1, x.shape + (M,))

    def loss_fn():
        return mi_loss(model.mi_masks(model.forward_embeddings(x)), x, true)

    return nn.finite_difference_check(loss_fn, model.parameters())


def _check_full_model(seed):
    model, x, rng = _tiny_model(seed, "gc-full", n_blstm_layers=2, T=4, F=5)
    y = _labels(rng, x)
    true = rng.uniform(0, 1, x.shape + (M,))

    def loss_fn():
        v_i = model.forward_embeddings(x)
        l_sce = sce_loss(v_i, gather_source_vectors(model, IDS), y)
        l_mi = mi_loss(model.mi_masks(v_i), x, true)
        return nn.add(nn.mul(l_sce, 0.5), nn.mul(l_mi, 0.5))

    return nn.finite_difference_check(loss_fn, model.parameters())


CHECKS = [
    ("affine", _check_affine, TOL_NONRECURRENT),
    ("softmax_head", _check_softmax_head, TOL_NONRECURRENT),
    ("blstm_layer", _check_blstm, TOL_RECURRENT),
    ("sce_loss_full_path", _check_sce_loss, TOL_RECURRENT),
    ("mi_loss_full_path", _check_mi_loss, TOL_RECURRENT),
    ("full_model_dual_objective", _check_full_model, TOL_RECURRENT),
]


def run_gradient_checks(seed: int = 0):
    """Run every check; returns a list of (name, max_rel_error, tol, ok)."""
    results = []
    for name, fn, tol in CHECKS:
        err = fn(seed)
        results.append((name, err, tol, err < tol))
    return results
