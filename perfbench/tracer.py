"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps scesep's public functions from outside the package. Callers
bind most names at import time (``from .dsp import istft`` in ``inference``,
``from .inference import denoise`` in ``cli``), so a function is replaced in
every ``scesep.*`` module namespace that holds it, and a method is replaced on
its class. ``uninstall`` puts every original back.

A span is ``[name, start_ns, end_ns, parent_index, op, info]``: ``op`` is the
benchmark operation that was running (set by the harness) and ``info`` is a
small dict of counts read from the call's arguments or result.
"""

import functools
import importlib
import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

NAME, START, END, PARENT, OP, INFO = range(6)


def _tape_nodes(args, kwargs):
    # Walk the whole recorded graph from the loss before backward runs.
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return {"tape_nodes": len(seen)}


def _clip_info(args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm", 5.0)
    return {"clipped": float(result > max_norm)}


def _kmeans_info(args, kwargs, result):
    return {"points": len(args[0]), "iters": len(result.inertia_history)}


def _denoise_info(args, kwargs, result):
    return {"low_energy": result.low_energy_fraction}


def _fit_info(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    iters = len(result[1]) - 1
    return {"iters": iters, "at_cap": float(iters >= cfg.max_iters)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, info hook run after the call, hook run before)
TARGETS = [
    ("scesep.nn", "blstm_layer", "nn.blstm_layer", None, None),
    ("scesep.nn", "Tensor.backward", "nn.backward", None, _tape_nodes),
    ("scesep.nn", "Adam.step", "nn.adam_step", None, None),
    ("scesep.nn", "clip_global_norm", "nn.clip_global_norm", _clip_info, None),
    ("scesep.model", "SeparationModel.forward_embeddings", "model.forward_embeddings", None, None),
    ("scesep.model", "SeparationModel.mi_masks", "model.mi_masks", None, None),
    ("scesep.model", "sce_loss", "model.sce_loss", None, None),
    ("scesep.model", "mi_loss", "model.mi_loss", None, None),
    ("scesep.model", "batch_from_records", "model.batch_from_records", None, None),
    ("scesep.model", "evaluate_losses", "model.evaluate_losses", None, None),
    ("scesep.inference", "denoise", "inference.denoise", _denoise_info, None),
    ("scesep.inference", "kmeans", "inference.kmeans", _kmeans_info, None),
    ("scesep.inference", "reconstruct_binary", "inference.reconstruct", None, None),
    ("scesep.inference", "reconstruct_ratio", "inference.reconstruct", None, None),
    ("scesep.dsp", "stft", "dsp.stft", None, None),
    ("scesep.dsp", "istft", "dsp.istft", None, None),
    ("scesep.dsp", "compress", "dsp.compress", None, None),
    ("scesep.snmf", "fit_dictionary", "snmf.fit_dictionary", _fit_info, None),
    ("scesep.snmf", "separate", "snmf.separate", None, None),
    ("scesep.snmf", "trim_silence", "snmf.trim_silence", None, None),
    ("scesep.metrics", "best_permutation", "metrics.best_permutation", None, None),
    ("scesep.metrics", "sdr", "metrics.sdr", None, None),
    ("scesep.mixtures", "read_manifest", "mixtures.read_manifest", None, None),
    ("scesep.mixtures", "build_corpus", "mixtures.build_corpus", None, None),
    ("scesep.mixtures", "mix_at_snr", "mixtures.mix_at_snr", None, None),
    ("scesep.mixtures", "synth_speechlike", "mixtures.synth", None, None),
    ("scesep.mixtures", "synth_noise", "mixtures.synth", None, None),
    ("scesep.container", "read_container", "container.read", _file_bytes, None),
    ("scesep.container", "write_container", "container.write", _file_bytes, None),
    ("scesep.cli", "cmd_mix", "cli.mix", None, None),
    ("scesep.cli", "cmd_train", "cli.train", None, None),
    ("scesep.cli", "cmd_eval", "cli.eval", None, None),
]
SPAN_NAMES = sorted({t[2] for t in TARGETS})


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, after, before):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else None
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, info]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if after:
                span[INFO] = after(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever scesep code looks it up."""
        importlib.import_module("scesep.cli")  # imports every traced module
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "scesep"]
        for mod_name, attr, name, after, before in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, after, before))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, name, after, before)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def self_times(spans):
    """Per-span self time in ns, and the number of spans whose children
    cover more time than the span itself (must be zero)."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    own = [s[END] - s[START] - c for s, c in zip(spans, child)]
    return own, sum(1 for t in own if t < 0)


def calls_per_op(spans, ops):
    """Counter of span names for each measured op id."""
    counts = {op_id: Counter() for op_id in ops}
    for s in spans:
        if s[OP] in counts:
            counts[s[OP]][s[NAME]] += 1
    return counts


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return float(np.mean(values)) if values else 0.0


# metric -> (span names, statistic, info key). Statistics: "ms"/"s" median
# self time per call, "calls" mean calls per measured op, "mean" mean of an
# info value over calls.
LAYER_METRICS = {
    "nn.blstm_layer_ms": ("nn.blstm_layer", "ms", None),
    "nn.blstm_layer_calls": ("nn.blstm_layer", "calls", None),
    "nn.backward_ms": ("nn.backward", "ms", None),
    "nn.tape_nodes_per_step": ("nn.backward", "mean", "tape_nodes"),
    "nn.adam_step_ms": ("nn.adam_step", "ms", None),
    "nn.clip_global_norm_ms": ("nn.clip_global_norm", "ms", None),
    "nn.clip_rate": ("nn.clip_global_norm", "mean", "clipped"),
    "model.forward_embeddings_ms": ("model.forward_embeddings", "ms", None),
    "model.sce_loss_ms": ("model.sce_loss", "ms", None),
    "model.mi_masks_ms": ("model.mi_masks", "ms", None),
    "model.mi_loss_ms": ("model.mi_loss", "ms", None),
    "model.batch_from_records_ms": ("model.batch_from_records", "ms", None),
    "model.evaluate_losses_ms": ("model.evaluate_losses", "ms", None),
    "inference.denoise_ms": ("inference.denoise", "ms", None),
    "inference.kmeans_ms": ("inference.kmeans", "ms", None),
    "inference.kmeans_points": ("inference.kmeans", "mean", "points"),
    "inference.kmeans_iters": ("inference.kmeans", "mean", "iters"),
    "inference.low_energy_frac": ("inference.denoise", "mean", "low_energy"),
    "inference.reconstruct_ms": ("inference.reconstruct", "ms", None),
    "dsp.stft_ms": ("dsp.stft", "ms", None),
    "dsp.stft_calls": ("dsp.stft", "calls", None),
    "dsp.istft_ms": ("dsp.istft", "ms", None),
    "dsp.istft_calls": ("dsp.istft", "calls", None),
    "dsp.compress_ms": ("dsp.compress", "ms", None),
    "dsp.compress_calls": ("dsp.compress", "calls", None),
    "snmf.fit_dictionary_s": ("snmf.fit_dictionary", "s", None),
    "snmf.fit_iters": ("snmf.fit_dictionary", "mean", "iters"),
    "snmf.fit_iters_at_cap_frac": ("snmf.fit_dictionary", "mean", "at_cap"),
    "snmf.separate_ms": ("snmf.separate", "ms", None),
    "snmf.trim_silence_ms": ("snmf.trim_silence", "ms", None),
    "metrics.best_permutation_ms": ("metrics.best_permutation", "ms", None),
    "metrics.sdr_calls": ("metrics.sdr", "calls", None),
    "mixtures.read_manifest_s": ("mixtures.read_manifest", "s", None),
    "mixtures.build_corpus_s": ("mixtures.build_corpus", "s", None),
    "mixtures.mix_at_snr_ms": ("mixtures.mix_at_snr", "ms", None),
    "mixtures.synth_ms": ("mixtures.synth", "ms", None),
    "container.read_ms": ("container.read", "ms", None),
    "container.write_ms": ("container.write", "ms", None),
    "container.bytes": (("container.read", "container.write"), "mean", "bytes"),
    "cli.mix_ms": ("cli.mix", "ms", None),
    "cli.train_ms": ("cli.train", "ms", None),
    "cli.eval_ms": ("cli.eval", "ms", None),
}
# Layers whose work a workload may do only while setting up (building the
# corpus, writing the manifest or the fixture checkpoint).
SETUP_LAYERS = ("dsp", "mixtures", "container", "cli")
INFO_UNITS = {
    "tape_nodes": "count", "clipped": "ratio", "points": "count", "iters": "count",
    "low_energy": "ratio", "at_cap": "ratio", "bytes": "B",
}


def layer_metrics(spans, measured_ops, setup_op):
    """Per-layer metrics from a traced run.

    Metrics read the spans of the measured ops. A metric of a layer in
    ``SETUP_LAYERS`` that has no measured spans reads the set-up spans
    instead, so set-up work is still attributed to its layer; the other
    layers never do, so fixture training stays out of inference numbers.
    """
    own, _ = self_times(spans)
    measured = set(measured_ops)
    rows_by = {}
    for s, t in zip(spans, own):
        phase = "measured" if s[OP] in measured else "setup" if s[OP] == setup_op else None
        if phase:
            rows_by.setdefault((s[NAME], phase), []).append((t, s[INFO]))
    counts = calls_per_op(spans, measured_ops)
    out = {}
    for metric, (names, stat, key) in LAYER_METRICS.items():
        names = (names,) if isinstance(names, str) else names
        rows = [r for n in names for r in rows_by.get((n, "measured"), [])]
        if not rows and metric.split(".")[0] in SETUP_LAYERS:
            rows = [r for n in names for r in rows_by.get((n, "setup"), [])]
        if stat == "calls":
            value, unit = _mean([sum(c[n] for n in names) for c in counts.values()]), "count"
        elif stat in ("ms", "s"):
            value = _median([t for t, _ in rows]) * (1e-6 if stat == "ms" else 1e-9)
            unit = stat
        else:
            value = _mean([info[key] for _, info in rows if info and key in info])
            unit = INFO_UNITS[key]
        out[metric] = {"value": value, "unit": unit}
    return out
