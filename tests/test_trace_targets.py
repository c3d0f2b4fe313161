"""Every function the benchmark's tracer wraps exists in the package, and
every workload's ops make the traced calls the benchmark expects of them.

``perfbench/tracer.py`` lists its targets as ``(module, attr)`` pairs and
looks them up when a traced run starts, after importing ``scesep.cli``. A
renamed or deleted target fails here instead of in that run. A traced
benchmark run also fails every op whose span counts differ from its
workload's ``expected_calls``, so a change that drops or adds a traced call
in ``denoise``, the ``eval`` workload's CLI commands or a ``train`` epoch
fails here too, on inputs small enough for the unit tests.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from scesep import inference
from scesep.dsp import Waveform
from scesep.model import ModelConfig, SeparationModel
from scesep.seeding import rng_for

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    targets = load_perfbench("tracer").TARGETS
    importlib.import_module("scesep.cli")  # as Tracer.install does: it imports every traced module
    missing = []
    for mod_name, attr, *_ in targets:
        mod = sys.modules.get(mod_name)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:  # a method, which install takes from its class's __dict__
            cls = getattr(mod, cls_name, None)
            found = cls is not None and name in vars(cls)
        else:
            found = callable(getattr(mod, name, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert len(targets) > 20
    assert not missing, missing


@pytest.mark.parametrize("mode", ["cluster", "mi"])
def test_denoise_span_counts_match_the_workload(mode):
    tr, workloads = load_perfbench("tracer"), load_perfbench("workloads")
    plan = json.loads((PERFBENCH / "plan.json").read_text(encoding="utf-8"))
    wl = workloads.InferWorkload(plan["infer"], mode)
    wl.model = SeparationModel(ModelConfig(n_blstm_layers=2, hidden_total=4, embed_dim=3), rng_for(0, "init"))
    mixture = Waveform(np.random.default_rng(1).standard_normal(5000), wl.stft_cfg.sample_rate_hz)
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        inference.denoise(wl.model, mixture, mode=mode, k=plan["infer"]["K"], cfg=wl.stft_cfg, seed=1)
    finally:
        tracer.uninstall()
    counts = tr.calls_per_op(tracer.spans, [0])[0]
    assert dict(counts) == {k: v for k, v in wl.expected_calls(mode).items() if v}


@pytest.mark.parametrize("name,plan", [
    ("eval", {"corpus": {"n_train": 4, "n_val": 0, "n_test": 2}}),
    ("train", {"epochs_per_run": 1}),
])
def test_workload_span_counts_match(name, plan, tmp_path):
    tr, workloads = load_perfbench("tracer"), load_perfbench("workloads")
    wl = workloads.make(name, {name: plan})
    wl.setup(tmp_path, 1)
    ops = wl.pass_ops(0)
    tracer = tr.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            op.check(op.run())
    finally:
        tracer.uninstall()
    counts = tr.calls_per_op(tracer.spans, range(len(ops)))
    for i, op in enumerate(ops):
        assert dict(counts[i]) == {k: v for k, v in wl.expected_calls(op.kind).items() if v}, op.kind
