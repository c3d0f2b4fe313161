"""Every function the benchmark's tracer wraps exists in the package.

``perfbench/tracer.py`` lists its targets as ``(module, attr)`` pairs and
looks them up when a traced run starts, after importing ``scesep.cli``. A
renamed or deleted target fails here instead of in that run.
"""

import importlib.util
import sys
from pathlib import Path


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    targets = load_tracer().TARGETS
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
