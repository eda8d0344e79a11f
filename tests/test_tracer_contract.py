"""The benchmark's tracer rebinds package functions by name; keep every name resolvable.

``perfbench/tracer.py`` looks each layer boundary up with ``getattr`` when a
traced run starts, so a refactor that deletes or moves a traced function
would crash ``perfbench/run.py --trace 1``.  This test fails first instead.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    missing = []
    for span, module_name, attr, _ in load_tracer().layer_boundaries():
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.append(f"{span}: {module_name}.{attr}")
    assert missing == []
