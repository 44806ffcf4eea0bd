"""The benchmark's traced run wraps library functions by qualname; each one
must still exist, or `perfbench/run.py --trace 1` fails when it installs its
wrappers."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for module, qualname, _ in layers.TARGETS:
        owner = module
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module.__name__}.{qualname}")
    assert missing == []
