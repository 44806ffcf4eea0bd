"""The benchmark's traced run wraps library functions by qualname; each one
must still exist, or `perfbench/run.py --trace 1` fails when it installs its
wrappers."""

import importlib.util
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _resolve(module, qualname):
    owner = module
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_target_resolves():
    layers = _layers()
    missing = []
    for module, qualname, _ in layers.TARGETS:
        if not callable(_resolve(module, qualname)):
            missing.append(f"{module.__name__}.{qualname}")
    assert missing == []


def test_replicate_hooks_read_n_samples_at_its_position():
    # a _replicates(position) hook reads n_samples from the positional
    # arguments at the position its closure holds
    layers = _layers()
    checked = []
    for module, qualname, hook in layers.TARGETS:
        if getattr(hook, "__qualname__", "") != "_replicates.<locals>.hook":
            continue
        position = inspect.getclosurevars(hook).nonlocals["position"]
        parameters = list(inspect.signature(_resolve(module, qualname)).parameters)
        assert parameters[position] == "n_samples", qualname
        checked.append(qualname)
    assert len(checked) == 3
