"""The benchmark's traced runs find every module attribute they wrap.

``perfbench/layers.py`` wraps or counts ``uavrf`` functions by module
and attribute name.  A renamed or rerouted function would fail only in a
traced benchmark run; this reads the lists without wrapping anything.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_exists():
    layers = _layers()
    named = [(module, attr) for module, attr, *_ in layers.SPANS + layers.COUNTS]
    assert len(named) == len(layers.SPANS) + len(layers.COUNTS) > 0
    missing = [(m, a) for m, a in named if not callable(getattr(layers.MODULES[m], a, None))]
    assert missing == []
