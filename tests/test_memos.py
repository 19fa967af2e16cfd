"""Every memo in ``uavrf`` has a fixed bound.

A ``functools`` cache without ``maxsize`` keeps every distinct argument
it has seen for the life of the process.  This walks each module of the
package, and the classes the module defines, for ``functools`` caches
and fails on any whose ``cache_parameters()["maxsize"]`` is ``None``.
"""

from __future__ import annotations

import importlib
import pkgutil
import types

import uavrf


def memos(modules) -> dict[str, int | None]:
    """``module.qualname`` -> maxsize of every functools cache in ``modules``."""
    found = {}
    for module in modules:
        owners = [module] + [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for name in vars(owner):
                value = getattr(owner, name)
                if callable(getattr(value, "cache_parameters", None)):
                    key = f"{value.__module__}.{value.__qualname__}"
                    found[key] = value.cache_parameters()["maxsize"]
    return found


def uavrf_modules():
    return [
        importlib.import_module(f"uavrf.{info.name}")
        for info in pkgutil.iter_modules(uavrf.__path__)
    ]


def test_every_memo_is_bounded():
    found = memos(uavrf_modules())
    assert {"uavrf.placement._optimum", "uavrf.layout._unit_layout"} <= found.keys()
    assert [name for name, maxsize in found.items() if maxsize is None] == []


def test_scan_finds_module_and_class_caches():
    module = types.ModuleType("fake")
    exec(
        "import functools\n"
        "@functools.cache\n"
        "def f(x): return x\n"
        "class C:\n"
        "    @staticmethod\n"
        "    @functools.lru_cache(maxsize=2)\n"
        "    def g(x): return x\n",
        module.__dict__,
    )
    assert memos([module]) == {"fake.f": None, "fake.C.g": 2}
