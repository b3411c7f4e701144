"""The benchmark tracer's hooks name functions the package still has.

``vprbench/tracing.py`` wraps vprkit functions by (module, attribute) for
traced benchmark runs; a rename in the package would otherwise surface only
when such a run fails. The file is loaded by path and used as it stands.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "vprbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("vprbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_and_installs():
    tracing = _tracing()
    modules = {name: importlib.import_module(f"vprkit.{name}") for name, *_ in tracing.HOOKS}
    modules["retrieval"] = importlib.import_module("vprkit.retrieval")
    missing = [f"{name}.{attr}" for name, attr, *_ in tracing.HOOKS if not callable(getattr(modules[name], attr, None))]
    assert missing == []
    index_cls = modules["retrieval"].DescriptorIndex
    assert callable(index_cls.matrix)

    originals = [getattr(modules[name], attr) for name, attr, *_ in tracing.HOOKS]
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        wrapped = [getattr(modules[name], attr) for name, attr, *_ in tracing.HOOKS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert [getattr(modules[name], attr) for name, attr, *_ in tracing.HOOKS] == originals
