"""The package's export list names only what the package provides."""

from __future__ import annotations

import types

import vprkit


def test_every_export_resolves_once():
    missing = [name for name in vprkit.__all__ if not hasattr(vprkit, name)]
    assert missing == []
    assert len(set(vprkit.__all__)) == len(vprkit.__all__)
    # Whatever public name __init__ binds, bar the submodules, is exported, and nothing more.
    bound = {
        name
        for name, value in vars(vprkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bound - set(vprkit.__all__)) == []
    assert sorted(set(vprkit.__all__) - bound) == []
