"""The package's export list names only what the package provides."""

from __future__ import annotations

import vprkit


def test_every_export_resolves_once():
    missing = [name for name in vprkit.__all__ if not hasattr(vprkit, name)]
    assert missing == []
    assert len(set(vprkit.__all__)) == len(vprkit.__all__)
