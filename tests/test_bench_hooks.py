"""The benchmark tracer's hooks name functions the package still has.

``vprbench/tracing.py`` wraps vprkit functions by (module, attribute) for
traced benchmark runs; a rename in the package would otherwise surface only
when such a run fails. The file is loaded by path and used as it stands.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from vprkit.descriptor import PatchDescriptorSet, make_patch_grid
from vprkit.matcher import random_matcher_params
from vprkit.retrieval import CandidateList

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


def test_traced_rerank_counts_one_enhance_and_its_attention_calls_per_candidate():
    """A traced rerank records, per candidate, one ``matcher.enhance`` span
    holding one ``matcher.attention_forward`` span per direction and layer, so
    ``matcher.enhance_s`` and ``matcher.attention_forward_calls`` time the
    matcher's production path."""
    tracing = _tracing()
    names = ("pipeline", "backbone", "io_store", "retrieval", "matcher")
    modules = {name: importlib.import_module(f"vprkit.{name}") for name in names}
    rng = np.random.default_rng(5)
    params = random_matcher_params(dim=8, rng=rng, rounds=2)

    def patches(count):
        return PatchDescriptorSet(rng.standard_normal((count, 8)), make_patch_grid(2, count + 1, 2, 2))

    store = {"a": patches(5), "b": patches(6), "c": patches(4)}
    initial = CandidateList(query_id="q", ranked=(("a", 0.9), ("b", 0.8), ("c", 0.7)))
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        modules["retrieval"].rerank(patches(3), initial, store, params)
    finally:
        tracer.uninstall()

    spans = tracer.spans
    pairs = [i for i, s in enumerate(spans) if s[0] == "matcher.match_pair"]
    enhances = [i for i, s in enumerate(spans) if s[0] == "matcher.enhance"]
    assert len(pairs) == 3
    assert sorted(spans[i][3] for i in enhances) == pairs  # one per candidate pair
    for i in enhances:
        assert sum(s[0] == "matcher.attention_forward" and s[3] == i for s in spans) == 2 * len(params.layers)
    assert sum(s[0] == "matcher.attention_forward" for s in spans) == 3 * 2 * len(params.layers)
    metrics = tracer.per_layer(1.0)
    assert metrics["matcher.attention_forward_calls"][0] == 2 * len(params.layers)
    assert metrics["matcher.enhance_s"][0] > 0.0


def test_traced_rerank_under_attention_halves_keeps_its_spans(band_halves):
    """As above, with sets large enough (at least 128 rows of 128 dims) that each
    attention call runs its rows in two halves at once: the pool thread calls
    only numpy, so the tracer still sees one ``matcher.enhance`` span per
    candidate and its attention calls."""
    band_halves(True)
    tracing = _tracing()
    names = ("pipeline", "backbone", "io_store", "retrieval", "matcher")
    modules = {name: importlib.import_module(f"vprkit.{name}") for name in names}
    rng = np.random.default_rng(5)
    params = random_matcher_params(dim=128, rng=rng, rounds=2)

    def patches(count):
        return PatchDescriptorSet(rng.standard_normal((count, 128)), make_patch_grid(2, count + 1, 2, 2))

    store = {"a": patches(150), "b": patches(160), "c": patches(140)}
    initial = CandidateList(query_id="q", ranked=(("a", 0.9), ("b", 0.8), ("c", 0.7)))
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        modules["retrieval"].rerank(patches(130), initial, store, params)
    finally:
        tracer.uninstall()

    spans = tracer.spans
    pairs = [i for i, s in enumerate(spans) if s[0] == "matcher.match_pair"]
    enhances = [i for i, s in enumerate(spans) if s[0] == "matcher.enhance"]
    assert len(pairs) == 3
    assert sorted(spans[i][3] for i in enhances) == pairs  # one per candidate pair
    for i in enhances:
        assert sum(s[0] == "matcher.attention_forward" and s[3] == i for s in spans) == 2 * len(params.layers)
    assert sum(s[0] == "matcher.attention_forward" for s in spans) == 3 * 2 * len(params.layers)
    metrics = tracer.per_layer(1.0)
    assert metrics["matcher.attention_forward_calls"][0] == 2 * len(params.layers)
    assert metrics["matcher.enhance_s"][0] > 0.0
