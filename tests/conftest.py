"""Shared fixtures: tiny models and an on-disk image corpus."""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from vprkit import tensor
from vprkit.backbone import NetworkSpec, StageSpec
from vprkit.io_store import ManifestRecord, save_manifest, write_ppm
from vprkit.model import ModelParams, random_model

SMALL_SPEC = NetworkSpec(
    stages=(StageSpec(layer_count=1, out_channels=8), StageSpec(layer_count=2, out_channels=12)),
    input_dims=(32, 32),
)


def traced_peak(run):
    """run()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def small_model() -> ModelParams:
    """Two-stage backbone, 3 clusters, 8-dim output; cheap enough for every test."""
    return random_model(seed=42, spec=SMALL_SPEC, clusters=3, pca_dim=8, attention_rounds=1)


def build_corpus(root, count: int, dims=(48, 64), seed: int = 0, query_offset_m: float = 0.0):
    """Write `count` random images plus a manifest pairing each database image
    with a pixel-identical query. Returns the manifest path."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        img = rng.integers(0, 256, size=(dims[0], dims[1], 3), dtype=np.uint8)
        path = root / f"img{i:03d}.ppm"
        write_ppm(path, img)
        east = 1000.0 * i
        records.append(ManifestRecord(f"db{i:03d}", str(path), east, 0.0, "database"))
        records.append(ManifestRecord(f"q{i:03d}", str(path), east + query_offset_m, 0.0, "query"))
    manifest = root / "manifest.csv"
    save_manifest(manifest, records)
    return manifest


@pytest.fixture
def band_halves(monkeypatch):
    """set(at_once) makes tensor.band_workers run each step whole (False) or in two
    halves at once (True), as with BLAS on one thread of one or of two CPUs and
    no cgroup CPU quota."""

    def set_at_once(at_once: bool) -> None:
        monkeypatch.setattr(tensor, "quota_cpus", lambda: float("inf"))
        monkeypatch.setattr(tensor, "blas_threads", lambda: 1)
        monkeypatch.setattr(tensor, "usable_cpus", lambda: 2 if at_once else 1)

    return set_at_once


@pytest.fixture
def ppm_corpus(tmp_path):
    return build_corpus(tmp_path, count=4, dims=(48, 64), seed=7)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance scoreboard after the normal summary."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
