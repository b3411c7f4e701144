"""Extraction at the default configuration: golden descriptor values, the
float32 projection against the float64 one it replaced, and band sizes that
leave the backbone's output unchanged."""

from __future__ import annotations

import json

import pytest
from numpy.testing import assert_allclose, assert_array_equal

from make_golden import GOLDEN_DESCRIPTORS, default_model, descriptor_values, noise_images
from oracles import float64_projection
from vprkit import descriptor, tensor
from vprkit.backbone import backbone_forward
from vprkit.descriptor import extract_patch_descriptors, global_descriptor, make_patch_grid
from vprkit.io_store import load_image


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def images(tmp_path_factory):
    return noise_images(tmp_path_factory.mktemp("noise"))


@pytest.fixture(scope="module")
def fmap(model, images):
    return backbone_forward(load_image(str(images[0])), model.backbone, fused=True)


class TestGoldenDescriptors:
    def test_recorded_values(self, model, images):
        """The values in tests/golden/descriptors.json within 1e-9; make_golden.py
        says when the file may be rewritten."""
        got = descriptor_values(model, images)
        want = json.loads(GOLDEN_DESCRIPTORS.read_text(encoding="utf-8"))
        assert [g["image"] for g in got] == [w["image"] for w in want]
        for new, old in zip(got, want):
            assert_allclose(new["global"], old["global"], rtol=0, atol=1e-9)
            assert [r for r, _ in new["patches"]] == [r for r, _ in old["patches"]]
            assert_allclose([v for _, v in new["patches"]], [v for _, v in old["patches"]], rtol=0, atol=1e-9)


def test_float32_projection_against_float64(model, fmap, monkeypatch):
    """Projecting in float32 moves no default-config descriptor by more than 2.5e-7
    from projecting the same rows in float64."""
    grid = make_patch_grid(fmap.shape[2], fmap.shape[3], 2, 2)
    got = global_descriptor(fmap, model.vlad, model.pca), extract_patch_descriptors(fmap, grid, model.vlad, model.pca)
    monkeypatch.setattr(descriptor, "_project_rows", float64_projection)
    want = global_descriptor(fmap, model.vlad, model.pca), extract_patch_descriptors(fmap, grid, model.vlad, model.pca)
    assert got[1].descriptors.shape == (1131, 512)
    assert_allclose(got[0].values, want[0].values, rtol=0, atol=2.5e-7)
    assert_allclose(got[1].descriptors, want[1].descriptors, rtol=0, atol=2.5e-7)


def test_backbone_band_size_does_not_change_the_map(model, images, fmap, monkeypatch):
    monkeypatch.setattr(tensor, "CONV_BAND_BYTES", 1 << 40)
    assert_array_equal(backbone_forward(load_image(str(images[0])), model.backbone, fused=True), fmap)
