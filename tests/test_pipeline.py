"""Image-to-descriptor composition and whole-manifest extraction."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import build_corpus
from make_golden import GOLDEN_C08, c08_results
from oracles import conv2d_im2col, float64_projection, patch_descriptors_loop
from vprkit import backbone, descriptor, pipeline
from vprkit.backbone import NetworkSpec, StageSpec, backbone_forward
from vprkit.descriptor import PatchDescriptorSet, extract_patch_descriptors, global_descriptor, make_patch_grid
from vprkit.errors import ConfigError, FormatError, ShapeError
from vprkit.io_store import ManifestRecord, load_manifest, write_ppm
from vprkit.model import random_model
from vprkit.pipeline import ExtractionSettings, extract_from_tensor, extract_image, extract_index
from vprkit.retrieval import global_retrieve, rerank

SEED = 51515


class TestExtractFromTensor:
    def test_composition_matches_manual_steps(self, small_model):
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        settings = ExtractionSettings(patch_size=2, patch_stride=1, input_dims=None)
        desc, patches = extract_from_tensor(x, small_model, settings)

        fmap = backbone_forward(x, small_model.backbone, fused=False, strict_dims=False)
        want_desc = global_descriptor(fmap, small_model.vlad, small_model.pca)
        grid = make_patch_grid(fmap.shape[2], fmap.shape[3], 2, 2, 1)
        want_patches = extract_patch_descriptors(fmap, grid, small_model.vlad, small_model.pca)
        assert_array_equal(desc.values, want_desc.values)
        assert_array_equal(patches.descriptors, want_patches.descriptors)
        assert patches.grid == grid

    def test_output_dims(self, small_model):
        rng = np.random.default_rng(SEED + 1)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        desc, patches = extract_from_tensor(x, small_model, ExtractionSettings())
        assert desc.dim == 8
        assert desc.pca_applied
        # 32x32 through two stride-2 stages: 8x8 map, 2x2 windows at stride 1.
        assert patches.grid.rows == 7 and patches.grid.cols == 7
        assert patches.descriptors.shape == (49, 8)

    def test_tensor_input_taken_verbatim(self, small_model):
        # input_dims governs image loading; a tensor handed in directly is
        # never resized behind the caller's back.
        rng = np.random.default_rng(SEED + 2)
        x = rng.standard_normal((1, 3, 40, 52)).astype(np.float32)
        settings = ExtractionSettings(input_dims=(32, 32))
        _, patches = extract_from_tensor(x, small_model, settings)
        assert (patches.grid.height, patches.grid.width) == (10, 13)

    def test_patch_too_big_for_map_refused(self, small_model):
        rng = np.random.default_rng(SEED + 3)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)  # 4x4 feature map
        with pytest.raises(ShapeError):
            extract_from_tensor(x, small_model, ExtractionSettings(patch_size=5))

    def test_fused_model_close_to_multibranch(self, small_model):
        rng = np.random.default_rng(SEED + 4)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        both = dataclasses.replace(small_model, backbone=backbone.reparameterize_backbone(small_model.backbone))
        a, _ = extract_from_tensor(x, both, ExtractionSettings(fused=False))
        b, _ = extract_from_tensor(x, both, ExtractionSettings(fused=True))
        assert_allclose(a.values, b.values, atol=1e-4)


class TestExtractIndex:
    def test_database_split_only_sorted_by_id(self, small_model, tmp_path):
        manifest = build_corpus(tmp_path, count=3, dims=(32, 32), seed=1)
        records = load_manifest(manifest)
        index, store = extract_index(records, small_model, ExtractionSettings(input_dims=(32, 32)))
        assert [e.image_id for e in index.entries] == ["db000", "db001", "db002"]
        assert set(store) == {"db000", "db001", "db002"}

    def test_shuffled_manifest_same_index(self, small_model, tmp_path):
        manifest = build_corpus(tmp_path, count=4, dims=(32, 32), seed=2)
        records = load_manifest(manifest)
        shuffled = list(records)
        np.random.default_rng(9).shuffle(shuffled)
        a, _ = extract_index(records, small_model, ExtractionSettings(input_dims=(32, 32)))
        b, _ = extract_index(shuffled, small_model, ExtractionSettings(input_dims=(32, 32)))
        for ea, eb in zip(a.entries, b.entries):
            assert ea.image_id == eb.image_id
            assert_array_equal(ea.descriptor.values, eb.descriptor.values)

    def test_band_halves_do_not_change_results(self, small_model, tmp_path, band_halves):
        """Each image's bands in two halves at once give the index and patch bits of whole bands."""
        records = load_manifest(build_corpus(tmp_path, count=3, dims=(32, 32), seed=7))
        got = {}
        for at_once in (False, True):
            band_halves(at_once)
            got[at_once] = extract_index(records, small_model, ExtractionSettings(input_dims=(32, 32)))
        (whole, whole_store), (halves, halves_store) = got[False], got[True]
        for ea, eb in zip(whole.entries, halves.entries, strict=True):
            assert ea.image_id == eb.image_id
            assert_allclose(eb.descriptor.values, ea.descriptor.values, rtol=0, atol=0)
        assert halves_store.keys() == whole_store.keys()
        for key in whole_store:
            assert_allclose(halves_store[key].descriptors, whole_store[key].descriptors, rtol=0, atol=0)

    @pytest.mark.parametrize("threads", [0, 2])
    def test_threads_other_than_one_refused(self, small_model, tmp_path, threads):
        records = load_manifest(build_corpus(tmp_path, count=1, dims=(32, 32), seed=3))
        with pytest.raises(ConfigError, match=f"threads must be 1, got {threads}"):
            extract_index(records, small_model, ExtractionSettings(input_dims=(32, 32)), threads=threads)

    def test_no_database_records_refused(self, small_model, tmp_path):
        manifest = tmp_path / "queries_only.csv"
        manifest.write_text(
            "image_id,path,easting,northing,split\nq0,missing.ppm,0,0,query\n"
        )
        with pytest.raises(FormatError):
            extract_index(load_manifest(manifest), small_model, ExtractionSettings())

    def test_geotags_carried_through(self, small_model, tmp_path):
        manifest = build_corpus(tmp_path, count=2, dims=(32, 32), seed=4)
        index, _ = extract_index(load_manifest(manifest), small_model, ExtractionSettings(input_dims=(32, 32)))
        tags = index.geotags()
        assert tags["db000"].coords == (0.0, 0.0)
        assert tags["db001"].coords == (1000.0, 0.0)


class TestExtractImage:
    def test_matches_tensor_path(self, small_model, tmp_path):
        manifest = build_corpus(tmp_path, count=1, dims=(32, 32), seed=5)
        record = load_manifest(manifest)[0]
        from vprkit.io_store import load_image

        settings = ExtractionSettings(input_dims=(32, 32))
        desc_file, patches_file = extract_image(record.path, small_model, settings)
        desc_mem, patches_mem = extract_from_tensor(load_image(record.path, (32, 32)), small_model, settings)
        assert_array_equal(desc_file.values, desc_mem.values)
        assert_array_equal(patches_file.descriptors, patches_mem.descriptors)


# The acceptance gate's self-retrieval network and images (criterion 08).
C08_SPEC = NetworkSpec(
    stages=(
        StageSpec(layer_count=1, out_channels=16),
        StageSpec(layer_count=2, out_channels=24),
        StageSpec(layer_count=2, out_channels=32),
    ),
    input_dims=(120, 160),
)


def c08_corpus(root) -> list[ManifestRecord]:
    """Criterion 08's twenty 120x160 noise images, written under root as database records."""
    rng = np.random.default_rng(20260821 + 8)
    records = []
    for i in range(20):
        path = root / f"place{i:02d}.ppm"
        write_ppm(path, rng.integers(0, 256, size=(120, 160, 3), dtype=np.uint8))
        records.append(ManifestRecord(f"db{i:02d}", str(path), 100.0 * i, 0.0, "database"))
    return records


class TestExtractionAgainstOldKernels:
    """On the acceptance gate's self-retrieval fixtures (criterion 08), the
    tap-by-tap convolution and the batched patch VLAD give the descriptors
    and both stages' rankings of the im2col and per-window kernels they
    replaced."""

    @pytest.mark.parametrize("fused", [False, True])
    def test_same_index_and_rankings(self, tmp_path, monkeypatch, fused):
        model = random_model(seed=0, spec=C08_SPEC, clusters=8, pca_dim=32)
        model = dataclasses.replace(model, backbone=backbone.reparameterize_backbone(model.backbone))
        settings = ExtractionSettings(
            patch_size=2, patch_stride=1, input_dims=(120, 160), strict_dims=False, fused=fused
        )
        records = c08_corpus(tmp_path)

        def old_conv2d(x, p):
            return conv2d_im2col(x, p.weight, p.bias, p.stride, p.padding)

        def old_patches(fmap, grid, vlad, pca):
            descriptors = patch_descriptors_loop(
                fmap,
                grid.d_x,
                grid.d_y,
                grid.stride,
                vlad.centers,
                vlad.assign_weight,
                vlad.assign_bias,
                pca.projection,
                pca.mean,
            )
            return PatchDescriptorSet(descriptors=descriptors, grid=grid)

        def search(index, patch_store):
            rankings = []
            for record in records[::4]:
                gd, patches = extract_image(record.path, model, settings)
                initial = global_retrieve(gd, index, record.image_id, k=20)
                rankings.append((initial, rerank(patches, initial, patch_store, model.matcher, reg=0.02)))
            return rankings

        index, patch_store = extract_index(records, model, settings)
        got = search(index, patch_store)
        with monkeypatch.context() as patched:
            patched.setattr(backbone, "conv2d", old_conv2d)
            patched.setattr(pipeline, "extract_patch_descriptors", old_patches)
            old_index, old_store = extract_index(records, model, settings)
            want = search(old_index, old_store)

        for new_entry, old_entry in zip(index.entries, old_index.entries):
            assert_allclose(new_entry.descriptor.values, old_entry.descriptor.values, rtol=0, atol=1e-6)
            new_patches = patch_store[new_entry.image_id].descriptors
            assert_allclose(new_patches, old_store[old_entry.image_id].descriptors, rtol=0, atol=1e-6)
        for (initial, reranked), (old_initial, old_reranked) in zip(got, want):
            assert initial.ids() == old_initial.ids()
            assert reranked.ids() == old_reranked.ids()
            assert reranked.ids()[0] == initial.query_id
            assert_allclose([s for _, s in initial.ranked], [s for _, s in old_initial.ranked], rtol=0, atol=1e-6)


class TestFloat32Projection:
    def test_same_rankings_as_float64(self, tmp_path, monkeypatch):
        """On criterion 08's corpus and model, every image queried against all twenty
        (its own indexed descriptors standing in for the pixel-identical query):
        projecting in float32 gives the float64 projection's stage-one and re-ranked
        orders and unconverged ids, with scores within 1e-7."""
        model = random_model(seed=0, spec=C08_SPEC, clusters=8, pca_dim=32)
        settings = ExtractionSettings(patch_size=2, patch_stride=1, input_dims=(120, 160), strict_dims=False)
        records = c08_corpus(tmp_path)

        def search():
            index, patch_store = extract_index(records, model, settings)
            rankings = []
            for entry in index.entries:
                initial = global_retrieve(entry.descriptor, index, entry.image_id, k=20)
                patches = patch_store[entry.image_id]
                rankings.append((initial, rerank(patches, initial, patch_store, model.matcher, reg=0.02)))
            return rankings

        got = search()
        monkeypatch.setattr(descriptor, "_project_rows", float64_projection)
        want = search()
        for (initial, reranked), (old_initial, old_reranked) in zip(got, want):
            assert initial.ids() == old_initial.ids()
            assert (reranked.ids(), reranked.unconverged) == (old_reranked.ids(), old_reranked.unconverged)
            for new, old in ((initial, old_initial), (reranked, old_reranked)):
                assert_allclose([s for _, s in new.ranked], [s for _, s in old.ranked], rtol=0, atol=1e-7)


class TestGolden:
    def test_c08_results(self, tmp_path):
        """Orders and unconverged ids as recorded in tests/golden/c08.json, scores
        within 1e-12; make_golden.py says when the file may be rewritten."""
        got = c08_results(tmp_path)
        want = json.loads(GOLDEN_C08.read_text(encoding="utf-8"))
        assert [q["query_id"] for q in got] == [q["query_id"] for q in want]
        for new, old in zip(got, want):
            for stage in ("initial", "reranked"):
                assert [i for i, _ in new[stage]] == [i for i, _ in old[stage]], (new["query_id"], stage)
                assert_allclose([s for _, s in new[stage]], [s for _, s in old[stage]], rtol=0, atol=1e-12)
            assert new["unconverged"] == old["unconverged"], new["query_id"]
