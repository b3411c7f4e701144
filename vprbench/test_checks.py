"""The benchmark's checks pass on the program's output and fail on a corrupted copy.

Run with ``python3 -m pytest vprbench``. Small dimensions keep it fast; the
references are the same functions the workloads use at the default ones.
"""

from __future__ import annotations

import numpy as np
import pytest

import checks
import workloads
from vprkit import backbone, descriptor, io_store, matcher, retrieval
from vprkit.backbone import NetworkSpec, StageSpec


def flip_byte(a: np.ndarray, element: int = 0, byte: int = 2) -> np.ndarray:
    """Copy of a float32 array with one byte of one element inverted."""
    out = np.array(a, dtype=np.float32, copy=True)
    out.view(np.uint8).reshape(-1, 4)[element, byte] ^= 0xFF
    return out


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def small_index(rng, n=6, d=8, with_patches=True):
    db = unit_rows(rng, n, d)
    entries = tuple(
        retrieval.IndexEntry(f"id{i}", descriptor.GlobalDescriptor(db[i], True), retrieval.GeoTag.utm(i, 0.0))
        for i in range(n)
    )
    grid = descriptor.make_patch_grid(3, 4, 2, 2, 1)
    patches = {f"id{i}": descriptor.PatchDescriptorSet(unit_rows(rng, grid.count, d), grid) for i in range(n)}
    return retrieval.DescriptorIndex(entries), (patches if with_patches else {})


def test_patch_count_of_default_layout_is_1131():
    assert workloads.EXPECTED_PATCHES == 1131
    assert checks.check_patch_counts([1131, 1131], 1131) == []
    assert checks.check_patch_counts([1131, 1130], 1131)


def test_vlad_reference_matches_program_and_catches_a_flipped_byte():
    rng = np.random.default_rng(3)
    spec = NetworkSpec(stages=(StageSpec(1, 8), StageSpec(2, 12)), input_dims=(32, 48))
    net = backbone.reparameterize_backbone(backbone.random_backbone(spec, rng))
    vlad = descriptor.random_vlad_params(12, 5, rng)
    pca = descriptor.random_projection(60, 16, rng)
    fmap = backbone.backbone_forward(rng.standard_normal((1, 3, 32, 48)).astype(np.float32), net, fused=True)
    got = descriptor.global_descriptor(fmap, vlad, pca).values
    ref = checks.vlad_reference(fmap, vlad.centers, vlad.assign_weight, vlad.assign_bias, pca.projection, pca.mean)
    assert checks.check_close(got, ref, "vlad", 1e-5) == []
    assert checks.check_close(flip_byte(got, 3), ref, "vlad", 1e-5)


def test_unit_norm_catches_a_flipped_byte():
    rows = unit_rows(np.random.default_rng(4), 5, 32)
    assert checks.check_unit_norm(rows, "rows") == []
    assert checks.check_unit_norm(flip_byte(rows, 40), "rows")
    assert checks.check_unit_norm(flip_byte(rows, 40, byte=3), "rows")  # sign/exponent byte


def test_index_round_trip_is_bit_exact_and_a_flipped_byte_is_caught(tmp_path):
    index, patches = small_index(np.random.default_rng(5))
    io_store.save_index(tmp_path / "i.vpri", index, patches)
    loaded, loaded_patches = io_store.load_index(tmp_path / "i.vpri")
    before = checks.index_snapshot(index, patches)
    assert checks.check_index_equal(before, checks.index_snapshot(loaded, loaded_patches)) == []
    corrupted = dict(loaded_patches)
    p = corrupted["id2"]
    corrupted["id2"] = descriptor.PatchDescriptorSet(flip_byte(p.descriptors, 7, byte=0), p.grid)
    assert checks.check_index_equal(before, checks.index_snapshot(loaded, corrupted))
    entries = list(loaded.entries)
    e = entries[4]
    entries[4] = retrieval.IndexEntry(e.image_id, descriptor.GlobalDescriptor(flip_byte(e.descriptor.values, 1, 0), True), e.geotag)
    assert checks.check_index_equal(before, checks.index_snapshot(retrieval.DescriptorIndex(tuple(entries)), loaded_patches))


@pytest.fixture
def search():
    rng = np.random.default_rng(6)
    index, _ = small_index(rng, n=40, d=16, with_patches=False)
    ids = [e.image_id for e in index.entries]
    matrix = np.stack([e.descriptor.values for e in index.entries])
    q = descriptor.GlobalDescriptor(matrix[7], True)
    ranked = retrieval.global_retrieve(q, index, "q", k=10).ranked
    ref_ids, ref_scores = checks.ranking_reference(ids, matrix, q.values, 10)
    return ranked, ref_ids, ref_scores


def test_ranking_matches_program(search):
    ranked, ref_ids, ref_scores = search
    assert checks.check_ranking(ranked, ref_ids, ref_scores) == []
    assert checks.check_self_first(ranked, "id7", "stage one") == []
    assert checks.check_self_score(ranked) == []


def test_ranking_reference_breaks_ties_toward_the_smaller_id():
    matrix = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, 0.8], [0.0, 1.0]])
    ids, _ = checks.ranking_reference(["d", "c", "b", "a"], matrix, np.array([0.6, 0.8]), 3)
    assert ids == ["b", "c", "a"]


def test_swapped_rank_is_caught(search):
    ranked, ref_ids, ref_scores = search
    swapped = [ranked[1], ranked[0]] + list(ranked[2:])
    assert checks.check_ranking(swapped, ref_ids, ref_scores)
    assert checks.check_self_first(swapped, "id7", "stage one")


def test_perturbed_score_is_caught(search):
    ranked, ref_ids, ref_scores = search
    nudged = [(ranked[0][0], ranked[0][1] + 2e-6)] + list(ranked[1:])
    assert checks.check_ranking(nudged, ref_ids, ref_scores)
    assert checks.check_self_score(nudged)


def test_match_score_outside_the_unit_interval_is_caught():
    reranked = [("db1", 0.957), ("db0", 0.954)]
    assert checks.check_unit_interval(reranked) == []
    assert checks.check_unit_interval([("db1", 1.0 + 1e-9)] + reranked[1:])
    assert checks.check_unit_interval(reranked[:1] + [("db0", -1e-9)])


def test_dropped_candidate_is_not_a_permutation(search):
    ranked, _, _ = search
    assert checks.check_permutation(ranked, list(reversed(ranked))) == []
    assert checks.check_permutation(ranked, list(ranked[:-1]) + [("intruder", 0.0)])


def test_match_score_reference_matches_program_and_catches_a_perturbation():
    rng = np.random.default_rng(7)
    params = matcher.random_matcher_params(16, rng, rounds=2, dustbin_score=0.9)
    q, d = unit_rows(rng, 12, 16), unit_rows(rng, 10, 16)
    got = matcher.match_pair(q, d, params, reg=1.0)
    layers = [(l.w_f, l.w_g, l.w_h, l.mode) for l in params.layers]
    ref = checks.match_score_reference(q, d, layers, params.dustbin_score, reg=1.0)
    assert checks.check_close(got, ref, "match score", 1e-5) == []
    assert checks.check_close(got + 2e-5, ref, "match score", 1e-5)
