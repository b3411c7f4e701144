"""Extraction at the default configuration: golden descriptor values, the
float32 projection against the float64 one it replaced, band sizes that
leave the backbone's output unchanged and band halves that leave the
extraction's bytes unchanged, the deploy model's size, and the traced memory
of loading an image, of the first convolution, of patch extraction (whole
bands and halves at once), of packing, saving and loading the model and of
matching one default-size pair, and attention halves that leave that pair's
bits and memory unchanged."""

from __future__ import annotations

import hashlib
import json
from functools import partial

import pytest
import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from conftest import traced_peak
from make_golden import GOLDEN_DESCRIPTORS, default_model, descriptor_values, noise_images
from oracles import float64_projection
from vprkit import descriptor, matcher, tensor
from vprkit.backbone import backbone_forward
from vprkit.cli import main
from vprkit.descriptor import extract_patch_descriptors, global_descriptor, make_patch_grid
from vprkit.io_store import WEIGHTS_MAGIC, load_image, load_weights, model_to_tensors, pack_tensors, save_weights
from vprkit.pipeline import ExtractionSettings, extract_from_tensor


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


def test_extraction_bits_do_not_depend_on_the_band_halves(model, images, band_halves):
    """The default extraction's global and patch bytes, by sha256, with whole bands
    and with halves at once."""
    image = load_image(str(images[0]))
    digests = set()
    for at_once in (False, True):
        band_halves(at_once)
        desc, patches = extract_from_tensor(image, model, ExtractionSettings(fused=True))
        digests.add(hashlib.sha256(desc.values.tobytes() + patches.descriptors.tobytes()).hexdigest())
    assert len(digests) == 1


def test_backbone_band_size_does_not_change_the_map(model, images, fmap, monkeypatch):
    monkeypatch.setattr(tensor, "BAND_BYTES", 1 << 40)
    assert_array_equal(backbone_forward(load_image(str(images[0])), model.backbone, fused=True), fmap)


@pytest.mark.parametrize("at_once", [False, True], ids=["whole", "halves"])
def test_head_band_size_does_not_change_the_patch_rows(model, fmap, at_once, band_halves, monkeypatch):
    """At the default dimensions (K=64, D=192, 12288 -> 512) the patch rows keep their
    bits at the default BAND_BYTES, at half of it and at twice it: staged
    groups of 340, 168 and 680 rows, the last of 111, 123 and 451, are large
    projection GEMMs alike (small groups need not be; see _vlad_head)."""
    band_halves(at_once)
    grid = make_patch_grid(fmap.shape[2], fmap.shape[3], 2, 2)
    default = tensor.BAND_BYTES
    got = []
    for band_bytes in (default, default // 2, 2 * default):
        monkeypatch.setattr(tensor, "BAND_BYTES", band_bytes)
        got.append(extract_patch_descriptors(fmap, grid, model.vlad, model.pca).descriptors)
    assert got[0].shape == (1131, 512)
    assert_array_equal(got[1], got[0])
    assert_array_equal(got[2], got[0])


# Bytes patch extraction may hold beyond its own output. The (1131, 12288)
# float32 matrix of every normalized VLAD row is 55.6 MB at the default map on
# its own, and building it before projecting took the traced peak to 82.7 MB;
# a (band, K, D) float64 centre-term buffer beside the band's and a float64
# output cast to float32 at the end held 40.3 MB beyond the output.
PATCH_TRANSIENT_BOUND = 34e6


# The seed-0 default model as save_weights writes it: the fused backbone alone.
# With the multibranch blocks beside it, the file took 78,740,815 bytes.
DEPLOY_BYTES = 57_160_578


class TestDeployModel:
    def test_holds_no_multibranch_array(self, model):
        assert model.backbone.blocks is None and len(model.backbone.fused) == 21

    def test_bench_reports_its_size_and_the_multibranch_tally(self, tmp_path):
        """bench hashes and sizes the deploy model, and still counts the multibranch
        form from the spec alone (acceptance c09's 5,371,680 parameters)."""
        report = tmp_path / "bench.jsonl"
        dims = ["--input-height", "64", "--input-width", "80"]
        assert main(["bench", "--images", "1", "--queries", "1", *dims, "--report", str(report)]) == 0
        (record,) = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
        assert record["model_size_bytes"] == DEPLOY_BYTES
        assert record["model_sha256"].startswith("6a94aabf6674f1cc")
        assert (record["params_multibranch"], record["params_fused"]) == (5_371_680, 4_815_264)


class TestMemory:
    def extraction_transient(self, model, fmap):
        grid = make_patch_grid(fmap.shape[2], fmap.shape[3], 2, 2)
        patches, peak = traced_peak(lambda: extract_patch_descriptors(fmap, grid, model.vlad, model.pca))
        assert patches.descriptors.shape == (grid.count, 512)
        return peak - patches.descriptors.nbytes

    def test_default_map_extraction_is_bounded(self, model, fmap):
        assert self.extraction_transient(model, fmap) <= PATCH_TRANSIENT_BOUND

    def test_transient_does_not_scale_with_the_grid(self, model):
        """A 60x80 map has four times the default windows (4661); the bytes held
        beyond the output stay within the default map's bound."""
        fmap = np.random.default_rng(60).standard_normal((1, 192, 60, 80)).astype(np.float32)
        assert self.extraction_transient(model, fmap) <= PATCH_TRANSIENT_BOUND

    def test_packing_holds_about_one_copy_of_the_model(self, model):
        packed, peak = traced_peak(lambda: pack_tensors(model_to_tensors(model), WEIGHTS_MAGIC))
        assert len(packed) == DEPLOY_BYTES
        assert peak <= 1.1 * len(packed)

    def test_image_load_holds_under_four_tensors(self, images):
        """load_image copies the pixels once out of the file's bytes, lets both go
        before the float32 cast, and normalizes one float64 copy of the pixels in
        place. With a new float64 image per step (scale, subtract, divide), a
        480x640 load traced 6.5x the tensor it returned; with the bytes and the
        pixels alive to the end, 3.5x."""
        x, peak = traced_peak(lambda: load_image(str(images[0])))
        assert x.shape == (1, 3, 480, 640) and x.dtype == np.float32
        assert peak <= 3.1 * x.nbytes

    def test_weights_save_copies_no_payload(self, model, tmp_path):
        path = tmp_path / "model.vprw"
        _, peak = traced_peak(lambda: save_weights(path, model))
        assert peak <= 0.05 * path.stat().st_size

    def test_weights_load_holds_about_one_copy_of_the_file(self, model, tmp_path):
        """Each payload is read once, straight into its array, and checked for
        non-finite values a block of rows at a time. A mask over the whole of
        the largest tensor (the projection) traced 1.08x the file."""
        path = tmp_path / "model.vprw"
        save_weights(path, model)
        _, peak = traced_peak(lambda: load_weights(path))
        assert peak <= 1.02 * path.stat().st_size

    def test_first_convolution_holds_one_band_beyond_its_output(self, model, images):
        """A band's float64 columns and products together fit BAND_BYTES. When
        the budget counted the columns alone, a 14.9 MB product buffer sat beside
        them and the traced peak was 38.0 MB."""
        x = tensor.as_tensor4(load_image(str(images[0])))  # contiguous, as backbone_forward hands it on
        out, peak = traced_peak(lambda: tensor.conv2d(x, model.backbone.fused[0]))
        assert out.shape == (1, 48, 240, 320)
        assert peak <= out.nbytes + tensor.BAND_BYTES + 1e6

    def test_band_halves_at_once_hold_what_whole_bands_hold(self, model, images, fmap, band_halves):
        """The calling thread allocates every band buffer and the pool thread writes
        into them, so halves at once trace the peak of whole bands, within 5%."""
        x = tensor.as_tensor4(load_image(str(images[0])))
        grid = make_patch_grid(fmap.shape[2], fmap.shape[3], 2, 2)
        runs = {
            "conv2d": lambda: tensor.conv2d(x, model.backbone.fused[0]),
            "patches": lambda: extract_patch_descriptors(fmap, grid, model.vlad, model.pca),
        }
        peaks = {}
        for at_once in (False, True):
            band_halves(at_once)
            peaks[at_once] = {name: traced_peak(run)[1] for name, run in runs.items()}
        for name in runs:
            assert peaks[True][name] <= 1.05 * peaks[False][name], name


@pytest.fixture(scope="module")
def patch_set(model, fmap):
    grid = make_patch_grid(fmap.shape[2], fmap.shape[3], 2, 2)
    return extract_patch_descriptors(fmap, grid, model.vlad, model.pca).descriptors


@pytest.fixture(scope="module")
def other_set(patch_set):
    x = np.random.default_rng(26).standard_normal(patch_set.shape)
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


@pytest.fixture(scope="module")
def enhanced(model, images, patch_set):
    """The enhanced sets of a self pair and of a pair of the two noise images, as
    the benchmark's queries pair with their candidates."""
    fmap = backbone_forward(load_image(str(images[1])), model.backbone, fused=True)
    grid = make_patch_grid(fmap.shape[2], fmap.shape[3], 2, 2)
    other = extract_patch_descriptors(fmap, grid, model.vlad, model.pca).descriptors
    return [matcher.enhance_descriptors(patch_set, d, model.matcher) for d in (patch_set, other)]


class TestScoreMatrixBands:
    """The banded float64 score matrix of default-size enhanced pairs."""

    def test_halves_give_the_bands_bits(self, enhanced, band_halves):
        for yq, yd in enhanced:
            results = []
            for at_once in (False, True):
                band_halves(at_once)
                results.append(matcher.score_matrix(yq, yd))
            assert_array_equal(results[1], results[0])

    def test_within_rounding_of_the_whole_product(self, enhanced):
        """Within 8 eps * sum_k |q_k d_k| of one whole float64 GEMM; measured: up to
        4.1 eps of it (8.9e-16) on the self pair."""
        for yq, yd in enhanced:
            q64, d64 = yq.astype(np.float64), yd.astype(np.float64)
            bound = 8 * np.finfo(np.float64).eps * (np.abs(q64) @ np.abs(d64).T)
            assert np.all(np.abs(matcher.score_matrix(yq, yd) - q64 @ d64.T) <= bound)

    def test_holds_its_output_and_one_float64_set(self, enhanced, band_halves):
        """The (1131, 1131) output, yd in float64 and a 128-row float64 band buffer
        for each half: 15.9 MB traced, halves at once or not. Casting both whole
        sets traced 19.5 MB."""
        yq, yd = enhanced[1]
        band_halves(True)
        scores, peak = traced_peak(lambda: matcher.score_matrix(yq, yd))
        assert scores.shape == (1131, 1131)
        assert peak <= 16.2e6


class TestRelaxedTransport:
    """Default-size pairs at reg 0.02, where the plain loop needs about 150
    iterations and stops at the default cap of 100 unconverged."""

    def test_converges_inside_the_cap_near_a_tight_reference(self, model, enhanced):
        """Measured: 51 and 52 iterations (the plain loop: 148 and 150), scores
        within 6.3e-10 of a tol-1e-12 reference."""
        for yq, yd in enhanced:
            scores = matcher.score_matrix(yq, yd)
            dustbin = model.matcher.dustbin_score
            got = matcher.sinkhorn_assign(scores, dustbin, reg=0.02)
            plain = matcher.sinkhorn_assign(scores, dustbin, reg=0.02, max_iters=1000, relax=False)
            want = matcher.sinkhorn_assign(scores, dustbin, reg=0.02, tol=1e-12, max_iters=10_000, relax=False)
            assert got.converged and plain.converged and got.iterations <= plain.iterations
            assert not matcher.sinkhorn_assign(scores, dustbin, reg=0.02, relax=False).converged
            assert abs(matcher.match_score(got) - matcher.match_score(want)) <= 1e-9


class TestPairMemory:
    """One default-size pair, 1131x512 float32 sets, at reg 0.02, where Sinkhorn
    absorbs its drifting duals."""

    def test_match_pair_lets_the_enhanced_sets_go(self, model, patch_set):
        """The enhanced sets go once their scores exist, and transport holds one
        (1132, 1132) array beside the scores: 35.5 MB traced when the sets, the
        scores, an augmented copy of them and the kernel were all alive."""
        assert patch_set.shape == (1131, 512) and patch_set.dtype == np.float32
        score, peak = traced_peak(lambda: matcher.match_pair(patch_set, patch_set, model.matcher, reg=0.02))
        assert 0.0 < score <= 1.0
        assert peak <= 27e6

    def test_sinkhorn_holds_one_plan_sized_array(self, model, patch_set):
        """2.0x the plan's bytes traced when an augmented copy of the scores lived
        beside the kernel."""
        scores = matcher.score_matrix(*matcher.enhance_descriptors(patch_set, patch_set, model.matcher))
        plan, peak = traced_peak(lambda: matcher.sinkhorn_assign(scores, model.matcher.dustbin_score, reg=0.02))
        assert plan.z.shape == (1132, 1132)
        assert peak <= 1.1 * plan.z.nbytes


class TestAttentionHalves:
    """Attention on one default-size float32 pair, with BLAS on one thread and
    two usable CPUs (halves at once) against one CPU (each step whole)."""

    def test_halves_give_the_whole_bits(self, model, patch_set, other_set, band_halves):
        runs = {
            **{f"layer {i}": partial(matcher.attention_forward, patch_set, other_set, layer)
               for i, layer in enumerate(model.matcher.layers)},
            "enhance": partial(matcher.enhance_descriptors, patch_set, other_set, model.matcher),
        }
        results = {}
        for at_once in (False, True):
            band_halves(at_once)
            results[at_once] = {name: run() for name, run in runs.items()}
        for name in runs:
            for got, want in zip(results[True][name], results[False][name]):
                assert got.dtype == np.float32, name
                assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("reg", [1.0, 0.02])
    def test_match_pair_keeps_its_score_and_transport(self, model, patch_set, other_set, band_halves, reg):
        scores = []
        for at_once in (False, True):
            band_halves(at_once)
            scores.append(matcher.match_pair(patch_set, other_set, model.matcher, reg=reg))
        whole, halves = scores
        assert (float(halves), halves.iterations, halves.converged) == (float(whole), whole.iterations, whole.converged)

    def test_halves_hold_what_the_whole_call_holds(self, model, patch_set, other_set, band_halves):
        """The calling thread allocates the projections, rho and the output, whose
        rows hold the query projection until the output overwrites them."""
        layer = model.matcher.layers[1]
        peaks = []
        for at_once in (False, True):
            band_halves(at_once)
            peaks.append(traced_peak(lambda: matcher.attention_forward(patch_set, other_set, layer))[1])
        assert peaks[1] <= peaks[0] + 2e6
