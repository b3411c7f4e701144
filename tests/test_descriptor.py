"""Residual aggregation, projection, and the dense patch grid."""

from __future__ import annotations

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (
    cholesky_qr3_rows,
    float64_projection,
    householder_rows,
    normalized_vlad_reference,
    patch_descriptors_loop,
    patch_placements,
    vlad_double_loop,
)
from vprkit import descriptor, model, tensor
from vprkit.descriptor import (
    PcaModel,
    VladParams,
    extract_patch_descriptors,
    feature_map_descriptors,
    global_descriptor,
    make_patch_grid,
    random_projection,
    random_vlad_params,
    soft_assign,
    vlad_aggregate,
    vlad_raw,
)
from vprkit.errors import DegenerateInputError, ShapeError
from vprkit.io_store import WEIGHTS_MAGIC, model_to_tensors, pack_tensors

SEED = 90210


class TestAssignments:
    def test_soft_rows_sum_to_one(self):
        rng = np.random.default_rng(SEED)
        p = random_vlad_params(dim=6, clusters=4, rng=rng)
        a = soft_assign(rng.standard_normal((9, 6)).astype(np.float32), p)
        assert a.shape == (9, 4)
        assert_allclose(a.sum(axis=1), np.ones(9), atol=1e-12)


def _codebook(centers: np.ndarray) -> VladParams:
    """Centers with a zero assignment map; the tests here pass assignments explicitly."""
    return VladParams(
        centers=centers,
        assign_weight=np.zeros_like(centers),
        assign_bias=np.zeros(centers.shape[0], dtype=np.float32),
    )


class TestVlad:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(25):
            n, d, k = rng.integers(1, 11), rng.integers(1, 9), rng.integers(1, 5)
            p = random_vlad_params(dim=int(d), clusters=int(k), rng=rng)
            x = rng.standard_normal((n, d)).astype(np.float32)
            a = soft_assign(x, p)
            assert_allclose(vlad_raw(x, a, p), vlad_double_loop(x, a, p.centers), atol=1e-10)

    def test_normalized_matches_reference(self):
        rng = np.random.default_rng(SEED + 3)
        p = random_vlad_params(dim=5, clusters=3, rng=rng)
        x = rng.standard_normal((8, 5)).astype(np.float32)
        a = soft_assign(x, p)
        got = vlad_aggregate(x, a, p)
        want = normalized_vlad_reference(vlad_double_loop(x, a, p.centers))
        assert got.values.shape == (15,)
        assert not got.pca_applied
        assert_allclose(got.values, want, atol=1e-6)

    def test_zero_residuals_give_zero_matrix(self):
        centers = np.array([[1.0, 2.0], [-3.0, 0.5]], dtype=np.float32)
        p = _codebook(centers)
        x = np.array([[1.0, 2.0], [-3.0, 0.5], [1.0, 2.0]], dtype=np.float32)
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # each row on its own center
        v = vlad_raw(x, a, p)
        assert_array_equal(v, np.zeros((2, 2)))

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(SEED + 4)
        p = random_vlad_params(dim=6, clusters=3, rng=rng)
        x = rng.standard_normal((10, 6)).astype(np.float32)
        perm = rng.permutation(10)
        a = vlad_aggregate(x, soft_assign(x, p), p).values
        b = vlad_aggregate(x[perm], soft_assign(x[perm], p), p).values
        assert_array_equal(a, b)

    def test_cluster_blocks_are_contiguous(self):
        # Build a raw matrix by hand and check the flattening order: the
        # descriptor must list all of cluster 0, then all of cluster 1.
        p = _codebook(np.zeros((2, 2), dtype=np.float32))
        x = np.array([[3.0, 4.0]], dtype=np.float32)
        a = np.array([[1.0, 0.0]])  # everything in cluster 0
        desc = vlad_aggregate(x, a, p).values
        assert_allclose(desc, [0.6, 0.8, 0.0, 0.0], atol=1e-7)

    def test_all_zero_descriptor_refused(self):
        p = _codebook(np.array([[1.0, 2.0]], dtype=np.float32))
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        with pytest.raises(DegenerateInputError):
            vlad_aggregate(x, np.array([[1.0]]), p)

    def test_assignment_shape_checked(self):
        rng = np.random.default_rng(SEED + 5)
        p = random_vlad_params(dim=3, clusters=2, rng=rng)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        for aggregate in (vlad_raw, vlad_aggregate):
            with pytest.raises(ShapeError):
                aggregate(x, np.ones((4, 3)), p)


class TestPca:
    def test_project_renormalizes(self):
        rng = np.random.default_rng(SEED + 10)
        m = random_projection(in_dim=8, out_dim=4, rng=rng)
        rows = rng.standard_normal((2, 8)).astype(np.float32) * 7.0
        out = descriptor._project_rows(rows, m)
        assert out.shape == (2, 4)
        assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_project_zero_refused(self):
        m = random_projection(in_dim=4, out_dim=2, rng=np.random.default_rng(3))
        with pytest.raises(DegenerateInputError):
            descriptor._project_rows(np.zeros((1, 4), dtype=np.float32), m)

    def test_random_projection_deterministic(self):
        a = random_projection(6, 3, np.random.default_rng(12))
        b = random_projection(6, 3, np.random.default_rng(12))
        assert_array_equal(a.projection, b.projection)
        assert_allclose(a.projection @ a.projection.T, np.eye(3), atol=1e-7)


def _float32_ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise distance in float32 units in the last place between a and b."""

    def line(v: np.ndarray) -> np.ndarray:  # float32 bit patterns, made monotonic in the value
        i = np.asarray(v, dtype=np.float32).view(np.int32).astype(np.int64)
        return np.where(i < 0, -(i & 0x7FFFFFFF), i)

    return np.abs(line(a) - line(b))


def _with_singular_values(n: int, kappa: float, seed: int) -> np.ndarray:
    """A square (n, n) matrix whose singular values are log-spaced from 1 down to 1/kappa."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.logspace(0, -np.log10(kappa), n)) @ v.T


class TestOrthonormalRows:
    """Shifted CholeskyQR3 against the Householder QR it replaced (oracles.householder_rows)."""

    # sha256 of the packed tensors of random_model(0), as the Householder QR built it.
    DEFAULT_MODEL_SHA256 = "41cba8f856ca6e26190818ca28181772337d0be7c0a740dc25613ab297913652"

    def test_default_model_unchanged(self, monkeypatch):
        draws = []

        def recording(in_dim, out_dim, rng):
            draws.append((in_dim, out_dim, rng.bit_generator.state))
            return random_projection(in_dim, out_dim, rng)

        monkeypatch.setattr(model, "random_projection", recording)
        built = model.random_model(0)
        (in_dim, out_dim, state), = draws
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        assert_array_equal(built.pca.projection, householder_rows(rng.standard_normal((in_dim, out_dim))))
        packed = pack_tensors(model_to_tensors(built), WEIGHTS_MAGIC)
        assert hashlib.sha256(packed).hexdigest() == self.DEFAULT_MODEL_SHA256

    @pytest.mark.parametrize(
        "in_dim, out_dim", [(8, 4), (6, 3), (15, 6), (32, 16), (64, 16), (256, 16), (128, 32), (16, 16), (64, 64)]
    )
    def test_within_one_ulp_of_householder(self, in_dim, out_dim):
        for seed in range(30):
            got = random_projection(in_dim, out_dim, np.random.default_rng(seed)).projection
            want = householder_rows(np.random.default_rng(seed).standard_normal((in_dim, out_dim)))
            assert _float32_ulps(got, want).max() <= 1, seed

    @pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12])
    def test_orthonormal_when_ill_conditioned(self, kappa):
        q = descriptor._orthonormal_rows(_with_singular_values(64, kappa, SEED + 60))
        assert np.abs(q @ q.T - np.eye(64)).max() <= 1e-14

    def test_zero_row_refused(self):
        x = np.random.default_rng(SEED + 61).standard_normal((16, 40))
        x[5] = 0.0
        with pytest.raises(DegenerateInputError, match="16x40"):
            descriptor._orthonormal_rows(x)

    @pytest.mark.parametrize("in_dim, out_dim", [(12288, 512), (3000, 200)])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_bands_give_the_whole_passes_bits(self, in_dim, out_dim, order, band_halves):
        """The in-place banded passes, whole and in halves at once, against the
        whole-matrix passes, on the draw's transpose (F-ordered, as
        random_projection hands it over) and on a C-ordered copy; 3000 columns
        end in a 440-column band."""
        draw = np.random.default_rng(SEED + 62).standard_normal((in_dim, out_dim)).T
        x = np.asarray(draw, order=order)
        want = cholesky_qr3_rows(x)
        for at_once in (False, True):
            band_halves(at_once)
            got = descriptor._orthonormal_rows(x.copy(order="K"))
            assert got.dtype == np.float64 and got.shape == (out_dim, in_dim)
            assert_array_equal(got, want)

    def test_projection_is_the_rounded_rows(self):
        """random_projection's float32 rows, written by the last pass, are the
        float64 rows cast."""
        rows = random_projection(3000, 200, np.random.default_rng(SEED + 63)).projection
        want = cholesky_qr3_rows(np.random.default_rng(SEED + 63).standard_normal((3000, 200)).T)
        assert rows.dtype == np.float32 and rows.flags.c_contiguous
        assert_array_equal(rows, want.astype(np.float32))

    def test_refusal_after_a_pass_in_halves_reaches_the_caller(self, band_halves, monkeypatch):
        """A zero row passes the shifted first pass, whose bands run in halves at
        once, one on a pool thread, and is refused by the second before its bands
        run; the caller gets that refusal, and the pool's thread has ended."""
        x = np.random.default_rng(SEED + 64).standard_normal((16, 3000))
        x[5] = 0.0
        threads = []
        split_halves = descriptor.split_halves

        def recording(fn, n, least):
            def run(lo, hi):
                threads.append(threading.current_thread().name)
                fn(lo, hi)

            split_halves(run, n, least)

        monkeypatch.setattr(descriptor, "split_halves", recording)
        band_halves(True)
        before = set(threading.enumerate())
        with pytest.raises(DegenerateInputError, match="16x3000"):
            descriptor._orthonormal_rows(x)
        assert sorted(name.startswith("vprkit-band") for name in threads) == [False, True]
        assert set(threading.enumerate()) == before

    def test_default_shape_peak_memory(self):
        """The 12288x512 default projection holds its float64 draw, its float32 rows
        and a few 2 MB temporaries, about 83 MB traced; a new float64 matrix per
        pass and a float32 cast at the end peaked at 107 MB, and the Householder
        QR at 154 MB."""
        tracemalloc.start()
        try:
            random_projection(12288, 512, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 90e6


class TestPatchGrid:
    @given(
        height=st.integers(1, 20),
        width=st.integers(1, 20),
        d=st.integers(1, 5),
        stride=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_count_matches_enumeration(self, height, width, d, stride):
        spots = patch_placements(height, width, d, stride)
        if not spots:
            with pytest.raises(ShapeError):
                make_patch_grid(height, width, d, d, stride)
            return
        grid = make_patch_grid(height, width, d, d, stride)
        assert grid.count == len(spots)

    def test_table_case(self):
        grid = make_patch_grid(height=30, width=40, d_x=2, d_y=2, stride=1)
        assert (grid.rows, grid.cols, grid.count) == (29, 39, 1131)


class TestPatchDescriptors:
    def test_window_equals_direct_aggregation(self):
        rng = np.random.default_rng(SEED + 11)
        p = random_vlad_params(dim=4, clusters=3, rng=rng)
        fmap = rng.standard_normal((1, 4, 5, 6)).astype(np.float32)
        grid = make_patch_grid(5, 6, 2, 2, stride=2)
        got = extract_patch_descriptors(fmap, grid, p, None)
        assert got.descriptors.shape == (grid.count, 12)
        x = feature_map_descriptors(fmap)
        idx = np.arange(30).reshape(5, 6)
        k = 0
        for r in range(grid.rows):
            for c in range(grid.cols):
                window = idx[r * 2 : r * 2 + 2, c * 2 : c * 2 + 2].reshape(-1)
                sub = x[window]
                want = vlad_aggregate(sub, soft_assign(sub, p), p).values
                assert_allclose(got.descriptors[k], want, atol=1e-6)
                k += 1

    def test_projection_applied_per_patch(self):
        rng = np.random.default_rng(SEED + 12)
        p = random_vlad_params(dim=3, clusters=2, rng=rng)
        proj = random_projection(6, 4, rng)
        fmap = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        grid = make_patch_grid(4, 4, 2, 2)
        got = extract_patch_descriptors(fmap, grid, p, proj)
        bare = extract_patch_descriptors(fmap, grid, p, None)
        assert got.descriptors.shape == (9, 4)
        assert_allclose(got.descriptors, float64_projection(bare.descriptors, proj), atol=1e-6)

    def test_grid_mismatch_refused(self):
        rng = np.random.default_rng(SEED + 13)
        p = random_vlad_params(dim=3, clusters=2, rng=rng)
        fmap = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        with pytest.raises(ShapeError):
            extract_patch_descriptors(fmap, make_patch_grid(5, 5, 2, 2), p, None)

    def test_global_descriptor_marks_projection(self):
        rng = np.random.default_rng(SEED + 14)
        p = random_vlad_params(dim=3, clusters=2, rng=rng)
        fmap = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        assert not global_descriptor(fmap, p, None).pca_applied
        proj = random_projection(6, 4, rng)
        out = global_descriptor(fmap, p, proj)
        assert out.pca_applied and out.dim == 4


def _centred_projection(rng: np.random.Generator) -> PcaModel:
    """A 15 -> 6 orthonormal projection with a small nonzero mean."""
    return PcaModel(
        projection=random_projection(15, 6, rng).projection,
        mean=(0.01 * rng.standard_normal(15)).astype(np.float32),
    )


class TestPatchDescriptorsAgainstLoop:
    """The batched VLAD head, for patches and for the whole map, against the per-window loop it replaced."""

    @pytest.mark.parametrize("d_x, d_y", [(1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (4, 2), (2, 3)])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("projected", [False, True])
    def test_matches_loop(self, d_x, d_y, stride, projected):
        rng = np.random.default_rng(SEED + 20)
        p = random_vlad_params(dim=5, clusters=3, rng=rng)
        fmap = rng.standard_normal((1, 5, 9, 11)).astype(np.float32)
        pca = _centred_projection(rng) if projected else None
        grid = make_patch_grid(9, 11, d_x, d_y, stride=stride)
        got = extract_patch_descriptors(fmap, grid, p, pca)
        want = patch_descriptors_loop(
            fmap,
            d_x,
            d_y,
            stride,
            p.centers,
            p.assign_weight,
            p.assign_bias,
            None if pca is None else pca.projection,
            None if pca is None else pca.mean,
        )
        assert got.descriptors.shape == want.shape == (grid.count, 6 if projected else 15)
        assert_allclose(got.descriptors, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("projected", [False, True])
    def test_global_is_the_whole_map_window(self, projected):
        rng = np.random.default_rng(SEED + 22)
        p = random_vlad_params(dim=5, clusters=3, rng=rng)
        fmap = rng.standard_normal((1, 5, 9, 11)).astype(np.float32)
        pca = _centred_projection(rng) if projected else None
        got = global_descriptor(fmap, p, pca)
        want = patch_descriptors_loop(
            fmap,
            11,
            9,
            1,
            p.centers,
            p.assign_weight,
            p.assign_bias,
            None if pca is None else pca.projection,
            None if pca is None else pca.mean,
        )
        assert want.shape == (1, got.dim) == (1, 6 if projected else 15)
        assert got.pca_applied == projected
        assert_allclose(got.values, want[0], rtol=0, atol=1e-6)

    def test_zero_patch_refused(self):
        # With every center at the origin a window of zero features has zero residuals.
        rng = np.random.default_rng(SEED + 21)
        p = VladParams(
            centers=np.zeros((2, 3), dtype=np.float32),
            assign_weight=rng.standard_normal((2, 3)).astype(np.float32),
            assign_bias=rng.standard_normal(2).astype(np.float32),
        )
        fmap = rng.standard_normal((1, 3, 4, 6)).astype(np.float32)
        fmap[:, :, 2:4, 4:6] = 0.0
        with pytest.raises(DegenerateInputError, match="identically zero"):
            extract_patch_descriptors(fmap, make_patch_grid(4, 6, 2, 2, stride=2), p, None)


class TestHeadBands:
    @pytest.mark.parametrize("projected", [False, True])
    def test_band_size_does_not_change_the_rows(self, projected, monkeypatch):
        """One window per band, three (with a shorter last band), and one band over
        everything give the same bits, for the grid's windows and for one whole-map window."""
        rng = np.random.default_rng(SEED + 23)
        p = random_vlad_params(dim=5, clusters=3, rng=rng)
        fmap = rng.standard_normal((1, 5, 9, 11)).astype(np.float32)
        pca = _centred_projection(rng) if projected else None
        x = feature_map_descriptors(fmap)
        a = soft_assign(x, p)
        idx = np.arange(99).reshape(9, 11)
        windows = np.lib.stride_tricks.sliding_window_view(idx, (2, 2)).reshape(-1, 4)
        whole_map = idx.reshape(1, -1)
        got = {}
        for band_bytes in (1 << 40, 1, 3 * 3 * 5 * 8):
            monkeypatch.setattr(tensor, "BAND_BYTES", band_bytes)
            got[band_bytes] = [descriptor._vlad_head(x, a, w, p, pca) for w in (windows, whole_map)]
        for rows, whole in got.values():
            assert rows.shape == (80, 6 if projected else 15) and whole.shape[0] == 1
            assert rows.dtype == whole.dtype == np.float32
            assert_array_equal(rows, got[1 << 40][0])
            assert_array_equal(whole, got[1 << 40][1])

    @pytest.mark.parametrize("projected", [False, True])
    def test_halves_give_the_rows_of_the_whole(self, projected, band_halves, monkeypatch):
        """Three-window bands (a shorter last one) and twelve-row groups, whole and in
        halves at once."""
        rng = np.random.default_rng(SEED + 25)
        p = random_vlad_params(dim=5, clusters=3, rng=rng)
        x = feature_map_descriptors(rng.standard_normal((1, 5, 9, 11)).astype(np.float32))
        a = soft_assign(x, p)
        windows = np.lib.stride_tricks.sliding_window_view(np.arange(99).reshape(9, 11), (2, 2)).reshape(-1, 4)
        pca = _centred_projection(rng) if projected else None
        monkeypatch.setattr(tensor, "BAND_BYTES", 3 * 3 * 5 * 8)
        got = {}
        for at_once in (False, True):
            band_halves(at_once)
            got[at_once] = descriptor._vlad_head(x, a, windows, p, pca)
        assert_array_equal(got[True], got[False])

    def test_worker_error_reaches_the_caller(self, band_halves, monkeypatch):
        """A zero window in the second half of a band raises on the pool thread; the
        caller gets that DegenerateInputError, and the pool's thread has ended."""
        p = _codebook(np.array([[1.0, 2.0]], dtype=np.float32))
        x = np.array([[0.0, 0.0], [3.0, 3.0], [1.0, 2.0], [1.0, 2.0]], dtype=np.float32)
        windows = np.array([[0, 0], [1, 1], [2, 3]])
        threads = {}
        residuals = descriptor.window_residuals

        def recording(x, a, w, *args, **kwargs):
            threads[tuple(map(tuple, w))] = threading.current_thread().name
            return residuals(x, a, w, *args, **kwargs)

        monkeypatch.setattr(descriptor, "window_residuals", recording)
        band_halves(True)
        before = set(threading.enumerate())
        with pytest.raises(DegenerateInputError, match="identically zero descriptor"):
            descriptor._vlad_head(x, np.ones((4, 1)), windows, p, None)
        assert threads[((1, 1), (2, 3))].startswith("vprkit-band")
        assert not threads[((0, 0),)].startswith("vprkit-band")
        assert set(threading.enumerate()) == before

    def test_unprojected_rows_are_not_copied(self, monkeypatch):
        rng = np.random.default_rng(SEED + 24)
        p = random_vlad_params(dim=5, clusters=3, rng=rng)
        fmap = rng.standard_normal((1, 5, 4, 4)).astype(np.float32)
        rows = []
        head = descriptor._vlad_head

        def recording(*args):
            rows.append(head(*args))
            return rows[-1]

        monkeypatch.setattr(descriptor, "_vlad_head", recording)
        got = extract_patch_descriptors(fmap, make_patch_grid(4, 4, 2, 2), p, None)
        assert got.descriptors is rows[0]


class TestFeatureMapLayout:
    def test_row_major_positions(self):
        fmap = np.arange(2 * 2 * 3, dtype=np.float32).reshape(1, 2, 2, 3)
        rows = feature_map_descriptors(fmap)
        assert rows.shape == (6, 2)
        assert_array_equal(rows[0], [fmap[0, 0, 0, 0], fmap[0, 1, 0, 0]])
        assert_array_equal(rows[1], [fmap[0, 0, 0, 1], fmap[0, 1, 0, 1]])
        assert_array_equal(rows[3], [fmap[0, 0, 1, 0], fmap[0, 1, 1, 0]])

    def test_batch_must_be_one(self):
        with pytest.raises(ShapeError):
            feature_map_descriptors(np.zeros((2, 3, 4, 4), dtype=np.float32))
