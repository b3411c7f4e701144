"""Numeric substrate: convolution, normalization, resizing."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import conv2d_im2col, conv2d_loops
from vprkit import tensor
from vprkit.errors import ShapeError
from vprkit.tensor import (
    BatchNormParams,
    ConvParams,
    as_tensor4,
    batchnorm_infer,
    bilinear_resize,
    conv2d,
    conv_output_size,
    neutral_batchnorm,
    relu,
    softmax_rows,
)

SEED = 20240817


def random_conv(rng, cin, cout, k, stride, padding):
    return ConvParams(
        weight=rng.standard_normal((cout, cin, k, k)).astype(np.float32),
        bias=rng.standard_normal(cout).astype(np.float32),
        stride=stride,
        padding=padding,
    )


class TestConv2d:
    def test_matches_direct_loops(self):
        rng = np.random.default_rng(SEED)
        for k, stride, padding in [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0), (5, 1, 2)]:
            x = rng.standard_normal((2, 3, 9, 7)).astype(np.float32)
            p = random_conv(rng, 3, 4, k, stride, padding)
            got = conv2d(x, p)
            want = conv2d_loops(x, p.weight.astype(np.float64), p.bias.astype(np.float64), stride, padding)
            assert got.dtype == np.float32
            assert_allclose(got, want, atol=1e-5)

    def test_output_shape_follows_formula(self):
        rng = np.random.default_rng(SEED + 1)
        x = rng.standard_normal((1, 2, 11, 13)).astype(np.float32)
        p = random_conv(rng, 2, 5, 3, 2, 1)
        out = conv2d(x, p)
        assert out.shape == (1, 5, conv_output_size(11, 3, 2, 1), conv_output_size(13, 3, 2, 1))

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(SEED + 2)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        p = random_conv(rng, 3, 2, 3, 1, 1)
        with pytest.raises(ShapeError):
            conv2d(x, p)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_matches_im2col(self, k, stride, padding, batch):
        rng = np.random.default_rng(SEED + 7)
        x = rng.standard_normal((batch, 3, 9, 7)).astype(np.float32)
        p = random_conv(rng, 3, 5, k, stride, padding)
        got = conv2d(x, p)
        want = conv2d_im2col(x, p.weight, p.bias, stride, padding)
        assert got.shape == want.shape and got.dtype == np.float32 and got.flags.c_contiguous
        assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_band_size_does_not_change_the_result(self, k, stride, padding, batch, monkeypatch):
        """One output row per band, two and three rows (with a shorter last band), and
        one band over everything give the same bits."""
        rng = np.random.default_rng(SEED + 9)
        x = rng.standard_normal((batch, 3, 9, 7)).astype(np.float32)
        p = random_conv(rng, 3, 5, k, stride, padding)
        monkeypatch.setattr(tensor, "BAND_BYTES", 1 << 40)
        whole = conv2d(x, p)
        row_bytes = 3 * k * k * conv_output_size(7, k, stride, padding) * 8
        for band_bytes in (1, 2 * row_bytes, 3 * row_bytes):
            monkeypatch.setattr(tensor, "BAND_BYTES", band_bytes)
            assert_array_equal(conv2d(x, p), whole)

    def test_tap_entirely_in_padding(self):
        # A 1-pixel-high input padded by 2 under a 3x3 kernel at stride 3: the
        # outer kernel rows never reach the input.
        rng = np.random.default_rng(SEED + 8)
        x = rng.standard_normal((2, 2, 1, 5)).astype(np.float32)
        p = random_conv(rng, 2, 3, 3, 3, 2)
        got = conv2d(x, p)
        assert_allclose(got, conv2d_im2col(x, p.weight, p.bias, 3, 2), rtol=0, atol=1e-6)
        assert_allclose(got, conv2d_loops(x, p.weight, p.bias, 3, 2), atol=1e-5)

    def test_identity_kernel_is_identity(self):
        x = np.arange(2 * 3 * 4 * 4, dtype=np.float32).reshape(2, 3, 4, 4)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        p = ConvParams(weight=w, bias=np.zeros(3, dtype=np.float32), stride=1, padding=1)
        assert_array_equal(conv2d(x, p), x)


class TestBandWorkers:
    """A band's halves, run at once, give the bits of the whole band."""

    @staticmethod
    def gemm_columns(monkeypatch):
        """The column count of every np.matmul call from now on, as a list."""
        seen = []
        matmul = np.matmul

        def recording(a, b, out):
            seen.append(b.shape[1])
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recording)
        return seen

    @staticmethod
    def halves_and_whole(x, p, band_halves):
        got = {}
        for at_once in (False, True):
            band_halves(at_once)
            got[at_once] = conv2d(x, p)
        return got[True], got[False]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("height", [3, 11], ids=["one-or-two-rows", "rows-across-bands"])
    def test_conv2d_halves_give_the_whole_bands_bits(self, k, stride, padding, height, band_halves, monkeypatch):
        """At height 3 the output has one or two rows; at height 11 the two-row bands
        leave a shorter last band. At widths 13 and 37 the output rows are odd,
        and no multiple of 8, wide."""
        rng = np.random.default_rng(SEED + 11)
        for width in (9, 13, 37):
            x = rng.standard_normal((2, 6, height, width)).astype(np.float32)
            p = random_conv(rng, 6, 7, k, stride, padding)
            ow = conv_output_size(width, k, stride, padding)
            monkeypatch.setattr(tensor, "BAND_BYTES", 2 * (6 * k * k + 7) * ow * 8)
            halves, whole = self.halves_and_whole(x, p, band_halves)
            assert whole.shape[2:] == (conv_output_size(height, k, stride, padding), ow)
            assert_array_equal(halves, whole)

    @pytest.mark.parametrize("height", [4, 5, 6, 7, 13])
    @pytest.mark.parametrize("band_rows", [1, 2, 4, None], ids=["1-row", "2-row", "4-row", "whole"])
    def test_conv2d_halves_of_a_one_column_output(self, height, band_rows, band_halves, monkeypatch):
        """A one-column output: each half and each band must hold two rows to be a
        GEMM, not a matrix-vector product, at every band budget. Two or three rows
        of output run whole, since halves of three would leave one row in the first."""
        rng = np.random.default_rng(SEED + 13)
        x = rng.standard_normal((1, 5, height, 3)).astype(np.float32)
        p = random_conv(rng, 5, 6, 3, 1, 0)
        if band_rows is not None:
            monkeypatch.setattr(tensor, "BAND_BYTES", band_rows * (5 * 9 + 6) * 8)
        columns = self.gemm_columns(monkeypatch)
        halves, whole = self.halves_and_whole(x, p, band_halves)
        assert whole.shape == (1, 6, height - 2, 1)
        assert min(columns) >= 2
        assert_array_equal(halves, whole)

    def test_conv2d_split_inside_a_band(self, band_halves, monkeypatch):
        """Eleven output rows in four-row bands run whole as bands of 3, 4 and 4 rows;
        the halves split at row 5, inside the second band, and run the rows in
        two-row bands of their own."""
        rng = np.random.default_rng(SEED + 14)
        x = rng.standard_normal((1, 4, 11, 13)).astype(np.float32)
        p = random_conv(rng, 4, 5, 3, 1, 1)
        monkeypatch.setattr(tensor, "BAND_BYTES", 4 * (4 * 9 + 5) * 13 * 8)
        columns = self.gemm_columns(monkeypatch)
        halves, whole = self.halves_and_whole(x, p, band_halves)
        assert sorted(n // 13 for n in columns) == [1, 2, 2, 2, 2, 2, 3, 4, 4]
        assert_array_equal(halves, whole)

    def test_conv2d_halves_on_small_shapes(self, band_halves, monkeypatch):
        """A seeded sweep of 50 small convolutions (1 to 24 channels each way, 1 to 40
        pixels each way, kernel 1 or 3, stride 1 or 2, padding 0 or 1, batch 1 or
        2), each as one band run whole and in halves at once."""
        rng = np.random.default_rng(SEED + 15)
        monkeypatch.setattr(tensor, "BAND_BYTES", 1 << 40)
        for _ in range(50):
            k, stride, padding = int(rng.choice([1, 3])), int(rng.integers(1, 3)), int(rng.integers(0, 2))
            h, w = (int(v) for v in rng.integers(max(1, k - 2 * padding), 41, size=2))
            cin, cout, batch = int(rng.integers(1, 25)), int(rng.integers(1, 25)), int(rng.integers(1, 3))
            x = rng.standard_normal((batch, cin, h, w)).astype(np.float32)
            p = random_conv(rng, cin, cout, k, stride, padding)
            halves, whole = self.halves_and_whole(x, p, band_halves)
            assert_array_equal(halves, whole, err_msg=f"{x.shape} {p.weight.shape} stride {stride} padding {padding}")

    @pytest.mark.parametrize("channels", [48, 96, 192])
    def test_conv2d_halves_give_the_whole_bands_bits_on_deep_layers(self, channels, band_halves):
        """3x3 layers of the default backbone's widths on a 30x40 map, at the default
        band: GEMMs 432 to 1728 deep, halved into 24 to 96 output channels. The
        interpreter switches threads every microsecond, so a half written twice or
        not at all would show."""
        rng = np.random.default_rng(SEED + 12)
        x = rng.standard_normal((1, channels, 30, 40)).astype(np.float32)
        p = random_conv(rng, channels, channels, 3, 1, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        got = {}
        try:
            for at_once in (False, True):
                band_halves(at_once)
                got[at_once] = conv2d(x, p)
        finally:
            sys.setswitchinterval(interval)
        assert_array_equal(got[True], got[False])

    def test_split_runs_halves_at_once_or_the_whole_and_stops_its_thread(self, band_halves):
        before = set(threading.enumerate())
        for at_once, ranges in ((False, [(0, 3), (0, 11)]), (True, [(0, 3), (0, 5), (5, 11)])):
            band_halves(at_once)
            seen = []

            def record(lo, hi):
                seen.append((lo, hi, threading.current_thread().name))

            tensor.split_halves(record, 11, 1)
            tensor.split_halves(record, 3, 2)
            assert sorted((lo, hi) for lo, hi, _ in seen) == ranges
            assert {name.startswith("vprkit-band") for *_, name in seen} == {False, at_once}
            assert set(threading.enumerate()) == before

    @pytest.mark.parametrize(
        "env, want",
        [
            ({}, 4),
            ({"OMP_NUM_THREADS": "2"}, 2),
            ({"OMP_NUM_THREADS": "2", "GOTO_NUM_THREADS": "3"}, 3),
            ({"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "4,2"}, 4),
            ({"OPENBLAS_NUM_THREADS": "16"}, 4),
        ],
    )
    def test_blas_threads_read_as_openblas_reads_them(self, env, want, monkeypatch):
        """Unset, zero or unparsable counts fall through; none exceeds the usable CPUs."""
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(tensor, "usable_cpus", lambda: 4)
        assert tensor.blas_threads() == want

    @pytest.mark.parametrize(
        "files, cpus",
        [
            ({}, float("inf")),
            ({"cpu.max": "max 100000\n"}, float("inf")),
            ({"cpu.max": "150000 100000\n"}, 1.5),
            ({"cpu.max": "200000 100000\n"}, 2.0),
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, float("inf")),
            ({"cpu/cpu.cfs_quota_us": "150000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1.5),
            ({"cpu/cpu.cfs_quota_us": "50000\n"}, float("inf")),
        ],
        ids=["none", "v2-max", "v2-1.5", "v2-2", "v1-unset", "v1-1.5", "v1-no-period"],
    )
    def test_cgroup_quota_read_as_v2_then_v1(self, files, cpus, tmp_path, monkeypatch):
        cgroup_files(tmp_path, files, monkeypatch)
        assert tensor.quota_cpus() == cpus

    @pytest.mark.parametrize(
        "files, at_once",
        [
            ({"cpu.max": "150000 100000\n"}, False),
            ({"cpu/cpu.cfs_quota_us": "150000\n", "cpu/cpu.cfs_period_us": "100000\n"}, False),
            ({"cpu.max": "max 100000\n"}, True),
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, True),
        ],
        ids=["v2-1.5", "v1-1.5", "v2-max", "v1-unset"],
    )
    def test_halves_only_under_a_quota_of_two_cpus(self, files, at_once, tmp_path, monkeypatch):
        """A 1.5-CPU quota runs each step whole on the calling thread, with two CPUs
        in the mask and BLAS on one thread; no quota changes nothing. BLAS's own
        count still follows the mask, as OpenBLAS's does."""
        cgroup_files(tmp_path, files, monkeypatch)
        monkeypatch.setattr(tensor, "usable_cpus", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        seen = []
        tensor.split_halves(lambda lo, hi: seen.append((lo, hi, threading.current_thread().name)), 8, 1)
        assert sorted((lo, hi) for lo, hi, _ in seen) == ([(0, 4), (4, 8)] if at_once else [(0, 8)])
        assert {name.startswith("vprkit-band") for *_, name in seen} == ({False, True} if at_once else {False})
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        for name in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        assert tensor.blas_threads() == 2

    def test_no_halves_beside_a_multithreaded_blas(self, monkeypatch):
        """With BLAS on two threads of two CPUs, the calling thread runs the whole."""
        monkeypatch.setattr(tensor, "usable_cpus", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        seen = []
        tensor.split_halves(lambda lo, hi: seen.append((lo, hi, threading.current_thread().name)), 8, 1)
        assert seen == [(0, 8, threading.current_thread().name)]

    def test_each_call_follows_the_setting_it_finds(self, band_halves):
        """The halves decision is made per call: a switch between two calls moves
        the second one, in either direction, and no pool thread outlives a call."""
        before = set(threading.enumerate())
        for first, second in ((True, False), (False, True)):
            names = []
            for at_once in (first, second):
                band_halves(at_once)
                seen = []
                tensor.split_halves(lambda lo, hi: seen.append(threading.current_thread().name), 8, 1)
                names.append(sorted(name.startswith("vprkit-band") for name in seen))
                assert set(threading.enumerate()) == before
            assert names == [[False, True] if at_once else [False] for at_once in (first, second)]

    def test_first_error_reaches_the_caller(self, band_halves):
        """An error in either half is raised to the caller after both halves are
        done; when both raise, the calling thread's half wins."""
        band_halves(True)
        done = []

        def failing(bad):
            def fn(lo, hi):
                done.append(lo)
                if lo in bad:
                    raise ValueError(f"half at {lo}")

            return fn

        for bad, want in (({4}, "half at 4"), ({0}, "half at 0"), ({0, 4}, "half at 0")):
            done.clear()
            with pytest.raises(ValueError, match=want):
                tensor.split_halves(failing(bad), 8, 1)
            assert sorted(done) == [0, 4]


def cgroup_files(root, files, monkeypatch):
    """Write {relative path: text} under root and point tensor's cgroup reads there."""
    for name, text in files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    monkeypatch.setattr(tensor, "CGROUP_ROOT", root)


class TestConvOutputSize:
    @given(
        size=st.integers(1, 40),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_valid_placements(self, size, kernel, stride, padding):
        padded = size + 2 * padding
        if padded < kernel:
            return
        count = 0
        pos = 0
        while pos + kernel <= padded:
            count += 1
            pos += stride
        assert conv_output_size(size, kernel, stride, padding) == count


class TestBatchNorm:
    def test_matches_formula(self):
        rng = np.random.default_rng(SEED + 3)
        x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
        bn = BatchNormParams(
            gamma=rng.standard_normal(4).astype(np.float32),
            beta=rng.standard_normal(4).astype(np.float32),
            running_mean=rng.standard_normal(4).astype(np.float32),
            running_var=rng.uniform(0.2, 2.0, 4).astype(np.float32),
            eps=1e-5,
        )
        got = batchnorm_infer(x, bn)
        g = bn.gamma.astype(np.float64)[None, :, None, None]
        b = bn.beta.astype(np.float64)[None, :, None, None]
        mu = bn.running_mean.astype(np.float64)[None, :, None, None]
        var = bn.running_var.astype(np.float64)[None, :, None, None]
        want = (x.astype(np.float64) - mu) / np.sqrt(var + bn.eps) * g + b
        assert_allclose(got, want, atol=1e-6)

    def test_neutral_is_near_identity(self):
        x = np.random.default_rng(SEED + 4).standard_normal((1, 3, 4, 4)).astype(np.float32)
        out = batchnorm_infer(x, neutral_batchnorm(3))
        assert_allclose(out, x, rtol=1e-4, atol=1e-6)

    def test_negative_variance_refused(self):
        with pytest.raises(ShapeError):
            BatchNormParams(
                gamma=np.ones(2, np.float32),
                beta=np.zeros(2, np.float32),
                running_mean=np.zeros(2, np.float32),
                running_var=np.array([1.0, -0.5], np.float32),
                eps=1e-5,
            )


class TestSmallOps:
    def test_relu_clamps_negatives(self):
        x = np.array([[-1.5, 0.0, 2.5]], dtype=np.float32).reshape(1, 1, 1, 3)
        assert_array_equal(relu(x), np.array([[0.0, 0.0, 2.5]], dtype=np.float32).reshape(1, 1, 1, 3))

    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        scale=st.floats(0.1, 50.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_sum_to_one(self, rows, cols, scale, seed):
        rng = np.random.default_rng(seed)
        s = softmax_rows(rng.standard_normal((rows, cols)) * scale)
        assert np.all(s >= 0)
        assert_allclose(s.sum(axis=1), np.ones(rows), atol=1e-12)

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(SEED + 5)
        x = rng.standard_normal((3, 5))
        assert_allclose(softmax_rows(x), softmax_rows(x + 123.0), atol=1e-12)

    def test_as_tensor4_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            as_tensor4(np.ones((3, 4, 5), dtype=np.float32))


class TestBilinearResize:
    def test_same_size_is_copy(self):
        x = np.random.default_rng(SEED + 6).standard_normal((1, 2, 5, 7)).astype(np.float32)
        assert_array_equal(bilinear_resize(x, 5, 7), x)

    def test_constant_image_stays_constant(self):
        x = np.full((1, 1, 4, 4), 3.25, dtype=np.float32)
        assert_allclose(bilinear_resize(x, 9, 5), np.full((1, 1, 9, 5), 3.25), atol=1e-6)

    def test_axis_ramp_preserved(self):
        # A linear ramp along one axis stays linear under half-pixel sampling.
        ramp = np.arange(8, dtype=np.float32)
        x = np.tile(ramp, (1, 1, 8, 1)).reshape(1, 1, 8, 8)
        out = bilinear_resize(x, 8, 4)
        expect = np.array([0.5, 2.5, 4.5, 6.5], dtype=np.float32)
        for row in range(8):
            assert_allclose(out[0, 0, row], expect, atol=1e-6)
