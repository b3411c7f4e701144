"""Attention enhancement, transport assignment, loss, and its gradient."""

from __future__ import annotations

import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import central_difference, sinkhorn_linear, sinkhorn_log
from vprkit.errors import EmptyGroundTruthWarning, ShapeError
from vprkit import matcher
from vprkit.model import random_model
from vprkit.pipeline import ExtractionSettings, extract_from_tensor
from vprkit.matcher import (
    AssignmentMatrix,
    AttentionLayer,
    GroundTruthMatches,
    MatcherParams,
    PairScore,
    attention_forward,
    enhance_descriptors,
    loss_gradient,
    match_pair,
    match_score,
    nll_loss,
    nll_loss_from_scores,
    random_matcher_params,
    score_matrix,
    sinkhorn_assign,
)

SEED = 4242


def random_layer(rng, dim, mode="cross", key_dim=None):
    kd = key_dim or dim
    return AttentionLayer(
        w_f=rng.standard_normal((kd, dim)).astype(np.float32) / np.sqrt(dim),
        w_g=rng.standard_normal((kd, dim)).astype(np.float32) / np.sqrt(dim),
        w_h=rng.standard_normal((dim, dim)).astype(np.float32) / np.sqrt(dim),
        mode=mode,
    )


def unit_rows(rng, count, dim):
    """count float64 rows of unit length, as patch descriptors are."""
    x = rng.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestAttention:
    @given(n_src=st.integers(1, 7), n_dst=st.integers(1, 7), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_columns_sum_to_one(self, n_src, n_dst, seed):
        rng = np.random.default_rng(seed)
        layer = random_layer(rng, 4)
        xs = rng.standard_normal((n_src, 4))
        xd = rng.standard_normal((n_dst, 4))
        out, rho = attention_forward(xs, xd, layer)
        assert rho.shape == (n_src, n_dst)
        assert out.shape == (n_dst, 4)
        assert_allclose(rho.sum(axis=0), np.ones(n_dst), atol=1e-12)

    def test_single_source_closed_form(self):
        # One source: every weight is exactly 1 and the update is additive.
        rng = np.random.default_rng(SEED + 1)
        layer = random_layer(rng, 5)
        xs = rng.standard_normal((1, 5))
        xd = rng.standard_normal((4, 5))
        out, rho = attention_forward(xs, xd, layer)
        assert_array_equal(rho, np.ones((1, 4)))
        want = xd + np.tile(xs @ layer.w_h.astype(np.float64).T, (4, 1))
        assert_allclose(out, want, atol=0)

    def test_identical_sources_give_uniform_weights(self):
        rng = np.random.default_rng(SEED + 2)
        layer = random_layer(rng, 3)
        row = rng.standard_normal(3)
        xs = np.tile(row, (6, 1))
        xd = rng.standard_normal((2, 3))
        _, rho = attention_forward(xs, xd, layer)
        assert_array_equal(rho, np.full((6, 2), 1.0 / 6.0))

    def test_two_element_scalar_oracle(self):
        # Scalar descriptors, identity maps: weights are a two-way softmax
        # over f_i * g_j that can be written out longhand.
        layer = AttentionLayer(
            w_f=np.ones((1, 1), np.float32),
            w_g=np.ones((1, 1), np.float32),
            w_h=np.ones((1, 1), np.float32),
            mode="cross",
        )
        xs = np.array([[0.3], [-1.2]])
        xd = np.array([[0.7]])
        out, rho = attention_forward(xs, xd, layer)
        e0, e1 = np.exp(0.3 * 0.7), np.exp(-1.2 * 0.7)
        w0, w1 = e0 / (e0 + e1), e1 / (e0 + e1)
        assert_allclose(rho[:, 0], [w0, w1], atol=1e-6)
        assert_allclose(out[0, 0], 0.7 + w0 * 0.3 + w1 * (-1.2), atol=1e-6)

    def test_source_shift_leaves_weights_alone(self):
        # Shifting every source by the same vector adds a per-destination
        # constant to the logits, which the softmax removes.
        rng = np.random.default_rng(SEED + 3)
        layer = random_layer(rng, 4)
        xs = rng.standard_normal((5, 4))
        xd = rng.standard_normal((3, 4))
        shift = rng.standard_normal(4) * 10.0
        _, rho_a = attention_forward(xs, xd, layer)
        _, rho_b = attention_forward(xs + shift, xd, layer)
        assert_allclose(rho_a, rho_b, atol=1e-10)

    def test_rectangular_key_dim(self):
        rng = np.random.default_rng(SEED + 4)
        layer = random_layer(rng, 6, key_dim=2)
        out, rho = attention_forward(rng.standard_normal((3, 6)), rng.standard_normal((4, 6)), layer)
        assert out.shape == (4, 6) and rho.shape == (3, 4)

    def test_dim_mismatch_refused(self):
        rng = np.random.default_rng(SEED + 5)
        layer = random_layer(rng, 4)
        with pytest.raises(ShapeError):
            attention_forward(rng.standard_normal((3, 5)), rng.standard_normal((2, 4)), layer)


def float64_attention(xs, xd, layer):
    """The attention formula written out in float64, weights cast up explicitly."""
    f = xs @ layer.w_f.astype(np.float64).T
    g = xd @ layer.w_g.astype(np.float64).T
    logits = f @ g.T
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    rho = e / e.sum(axis=0, keepdims=True)
    return xd + rho.T @ (xs @ layer.w_h.astype(np.float64).T), rho


class TestAttentionDtype:
    """A float32 pair runs in float32; any other pair runs in float64."""

    def test_float32_pair_stays_float32(self):
        rng = np.random.default_rng(SEED + 30)
        params = random_matcher_params(dim=6, rng=rng, rounds=2)
        q = rng.standard_normal((5, 6), dtype=np.float32)
        d = rng.standard_normal((4, 6), dtype=np.float32)
        out, rho = attention_forward(q, d, params.layers[1])
        assert (out.dtype, rho.dtype) == (np.float32, np.float32)
        assert [y.dtype for y in enhance_descriptors(q, d, params)] == [np.float32, np.float32]

    @pytest.mark.parametrize(
        "q_dtype, d_dtype",
        [(np.float32, np.float64), (np.float64, np.float32), (np.float64, np.float64), (np.float16, np.float32)],
    )
    def test_other_pairs_run_in_float64(self, q_dtype, d_dtype):
        rng = np.random.default_rng(SEED + 31)
        params = random_matcher_params(dim=6, rng=rng, rounds=2)
        q = rng.standard_normal((5, 6)).astype(q_dtype)
        d = rng.standard_normal((4, 6)).astype(d_dtype)
        out, rho = attention_forward(q, d, params.layers[1])
        assert (out.dtype, rho.dtype) == (np.float64, np.float64)
        assert [y.dtype for y in enhance_descriptors(q, d, params)] == [np.float64, np.float64]
        # Mixed pairs get exactly the arithmetic of their float64 copies.
        want = enhance_descriptors(q.astype(np.float64), d.astype(np.float64), params)
        for got, ref in zip(enhance_descriptors(q, d, params), want):
            assert_array_equal(got, ref)

    def test_float64_equals_the_written_out_formula(self):
        # Single rows included: a float64 @ float32 product does not go
        # through the float64 BLAS kernel and can round differently there.
        rng = np.random.default_rng(SEED + 32)
        for n_src, n_dst, dim in ((1, 1, 8), (1, 5, 17), (3, 1, 33), (7, 9, 64), (40, 30, 5)):
            layer = random_layer(rng, dim)
            xs = rng.standard_normal((n_src, dim))
            xd = rng.standard_normal((n_dst, dim))
            for got, want in zip(attention_forward(xs, xd, layer), float64_attention(xs, xd, layer)):
                assert got.dtype == np.float64
                assert_allclose(got, want, rtol=0, atol=0)


class TestAttentionHalves:
    """With BLAS on one thread and two usable CPUs, a float32 attention call runs
    its source rows and its destination rows in two halves at once when each
    half is large enough. The halves must give the whole call's bits; float64
    and mixed pairs, and products small enough for OpenBLAS's small-matrix
    kernels, run whole."""

    @pytest.mark.parametrize(
        "n_q, n_d, dim, q_dtype, d_dtype, cut",
        [
            (128, 300, 128, np.float32, np.float32, True),
            (257, 130, 128, np.float32, np.float32, True),
            (600, 530, 128, np.float32, np.float32, True),
            (600, 199, 16, np.float32, np.float32, False),  # cut at 64 rows, its output bits moved
            (300, 300, 128, np.float64, np.float64, False),
            (300, 300, 128, np.float32, np.float64, False),
        ],
        ids=["float32-128x300", "float32-257x130", "float32-600x530", "float32-dim16", "float64", "mixed"],
    )
    def test_halves_give_the_whole_bits(self, band_halves, monkeypatch, n_q, n_d, dim, q_dtype, d_dtype, cut):
        threads = []
        split_halves = matcher.split_halves

        def recording(fn, n, least):
            def run(lo, hi):
                threads.append(threading.current_thread().name)
                fn(lo, hi)

            split_halves(run, n, least)

        monkeypatch.setattr(matcher, "split_halves", recording)
        rng = np.random.default_rng(SEED + 50)
        params = random_matcher_params(dim=dim, rng=rng, rounds=2)
        q, d = unit_rows(rng, n_q, dim).astype(q_dtype), unit_rows(rng, n_d, dim).astype(d_dtype)
        # Keys narrower than values: the query projection then has rows of its own.
        layers = (*params.layers, random_layer(rng, dim, key_dim=dim // 4))
        runs = [partial(attention_forward, q, d, layer) for layer in layers]
        runs.append(partial(enhance_descriptors, q, d, params))
        results = []
        for at_once in (False, True):
            band_halves(at_once)
            results.append([run() for run in runs])
        for whole, halves in zip(*results):
            for got, want in zip(halves, whole):
                assert got.dtype == np.result_type(q_dtype, d_dtype)
                assert_array_equal(got, want)
        assert any(name.startswith("vprkit-band") for name in threads) == cut


class TestEnhance:
    def test_stack_shapes(self):
        rng = np.random.default_rng(SEED + 6)
        params = random_matcher_params(dim=5, rng=rng, rounds=2)
        assert [l.mode for l in params.layers] == ["self", "cross", "self", "cross"]
        yq, yd = enhance_descriptors(rng.standard_normal((3, 5)), rng.standard_normal((7, 5)), params)
        assert yq.shape == (3, 5) and yd.shape == (7, 5)

    def test_cross_round_uses_pre_update_values(self):
        # Stepping the single cross layer by hand: both directions must read
        # the inputs, not one side's already-updated output.
        rng = np.random.default_rng(SEED + 7)
        layer = random_layer(rng, 3, mode="cross")
        params = MatcherParams(layers=(layer,), dustbin_score=1.0)
        q = rng.standard_normal((2, 3))
        d = rng.standard_normal((4, 3))
        yq, yd = enhance_descriptors(q, d, params)
        want_q, _ = attention_forward(d, q, layer)
        want_d, _ = attention_forward(q, d, layer)
        assert_allclose(yq, want_q, atol=0)
        assert_allclose(yd, want_d, atol=0)

    def test_zero_rounds_is_identity(self):
        rng = np.random.default_rng(SEED + 8)
        params = random_matcher_params(dim=4, rng=rng, rounds=0)
        q = rng.standard_normal((2, 4))
        d = rng.standard_normal((3, 4))
        yq, yd = enhance_descriptors(q, d, params)
        assert_array_equal(yq, q)
        assert_array_equal(yd, d)


class TestScoreMatrix:
    def test_plain_inner_products(self):
        rng = np.random.default_rng(SEED + 9)
        yq = rng.standard_normal((3, 4))
        yd = rng.standard_normal((5, 4))
        s = score_matrix(yq, yd)
        assert s.shape == (3, 5)
        assert_allclose(s, yq @ yd.T, atol=0)

    def test_not_renormalized(self):
        # Doubling one side doubles the scores; nothing rescales them.
        rng = np.random.default_rng(SEED + 10)
        yq = rng.standard_normal((2, 3))
        yd = rng.standard_normal((2, 3))
        assert_allclose(score_matrix(2.0 * yq, yd), 2.0 * score_matrix(yq, yd), atol=0)

    SHAPES = [(129, 5, 8), (130, 140, 16), (257, 300, 32), (300, 700, 64), (35, 35, 32)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m, n, dim", SHAPES)
    def test_halves_keep_the_bands_bits(self, band_halves, m, n, dim, dtype):
        """Two halves of whole 128-row bands at once give the bits of the bands in turn."""
        rng = np.random.default_rng(SEED + 11)
        yq, yd = rng.standard_normal((m, dim)).astype(dtype), rng.standard_normal((n, dim)).astype(dtype)
        results = []
        for at_once in (False, True):
            band_halves(at_once)
            results.append(score_matrix(yq, yd))
        assert results[0].dtype == np.float64
        assert_array_equal(results[1], results[0])

    @pytest.mark.parametrize("m, n, dim", SHAPES)
    def test_bands_round_within_a_few_ulps_of_the_whole_product(self, m, n, dim):
        """Each entry is within 8 eps * sum_k |q_k d_k| of one whole float64 GEMM's.
        Measured: at most 0.96 eps of it on these Gaussian sets and at
        1131x1131x512 (3.6e-14), 4.1 eps on a default-size enhanced self pair,
        and equal at shapes of one band."""
        rng = np.random.default_rng(SEED + 12)
        yq, yd = rng.standard_normal((m, dim)).astype(np.float32), rng.standard_normal((n, dim)).astype(np.float32)
        q64, d64 = yq.astype(np.float64), yd.astype(np.float64)
        got = score_matrix(yq, yd)
        assert np.all(np.abs(got - q64 @ d64.T) <= 8 * np.finfo(np.float64).eps * (np.abs(q64) @ np.abs(d64).T))
        if m <= matcher.SCORE_BAND_ROWS:
            assert_array_equal(got, q64 @ d64.T)


class TestSinkhorn:
    def test_marginals_hit_targets(self):
        rng = np.random.default_rng(SEED + 11)
        for _ in range(20):
            m, n = rng.integers(1, 9), rng.integers(1, 9)
            scores = rng.standard_normal((m, n))
            res = sinkhorn_assign(scores, dustbin_score=0.5, tol=1e-9, max_iters=5000)
            assert res.converged
            rows = np.concatenate([np.ones(m), [float(n)]])
            cols = np.concatenate([np.ones(n), [float(m)]])
            assert_allclose(res.z.sum(axis=1), rows, atol=1e-7)
            assert_allclose(res.z.sum(axis=0), cols, atol=1e-7)

    def test_matches_linear_domain_reference(self):
        rng = np.random.default_rng(SEED + 12)
        for _ in range(10):
            m, n = rng.integers(1, 7), rng.integers(1, 7)
            scores = rng.standard_normal((m, n)) * 2.0
            got = sinkhorn_assign(scores, dustbin_score=1.0, tol=0.0, max_iters=3000).z
            want = sinkhorn_linear(scores, dustbin_score=1.0, reg=1.0, iters=3000)
            assert_allclose(got, want, atol=1e-8)

    def test_single_cell_splits_evenly(self):
        res = sinkhorn_assign(np.array([[2.5]]), dustbin_score=2.5, tol=1e-12, max_iters=2000)
        assert_allclose(res.interior, [[0.5]], atol=1e-9)

    def test_entries_nonnegative_interior_below_one(self):
        rng = np.random.default_rng(SEED + 13)
        scores = rng.standard_normal((4, 6))
        z = sinkhorn_assign(scores, dustbin_score=0.0, tol=1e-9, max_iters=5000).z
        assert np.all(z >= 0)
        assert np.all(z[:4, :6] <= 1.0 + 1e-9)

    def test_shift_invariance_with_dustbin(self):
        rng = np.random.default_rng(SEED + 14)
        scores = rng.standard_normal((3, 5))
        a = sinkhorn_assign(scores, dustbin_score=0.7, tol=0.0, max_iters=500).z
        b = sinkhorn_assign(scores + 3.0, dustbin_score=3.7, tol=0.0, max_iters=500).z
        assert_allclose(a, b, atol=1e-12)

    def test_joint_doubling_invariance(self):
        rng = np.random.default_rng(SEED + 15)
        scores = rng.standard_normal((4, 4))
        a = sinkhorn_assign(scores, dustbin_score=0.3, reg=1.0, tol=0.0, max_iters=500).z
        b = sinkhorn_assign(2.0 * scores, dustbin_score=0.6, reg=2.0, tol=0.0, max_iters=500).z
        assert_allclose(a, b, atol=1e-12)

    def test_fixed_iterations_when_tol_zero(self):
        res = sinkhorn_assign(np.zeros((2, 2)), dustbin_score=0.0, tol=0.0, max_iters=17)
        assert res.iterations == 17
        assert not res.converged

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(SEED + 16)
        res = sinkhorn_assign(rng.standard_normal((5, 5)) * 4.0, dustbin_score=0.0, tol=1e-14, max_iters=1)
        assert not res.converged

    def test_bad_inputs_refused(self):
        with pytest.raises(ShapeError):
            sinkhorn_assign(np.zeros((0, 3)), dustbin_score=0.0)
        with pytest.raises(ShapeError):
            sinkhorn_assign(np.array([[np.inf]]), dustbin_score=0.0)
        with pytest.raises(ShapeError):
            sinkhorn_assign(np.zeros((2, 2)), dustbin_score=0.0, reg=0.0)
        with pytest.raises(ShapeError, match="> 0 and finite"):
            sinkhorn_assign(np.zeros((2, 2)), dustbin_score=0.0, reg=np.inf)
        for tol in (-1e-6, np.inf):
            with pytest.raises(ShapeError, match="tol must be >= 0 and finite"):
                sinkhorn_assign(np.zeros((2, 2)), dustbin_score=0.0, tol=tol)
        with pytest.raises(ShapeError):
            sinkhorn_assign(np.zeros((2, 2)), dustbin_score=0.0, max_iters=0)

    def test_match_score_definition(self):
        z = np.array([[0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
        a = AssignmentMatrix(z=z, iterations=1, converged=True)
        assert match_score(a) == pytest.approx(0.5 / 1.0)


def assert_same_as_log_domain(scores, dustbin, reg, tol, max_iters=100):
    got = sinkhorn_assign(scores, dustbin, reg=reg, tol=tol, max_iters=max_iters, relax=False)
    z, iterations, converged = sinkhorn_log(scores, dustbin, reg=reg, tol=tol, max_iters=max_iters)
    want = AssignmentMatrix(z=z, iterations=iterations, converged=converged)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert_allclose(got.z, want.z, rtol=0, atol=1e-10)
    assert abs(match_score(got) - match_score(want)) <= 1e-12
    return got


class TestSinkhornScalingForm:
    """The plain scaling-form loop (relax=False) reproduces the log-domain
    iterates it replaced."""

    @pytest.mark.parametrize("tol", [1e-6, 0.0])
    @pytest.mark.parametrize("reg", [1.0, 0.1, 0.02, 1e-3, 1e-4])
    def test_same_iterates_as_log_domain_loop(self, reg, tol):
        rng = np.random.default_rng(SEED + 17)
        for _ in range(12):
            m, n = (int(k) for k in rng.integers(1, 40, size=2))
            spread = float(rng.choice([0.5, 2.0, 10.0]))
            scores = rng.standard_normal((m, n)) * spread
            max_iters = int(rng.choice([1, 7, 100]))
            assert_same_as_log_domain(scores, float(rng.normal()), reg, tol, max_iters)

    @pytest.mark.parametrize("tol", [1e-6, 0.0])
    @pytest.mark.parametrize("reg", [1e-3, 1e-4])
    def test_absorbs_drifting_duals(self, reg, tol, monkeypatch):
        # Scores of spread 10 put the log duals 1e4 to 1e5 apart. Every row
        # prefers column 0, so each iteration multiplies the row scalings by
        # about the row count while the surplus mass works its way to the
        # dustbin; within 100 iterations they leave their range and the loop
        # must absorb them.
        absorbed = []

        def counting(x):
            absorbed.append(out_of_range(x))
            return absorbed[-1]

        out_of_range = matcher._out_of_range
        monkeypatch.setattr(matcher, "_out_of_range", counting)
        rng = np.random.default_rng(SEED + 18)
        for m, n in ((30, 30), (12, 40), (40, 3)):
            scores = rng.uniform(-5.0, 5.0, size=(m, n))
            scores[:, 0] = 5.0 + rng.uniform(0.0, 1.0, size=m)
            before = scores.copy()
            assert_same_as_log_domain(scores, 0.3, reg, tol)
            assert_array_equal(scores, before)  # absorption refills the kernel from scores, never writes them
        assert any(absorbed)

    def test_large_sharp_matrix(self):
        rng = np.random.default_rng(SEED + 19)
        base = rng.standard_normal(64)
        q = base + 0.3 * rng.standard_normal((300, 64))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        d = q + 0.05 * rng.standard_normal((300, 64))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        assert_same_as_log_domain(q @ d.T, 0.9, 0.02, 1e-6)

    def test_match_pair_carries_transport_outcome(self):
        rng = np.random.default_rng(SEED + 20)
        params = random_matcher_params(dim=6, rng=rng, rounds=1)
        q = rng.standard_normal((7, 6))
        d = rng.standard_normal((5, 6))
        yq, yd = enhance_descriptors(q, d, params)
        for max_iters in (1, 200):
            want = sinkhorn_assign(score_matrix(yq, yd), params.dustbin_score, max_iters=max_iters)
            got = match_pair(q, d, params, max_iters=max_iters)
            assert isinstance(got, PairScore)
            assert float(got) == match_score(want)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)


class TestSinkhornRelaxation:
    """The over-relaxed loop (the default) against the plain one (relax=False)."""

    def test_warm_up_pairs_keep_the_plain_bits(self):
        """Pairs that converge within the 12 plain iterations never relax: random
        unit-norm default-size sets at reg 1.0 (8 iterations) and small ones."""
        rng = np.random.default_rng(SEED + 23)
        cases = [(unit_rows(rng, 1131, 512) @ unit_rows(rng, 1131, 512).T, 0.9, 1.0)]
        for _ in range(30):
            m, n = (int(k) for k in rng.integers(1, 60, size=2))
            cases.append((rng.standard_normal((m, n)), float(rng.normal()), float(rng.choice([1.0, 0.5, 0.1]))))
        inside = 0
        for scores, dustbin, reg in cases:
            plain = sinkhorn_assign(scores, dustbin, reg=reg, relax=False)
            if plain.converged and plain.iterations <= matcher._WARM_UP:
                inside += 1
                relaxed = sinkhorn_assign(scores, dustbin, reg=reg)
                assert (relaxed.iterations, relaxed.converged) == (plain.iterations, True)
                assert_array_equal(relaxed.z, plain.z)
        assert sinkhorn_assign(cases[0][0], 0.9, relax=False).iterations == 8
        assert inside >= 10

    def test_growth_guard_recovers_a_diverging_factor(self, monkeypatch):
        """With the factor's cap at 1.99, this pair's relaxed iterates diverge: with
        only the non-finite check, the loop ends unconverged at its cap. The
        10x-growth check puts it back on the plain loop, which converges to the
        tight reference (a dustbin below every score, on 4-dim sets, at reg 0.05)."""
        rng = np.random.default_rng(0)
        scores = unit_rows(rng, 50, 4) @ unit_rows(rng, 30, 4).T
        want = sinkhorn_assign(scores, -0.4, reg=0.05, tol=1e-12, max_iters=100_000, relax=False)
        monkeypatch.setattr(matcher, "_OMEGA_CAP", 1.99)
        got = sinkhorn_assign(scores, -0.4, reg=0.05, tol=1e-6, max_iters=1000)
        assert got.converged
        assert abs(match_score(got) - match_score(want)) <= 1e-9
        monkeypatch.setattr(matcher, "_GROWTH_LIMIT", np.inf)
        with np.errstate(all="ignore"):
            assert not sinkhorn_assign(scores, -0.4, reg=0.05, tol=1e-6, max_iters=1000).converged


class TestLoss:
    def test_half_probability_gives_ln2(self):
        z = np.array([[0.5, 0.5], [0.5, 0.5]])
        a = AssignmentMatrix(z=z, iterations=1, converged=True)
        loss = nll_loss(a, GroundTruthMatches(pairs=((0, 0),)))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_sums_over_pairs(self):
        # z carries the dustbin row and column; the interior here is 2x2.
        z = np.array([[0.5, 0.25, 0.25], [0.125, 0.5, 0.375], [0.375, 0.25, 1.375]])
        a = AssignmentMatrix(z=z, iterations=1, converged=True)
        loss = nll_loss(a, GroundTruthMatches(pairs=((0, 0), (1, 1))))
        assert loss == pytest.approx(-np.log(0.5) - np.log(0.5), abs=1e-12)

    def test_empty_ground_truth_warns_and_returns_zero(self):
        a = AssignmentMatrix(z=np.full((2, 2), 0.5), iterations=1, converged=True)
        with pytest.warns(EmptyGroundTruthWarning):
            assert nll_loss(a, GroundTruthMatches(pairs=())) == 0.0

    def test_zero_probability_clamped(self):
        z = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = AssignmentMatrix(z=z, iterations=1, converged=True)
        loss = nll_loss(a, GroundTruthMatches(pairs=((0, 0),)))
        assert loss == pytest.approx(-np.log(1e-12), rel=1e-9)

    def test_pairs_validated(self):
        with pytest.raises(ShapeError):
            GroundTruthMatches(pairs=((0, 0), (0, 0)))
        with pytest.raises(ShapeError):
            GroundTruthMatches(pairs=((-1, 0),))
        a = AssignmentMatrix(z=np.full((2, 3), 0.2), iterations=1, converged=True)
        with pytest.raises(ShapeError):
            nll_loss(a, GroundTruthMatches(pairs=((5, 0),)))

    def test_loss_from_scores_runs_fixed_iterations(self):
        rng = np.random.default_rng(SEED + 17)
        scores = rng.standard_normal((3, 4))
        a = nll_loss_from_scores(scores, GroundTruthMatches(pairs=((0, 0),)), dustbin_score=0.5, iters=64)
        b = nll_loss_from_scores(scores, GroundTruthMatches(pairs=((0, 0),)), dustbin_score=0.5, iters=64)
        assert a == b


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(SEED + 18)
        for _ in range(5):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            scores = rng.standard_normal((m, n))
            pairs = ((0, 0),) if min(m, n) == 1 else ((0, 0), (m - 1, n - 1))
            matches = GroundTruthMatches(pairs=pairs)

            def f(s):
                return nll_loss_from_scores(s, matches, dustbin_score=0.4, reg=1.0, iters=80)

            got = loss_gradient(scores, matches, dustbin_score=0.4, reg=1.0, iters=80)
            want = central_difference(f, scores, step=1e-5)
            denom = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() / denom < 1e-6

    def test_gradient_shape(self):
        rng = np.random.default_rng(SEED + 19)
        g = loss_gradient(rng.standard_normal((2, 5)), GroundTruthMatches(pairs=((1, 4),)), dustbin_score=0.0)
        assert g.shape == (2, 5)

    def test_reg_scales_gradient_consistently(self):
        # Doubling scores, dustbin, and reg leaves Z alone, so the only change
        # in the loss path is the 1/reg chain factor.
        rng = np.random.default_rng(SEED + 20)
        scores = rng.standard_normal((3, 3))
        matches = GroundTruthMatches(pairs=((0, 0),))
        a = loss_gradient(scores, matches, dustbin_score=0.2, reg=1.0, iters=100)
        b = loss_gradient(2.0 * scores, matches, dustbin_score=0.4, reg=2.0, iters=100)
        assert_allclose(b, 0.5 * a, atol=1e-10)


class TestMatchPair:
    def test_identical_sets_score_highest(self):
        rng = np.random.default_rng(SEED + 21)
        params = random_matcher_params(dim=6, rng=rng, rounds=1)
        base = rng.standard_normal((8, 6)).astype(np.float32)
        other = rng.standard_normal((8, 6)).astype(np.float32)
        self_score = match_pair(base, base, params)
        cross_score = match_pair(base, other, params)
        assert self_score > cross_score

    def test_scores_bounded_by_one(self):
        rng = np.random.default_rng(SEED + 22)
        params = random_matcher_params(dim=4, rng=rng, rounds=1)
        value = match_pair(
            rng.standard_normal((3, 4)).astype(np.float32),
            rng.standard_normal((5, 4)).astype(np.float32),
            params,
        )
        assert 0.0 <= value <= 1.0 + 1e-9


class TestFloat32AgainstFloat64Path:
    """Re-ranking feeds stored float32 patch sets to the matcher, so attention
    runs in float32. The float64 path is the same functions fed float64
    copies, which is the arithmetic every caller ran before.

    The bound on the match score is 1e-8. Over pairs of noise images under
    the default model, at reg 1.0 and 0.02, the largest deviation measured
    was 1.6e-9 (2.6e-10 on this pair), so 1e-8 leaves about 6x for other BLAS
    builds and thread counts. It is still four orders of magnitude below the
    2e-4 between a self pair's score and another pair's at reg 1.0, so a
    ranking cannot change within it.
    """

    def test_default_size_pair_scores_within_bound(self):
        model = random_model(seed=0).with_fused()
        rng = np.random.default_rng(SEED + 40)
        q, d = (
            extract_from_tensor(rng.random((1, 3, 480, 640), dtype=np.float32), model, ExtractionSettings(fused=True))[1]
            .descriptors
            for _ in range(2)
        )
        params = model.matcher
        assert q.shape == d.shape == (1131, 512) and q.dtype == d.dtype == np.float32
        new = enhance_descriptors(q, d, params)
        old = enhance_descriptors(q.astype(np.float64), d.astype(np.float64), params)
        assert [y.dtype for y in new] == [np.float32, np.float32]
        for reg in (1.0, 0.02):
            got = sinkhorn_assign(score_matrix(*new), params.dustbin_score, reg=reg)
            want = sinkhorn_assign(score_matrix(*old), params.dustbin_score, reg=reg)
            assert abs(match_score(got) - match_score(want)) <= 1e-8
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
