"""Correctness checks for the benchmark, computed apart from vprkit.

Every reference here is plain numpy written from the documented formulas;
nothing is imported from the package under test. Each ``check_*`` function
takes the program's output plus the benchmark's own expectation and returns a
list of problems, empty when the output is correct, so that a workload can
count an operation as failed and a test can show that a corrupted output is
caught.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------


def conv_size(n: int, kernel: int, stride: int, padding: int) -> int:
    """floor((n + 2*padding - kernel) / stride) + 1."""
    return (n + 2 * padding - kernel) // stride + 1


def expected_patch_count(
    input_hw: tuple[int, int], layer_strides: Sequence[int], patch: int, patch_stride: int
) -> int:
    """Windows of a patch x patch grid over the map a stack of 3x3/pad-1 convs leaves."""
    h, w = input_hw
    for s in layer_strides:
        h, w = conv_size(h, 3, s, 1), conv_size(w, 3, s, 1)
    return conv_size(h, patch, patch_stride, 0) * conv_size(w, patch, patch_stride, 0)


def vlad_reference(
    fmap: np.ndarray,
    centers: np.ndarray,
    assign_weight: np.ndarray,
    assign_bias: np.ndarray,
    projection: np.ndarray,
    mean: np.ndarray,
) -> np.ndarray:
    """Global descriptor of a (1, D, H, W) map.

    Softmax assignment over x @ W.T + b, residual sums per cluster, L2 per
    cluster then over the whole (cluster-major) vector, then the projection
    of the mean-centred vector and a final L2.
    """
    x = np.asarray(fmap, dtype=np.float64)[0].reshape(fmap.shape[1], -1).T  # (N, D)
    logits = x @ np.asarray(assign_weight, np.float64).T + np.asarray(assign_bias, np.float64)
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits)
    a /= a.sum(axis=1, keepdims=True)  # (N, K)
    c = np.asarray(centers, np.float64)  # (K, D)
    v = a.T @ x - a.sum(axis=0)[:, None] * c  # (K, D): sum_i a_ik (x_i - c_k)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    v = v / np.where(norms > 0, norms, 1.0)
    flat = v.reshape(-1)
    flat /= np.linalg.norm(flat)
    out = (flat - np.asarray(mean, np.float64)) @ np.asarray(projection, np.float64).T
    return out / np.linalg.norm(out)


def attention_reference(
    src: np.ndarray, dst: np.ndarray, w_f: np.ndarray, w_g: np.ndarray, w_h: np.ndarray
) -> np.ndarray:
    """dst_j + sum_i rho_ij * w_h @ src_i, rho_ij = softmax over i of (w_f src_i) . (w_g dst_j)."""
    f = src @ np.asarray(w_f, np.float64).T
    g = dst @ np.asarray(w_g, np.float64).T
    logits = g @ f.T  # (N_dst, N_src): one softmax row per destination
    logits -= logits.max(axis=1, keepdims=True)
    rho = np.exp(logits)
    rho /= rho.sum(axis=1, keepdims=True)
    return dst + rho @ (src @ np.asarray(w_h, np.float64).T)


def match_score_reference(
    q: np.ndarray,
    d: np.ndarray,
    layers: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, str]],
    dustbin: float,
    reg: float,
    tol: float = 1e-9,
    max_iters: int = 100_000,
) -> float:
    """Attention rounds, raw inner-product scores, dustbin transport, interior mass / min(M, N).

    Self layers update each set from itself; cross layers update both sets
    from the other at once. Transport is linear-domain Sinkhorn on the
    augmented kernel, run until both marginals are within tol.
    """
    yq = np.asarray(q, np.float64)
    yd = np.asarray(d, np.float64)
    for w_f, w_g, w_h, mode in layers:
        if mode == "self":
            yq, yd = attention_reference(yq, yq, w_f, w_g, w_h), attention_reference(yd, yd, w_f, w_g, w_h)
        else:
            yq, yd = attention_reference(yd, yq, w_f, w_g, w_h), attention_reference(yq, yd, w_f, w_g, w_h)
    m, n = yq.shape[0], yd.shape[0]
    aug = np.full((m + 1, n + 1), float(dustbin))
    aug[:m, :n] = yq @ yd.T
    kern = np.exp((aug - aug.max()) / reg)
    r = np.ones(m + 1)
    r[m] = n
    c = np.ones(n + 1)
    c[n] = m
    u = np.ones(m + 1)
    v = np.ones(n + 1)
    for _ in range(max_iters):
        u = r / (kern @ v)
        v = c / (kern.T @ u)
        if np.abs(u * (kern @ v) - r).max() <= tol:  # columns are exact right after the v update
            break
    else:
        raise ArithmeticError(f"reference transport did not reach {tol} in {max_iters} iterations")
    z = u[:, None] * kern * v[None, :]
    return float(z[:m, :n].sum() / min(m, n))


def ranking_reference(ids: Sequence[str], matrix: np.ndarray, query: np.ndarray, k: int) -> tuple[list[str], np.ndarray]:
    """Top-k by float64 inner product, ties broken toward the smaller id."""
    scores = np.asarray(matrix, np.float64) @ np.asarray(query, np.float64)
    order = np.lexsort((np.asarray(ids), -scores))[:k]
    return [ids[i] for i in order], scores[order]


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the output is correct
# ---------------------------------------------------------------------------


def check_patch_counts(counts: Sequence[int], expected: int) -> list[str]:
    return [f"patch count {c} != {expected}" for c in counts if c != expected]


def check_unit_norm(rows: np.ndarray, what: str, tol: float = 1e-5) -> list[str]:
    norms = np.linalg.norm(np.atleast_2d(np.asarray(rows, np.float64)), axis=1)
    worst = float(np.abs(norms - 1.0).max())
    return [f"{what}: norm off by {worst:.3g}"] if not worst <= tol else []


def check_close(actual: np.ndarray, expected: np.ndarray, what: str, tol: float) -> list[str]:
    diff = float(np.abs(np.asarray(actual, np.float64) - np.asarray(expected, np.float64)).max())
    return [f"{what}: off by {diff:.3g} (tol {tol})"] if not diff <= tol else []


def index_snapshot(index, patch_store) -> dict:
    """Every stored field of an index and its patch store, as bytes or plain values."""
    snap = {"ids": tuple(e.image_id for e in index.entries)}
    for e in index.entries:
        snap[e.image_id + ".descriptor"] = e.descriptor.values.tobytes() + e.descriptor.values.dtype.str.encode()
        snap[e.image_id + ".pca_applied"] = e.descriptor.pca_applied
        snap[e.image_id + ".geotag"] = (e.geotag.frame, np.asarray(e.geotag.coords, np.float64).tobytes())
    for image_id, p in patch_store.items():
        snap[image_id + ".patches"] = p.descriptors.tobytes() + p.descriptors.dtype.str.encode()
        g = p.grid
        snap[image_id + ".grid"] = (g.d_x, g.d_y, g.stride, g.height, g.width)
    return snap


def check_index_equal(a: dict, b: dict) -> list[str]:
    """Bit-for-bit comparison of two ``index_snapshot`` results."""
    if a.keys() != b.keys():
        return [f"index fields differ: {sorted(a.keys() ^ b.keys())}"]
    return [f"index field {key} differs" for key in a if a[key] != b[key]]


def check_ranking(
    ranked: Sequence[tuple[str, float]], ref_ids: Sequence[str], ref_scores: np.ndarray, tol: float = 1e-12
) -> list[str]:
    ids = [i for i, _ in ranked]
    if ids != list(ref_ids):
        return [f"ranking {ids[:5]} != reference {list(ref_ids)[:5]}"]
    return check_close([s for _, s in ranked], ref_scores, "ranking scores", tol)


def check_self_first(ranked: Sequence[tuple[str, float]], own_id: str, stage: str) -> list[str]:
    if not ranked or ranked[0][0] != own_id:
        return [f"{stage}: {ranked[0][0] if ranked else None!r} ranked above the query's own image {own_id!r}"]
    return []


def check_self_score(ranked: Sequence[tuple[str, float]], tol: float = 1e-6) -> list[str]:
    return [f"self score {ranked[0][1]!r} is not 1 +- {tol}"] if not abs(ranked[0][1] - 1.0) <= tol else []


def check_permutation(initial: Sequence[tuple[str, float]], reranked: Sequence[tuple[str, float]]) -> list[str]:
    a = sorted(i for i, _ in initial)
    b = sorted(i for i, _ in reranked)
    return [] if a == b and len(initial) == len(reranked) else ["re-ranked list is not a permutation of stage one"]


def check_unit_interval(ranked: Sequence[tuple[str, float]]) -> list[str]:
    return [f"score {s!r} of {i!r} outside [0, 1]" for i, s in ranked if not 0.0 <= s <= 1.0]
