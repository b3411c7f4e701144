"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way on purpose and shares no
code with the library: direct loops, textbook update rules, no shortcuts.
Tests compare library output against these.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def conv2d_loops(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Six nested loops over an NCHW batch."""
    b, c, h, w = x.shape
    o, ci, kh, kw = weight.shape
    assert ci == c
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    out = np.zeros((b, o, oh, ow), dtype=np.float64)
    for n in range(b):
        for oc in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ic in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += weight[oc, ic, u, v] * xp[n, ic, i * stride + u, j * stride + v]
                    out[n, oc, i, j] = acc + bias[oc]
    return out


def conv2d_im2col(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Padded im2col and one float64 GEMM, NHWC-ordered and transposed back.

    The convolution the package ran before it filled its column buffer tap by
    tap, kept as a reference. Returns float32 like the package.
    """
    b, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride][:, :, :oh, :ow]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * kh * kw)
    out = cols.astype(np.float64) @ weight.reshape(o, c * kh * kw).astype(np.float64).T
    out += bias.astype(np.float64)
    return out.reshape(b, oh, ow, o).transpose(0, 3, 1, 2).astype(np.float32)


def patch_descriptors_loop(
    fmap: np.ndarray,
    d_x: int,
    d_y: int,
    stride: int,
    centers: np.ndarray,
    assign_weight: np.ndarray,
    assign_bias: np.ndarray,
    projection: np.ndarray | None = None,
    mean: np.ndarray | None = None,
) -> np.ndarray:
    """Patch VLAD one window at a time over a (1, D, H, W) feature map.

    The per-window loop the package ran before it aggregated every window in
    one batched product, kept as a reference: soft assignment per position,
    residual sums per window, per-cluster then global L2, and optionally a
    centered projection renormalized per row. Returns (patches, dim) float32.
    """
    _, d, h, w = fmap.shape
    x = fmap[0].reshape(d, -1).T.astype(np.float64)
    scores = x @ assign_weight.astype(np.float64).T + assign_bias.astype(np.float64)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    centers_t = centers.astype(np.float64).T
    idx = np.arange(h * w).reshape(h, w)
    rows = []
    for r in range(0, h - d_y + 1, stride):
        for c in range(0, w - d_x + 1, stride):
            sel = idx[r : r + d_y, c : c + d_x].reshape(-1)
            v = x[sel].T @ a[sel] - centers_t * a[sel].sum(axis=0)
            norms = np.sqrt((v**2).sum(axis=0))
            v = v / np.where(norms > 0.0, norms, 1.0)
            rows.append(v.T.reshape(-1))
    raw = np.stack(rows)
    raw = raw / np.sqrt((raw**2).sum(axis=1))[:, None]
    if projection is not None:
        projected = (raw - mean.astype(np.float64)) @ projection.astype(np.float64).T
        raw = projected / np.sqrt((projected**2).sum(axis=1))[:, None]
    return raw.astype(np.float32)


def float64_projection(rows: np.ndarray, m) -> np.ndarray:
    """Center rows by m.mean, project them by m.projection and L2-renormalize
    each, all in float64.

    The projection the package ran before it projected float32 rows in
    float32, kept as a reference with descriptor._project_rows's signature.
    Returns float64 rows.
    """
    projected = (rows.astype(np.float64) - m.mean.astype(np.float64)) @ m.projection.astype(np.float64).T
    return projected / np.sqrt((projected**2).sum(axis=1))[:, None]


def householder_rows(g: np.ndarray) -> np.ndarray:
    """Float32 orthonormal rows from LAPACK's Householder QR of a tall (in, out)
    draw g, with each column's sign fixed so that diag(r) is positive.

    The orthonormalization descriptor.random_projection ran before it used
    shifted Cholesky QR, kept as a reference. Returns the (out, in) rows.
    """
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return q.T.astype(np.float32)


def cholesky_qr3_rows(x: np.ndarray) -> np.ndarray:
    """Float64 orthonormal rows of a full-rank (n, m) matrix x, n <= m, by shifted
    CholeskyQR3: three passes of x = inv(cholesky(x @ x.T)) @ x over the whole
    matrix, the first with the Gram diagonal raised by
    11 (mn + n(n+1)) eps trace(x @ x.T).

    The orthonormalization descriptor.random_projection ran before it worked
    in the buffer of its draw a band of columns at a time, kept as a
    reference. x is left as it is; a new (n, m) matrix is returned.
    """
    n, m = x.shape
    shift = 11 * (m * n + n * (n + 1)) * np.finfo(np.float64).eps
    for p in range(3):
        gram = x @ x.T
        if p == 0:
            gram[np.diag_indices(n)] += shift * np.trace(gram)
        x = np.linalg.inv(np.linalg.cholesky(gram)) @ x
    return x


def vlad_double_loop(x: np.ndarray, a: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Residual aggregation elementwise: V[j, k] = sum_i a[i, k] (x[i, j] - c[k, j])."""
    n, d = x.shape
    k = centers.shape[0]
    v = np.zeros((d, k), dtype=np.float64)
    for kk in range(k):
        for j in range(d):
            for i in range(n):
                v[j, kk] += a[i, kk] * (float(x[i, j]) - float(centers[kk, j]))
    return v


def normalized_vlad_reference(v: np.ndarray) -> np.ndarray:
    """Column-wise L2, concatenate columns, then one global L2."""
    v = v.astype(np.float64).copy()
    k = v.shape[1]
    for kk in range(k):
        norm = np.sqrt(np.sum(v[:, kk] ** 2))
        if norm > 0:
            v[:, kk] = v[:, kk] / norm
    flat = np.concatenate([v[:, kk] for kk in range(k)])
    return flat / np.sqrt(np.sum(flat**2))


def sinkhorn_linear(
    scores: np.ndarray,
    dustbin_score: float,
    reg: float,
    iters: int,
) -> np.ndarray:
    """Plain linear-domain alternating scaling on the augmented kernel."""
    m, n = scores.shape
    aug = np.full((m + 1, n + 1), dustbin_score, dtype=np.float64)
    aug[:m, :n] = scores
    kern = np.exp(aug / reg)
    r = np.ones(m + 1)
    r[m] = n
    c = np.ones(n + 1)
    c[n] = m
    u = np.ones(m + 1)
    v = np.ones(n + 1)
    for _ in range(iters):
        u = r / (kern @ v)
        v = c / (kern.T @ u)
    return u[:, None] * kern * v[None, :]


def sinkhorn_log(
    scores: np.ndarray,
    dustbin_score: float,
    reg: float = 1.0,
    tol: float = 1e-6,
    max_iters: int = 100,
) -> tuple[np.ndarray, int, bool]:
    """Log-domain alternating updates on the dustbin-augmented scores.

    The transport loop the package ran before it moved to the scaling form,
    kept as a reference: one logsumexp per half-step and a full plan rebuilt
    for every convergence check. Returns (plan, iterations, converged).
    """

    def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
        hi = a.max(axis=axis, keepdims=True)
        out = np.log(np.exp(a - hi).sum(axis=axis, keepdims=True)) + hi
        return np.squeeze(out, axis=axis)

    scores = np.asarray(scores, dtype=np.float64)
    m, n = scores.shape
    aug = np.full((m + 1, n + 1), float(dustbin_score), dtype=np.float64)
    aug[:m, :n] = scores
    s = aug / reg
    log_r = np.zeros(m + 1)
    log_r[m] = np.log(n)
    log_c = np.zeros(n + 1)
    log_c[n] = np.log(m)
    log_u = np.zeros(m + 1)
    log_v = np.zeros(n + 1)

    iterations = 0
    converged = False
    for _ in range(max_iters):
        log_u = log_r - logsumexp(s + log_v[None, :], axis=1)
        log_v = log_c - logsumexp(s + log_u[:, None], axis=0)
        iterations += 1
        if tol > 0:
            z = np.exp(s + log_u[:, None] + log_v[None, :])
            err_r = np.abs(z.sum(axis=1) - np.exp(log_r)).max()
            err_c = np.abs(z.sum(axis=0) - np.exp(log_c)).max()
            if max(err_r, err_c) <= tol:
                converged = True
                break
    z = np.exp(s + log_u[:, None] + log_v[None, :])
    return z, iterations, converged


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray, step: float) -> np.ndarray:
    """Elementwise symmetric difference quotient."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = x.astype(np.float64).copy()
        lo = x.astype(np.float64).copy()
        hi[idx] += step
        lo[idx] -= step
        g[idx] = (f(hi) - f(lo)) / (2.0 * step)
        it.iternext()
    return g


def patch_placements(height: int, width: int, d: int, stride: int) -> list[tuple[int, int]]:
    """Every (top, left) where a d-by-d window fits, stepping by stride."""
    spots = []
    top = 0
    while top + d <= height:
        left = 0
        while left + d <= width:
            spots.append((top, left))
            left += stride
        top += stride
    return spots


def haversine_reference(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters on a 6371 km sphere."""
    radius = 6_371_000.0
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = np.radians(lat2 - lat1)
    dl = np.radians(lon2 - lon1)
    h = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return float(2.0 * radius * np.arcsin(np.sqrt(h)))


def topk_ids(scores: dict[str, float], k: int) -> list[str]:
    """Best-k ids, breaking score ties toward the smaller id."""
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [key for key, _ in ranked[:k]]
