"""Global and patch-level VLAD descriptors over backbone feature maps.

A feature map is read as one local descriptor per spatial position. Residuals
against a learned codebook are aggregated per cluster (weighted by a learned
soft assignment), each cluster block is L2-normalized, the concatenation is
L2-normalized again, and an orthonormal projection takes the result down to
its final dimension. One head does this for any set of windows of positions:
patch descriptors are the windows of a dense grid, and the global descriptor is
the single window that covers the whole map.

The head works in float64 over bands of windows, about HEAD_BAND_BYTES of
residuals at a time, in one band buffer per call, and rounds each band's
normalized rows into float32. Without a projection those rows are the output,
one (windows, K*D) matrix. With one, they go to a staging buffer of four bands,
which the projection consumes a staged group at a time: it centres and projects
the float32 rows in float32 and renormalizes each projected row in float64,
rounding it into a float32 (windows, out_dim) output. No (windows, K*D) matrix
is built then, so the transient memory of a projected extraction is bounded by
the band size, not the window count.

The seeded projection is orthonormalized in the buffer of its own Gaussian
draw, a band of columns at a time, and rounded into its float32 rows as the
last pass writes them (random_projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .tensor import Tensor4, as_tensor4, band_workers, softmax_rows

# Bytes of float64 residual sums the VLAD head holds per band; a band is at least one window.
HEAD_BAND_BYTES = 8 << 20


@dataclass(frozen=True)
class VladParams:
    """Codebook centers (K, D) plus the learned assignment map (scores = x @ W.T + b)."""

    centers: np.ndarray
    assign_weight: np.ndarray
    assign_bias: np.ndarray

    def __post_init__(self) -> None:
        if self.centers.ndim != 2:
            raise ShapeError(f"centers must be (K, D), got shape {self.centers.shape}")
        if self.assign_weight.shape != self.centers.shape:
            raise ShapeError(
                f"assignment weight shape {self.assign_weight.shape} must match centers {self.centers.shape}"
            )
        if self.assign_bias.shape != (self.centers.shape[0],):
            raise ShapeError(f"assignment bias must be (K,), got {self.assign_bias.shape}")
        for name in ("centers", "assign_weight", "assign_bias"):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float32))

    @property
    def cluster_count(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def random_vlad_params(dim: int, clusters: int, rng: np.random.Generator) -> VladParams:
    centers = rng.standard_normal((clusters, dim)).astype(np.float32)
    return VladParams(
        centers=centers,
        assign_weight=rng.standard_normal((clusters, dim)).astype(np.float32),
        assign_bias=rng.standard_normal(clusters).astype(np.float32),
    )


@dataclass(frozen=True)
class GlobalDescriptor:
    """Unit-norm descriptor vector; pca_applied records whether it was projected."""

    values: np.ndarray
    pca_applied: bool = False

    def __post_init__(self) -> None:
        if self.values.ndim != 1:
            raise ShapeError(f"descriptor values must be rank 1, got shape {self.values.shape}")
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float32))

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def soft_assign(x: np.ndarray, p: VladParams) -> np.ndarray:
    """Row-wise softmax over assignment scores; (N, D) descriptors -> (N, K) weights."""
    x = _as_descriptor_rows(x, p.dim)
    scores = x.astype(np.float64) @ p.assign_weight.astype(np.float64).T + p.assign_bias.astype(np.float64)
    return softmax_rows(scores)


def vlad_raw(x: np.ndarray, assignments: np.ndarray, p: VladParams) -> np.ndarray:
    """Residual sums V[j, k] = sum_i a[i, k] * (x[i, j] - c[k, j]), shape (D, K)."""
    x = _as_descriptor_rows(x, p.dim)
    a = _as_assignments(assignments, x.shape[0], p)
    xd = x.astype(np.float64)
    c = p.centers.astype(np.float64)
    return xd.T @ a - c.T * a.sum(axis=0)


def vlad_aggregate(x: np.ndarray, assignments: np.ndarray, p: VladParams) -> GlobalDescriptor:
    """Aggregate descriptors into a normalized (D*K,) VLAD vector: the head on one window of every row."""
    x = _as_descriptor_rows(x, p.dim)
    a = _as_assignments(assignments, x.shape[0], p)
    flat = _vlad_head(x, a, np.arange(x.shape[0])[None, :], p, None)
    return GlobalDescriptor(values=flat[0], pca_applied=False)


@dataclass(frozen=True)
class PcaModel:
    """Linear projection rows over mean-centered inputs."""

    projection: np.ndarray
    mean: np.ndarray

    def __post_init__(self) -> None:
        if self.projection.ndim != 2:
            raise ShapeError(f"projection must be (out, in), got shape {self.projection.shape}")
        if self.mean.shape != (self.projection.shape[1],):
            raise ShapeError(f"mean shape {self.mean.shape} must be ({self.projection.shape[1]},)")
        object.__setattr__(self, "projection", np.ascontiguousarray(self.projection, dtype=np.float32))
        object.__setattr__(self, "mean", np.ascontiguousarray(self.mean, dtype=np.float32))

    @property
    def in_dim(self) -> int:
        return self.projection.shape[1]

    @property
    def out_dim(self) -> int:
        return self.projection.shape[0]


def random_projection(in_dim: int, out_dim: int, rng: np.random.Generator) -> PcaModel:
    """Orthonormal rows from a seeded Gaussian, with zero mean; the projection
    of every model not loaded from a weights file.

    The draw is rng.standard_normal((in_dim, out_dim)), whose transpose is
    orthonormalized in place by _orthonormal_rows (shifted CholeskyQR3), the
    last pass rounding straight into the float32 rows. Each row has a positive
    component along its own Gaussian row, the sign convention of the
    Householder QR with positive diag(r) that this replaces: the result is
    bit-equal to that QR's for the seed-0 default model and within 1 float32
    ulp of it in every other draw measured. The float64 draw is the only
    full-size float64 buffer: at 12288 -> 512 the traced peak is about 83 MB,
    the 50 MB draw, the 25 MB result and a few 2 MB temporaries, where a new
    float64 matrix per pass took it to 107 MB.
    """
    if out_dim > in_dim:
        raise ShapeError(f"out_dim {out_dim} cannot exceed in_dim {in_dim}")
    rows = np.empty((out_dim, in_dim), dtype=np.float32)
    _orthonormal_rows(rng.standard_normal((in_dim, out_dim)).T, out=rows)
    return PcaModel(projection=rows, mean=np.zeros(in_dim, dtype=np.float32))


def _orthonormal_rows(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Orthonormalize the n rows of a full-rank float64 (n, m) matrix, n <= m,
    by shifted CholeskyQR3 (Fukaya et al., SIAM J. Sci. Comput. 2020); x is
    overwritten, and the rows are written into out (x itself when None) and
    returned.

    Each of three passes sets x = inv(cholesky(x @ x.T)) @ x. The first raises
    the Gram diagonal by 11 (mn + n(n+1)) eps trace(x @ x.T), the trace
    bounding the squared 2-norm, so that its Cholesky factor exists however
    ill-conditioned x is; the two unshifted passes then restore orthogonality
    to rounding. The factors' diagonals are positive, so row i of the result
    has a positive component along row i of x. A rank-deficient x leaves a
    Gram matrix that is not positive definite, which is refused.

    Each Gram matrix is whole, but a pass's product acts on each column of x
    on its own, so it runs a 512-column band at a time, in place, the last
    pass into out; on tensor.band_workers the bands may run in two halves at
    once. On the OpenBLAS the tests run with, a band's product carried the
    bits of the whole product's with bands starting at multiples of 32
    columns, but not of 333 (the tests compare the passes with whole-matrix
    ones).
    """
    n, m = x.shape
    out = x if out is None else out
    shift = 11 * (m * n + n * (n + 1)) * np.finfo(np.float64).eps

    def inverse_factor(p: int) -> np.ndarray:
        """inv(cholesky(x @ x.T)) for pass p; the Gram matrix and factor go on return."""
        gram = x @ x.T
        if p == 0:
            gram[np.diag_indices(n)] += shift * np.trace(gram)
        try:
            return np.linalg.inv(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            raise DegenerateInputError(f"the rows of a {n}x{m} matrix are not linearly independent") from None

    def multiply(inv: np.ndarray, dst: np.ndarray, lo: int, hi: int) -> None:
        """Bands lo .. hi of inv @ x, into dst."""
        for j in range(512 * lo, min(512 * hi, m), 512):
            dst[:, j : j + 512] = inv @ x[:, j : j + 512]

    with band_workers() as split:
        for p in range(3):
            split(partial(multiply, inverse_factor(p), out if p == 2 else x), -(-m // 512), 1)
    return out


def _project_rows(rows: np.ndarray, m: PcaModel) -> np.ndarray:
    """Center float32 rows in place and project them in float32, then L2-renormalize
    each projected row in float64, in place; returns float64 rows. The squares
    are summed 64 rows at a time, so only one (rows, out_dim) float64 array
    is built."""
    if rows.shape[1] != m.in_dim:
        raise ShapeError(f"vectors of dim {rows.shape[1]} do not match projection input dim {m.in_dim}")
    rows -= m.mean
    projected = (rows @ m.projection.T).astype(np.float64)
    norms = np.empty(len(projected))
    for r0 in range(0, len(projected), 64):
        norms[r0 : r0 + 64] = (projected[r0 : r0 + 64] ** 2).sum(axis=1)
    np.sqrt(norms, out=norms)
    if np.any(norms == 0.0):
        raise DegenerateInputError("projection collapsed an input to zero (input equals the mean?)")
    projected /= norms[:, None]
    return projected


@dataclass(frozen=True)
class PatchGrid:
    """Dense grid of d_x by d_y windows over an (height, width) feature map at a fixed stride."""

    d_x: int
    d_y: int
    stride: int
    height: int
    width: int

    def __post_init__(self) -> None:
        if min(self.d_x, self.d_y, self.stride) < 1:
            raise ShapeError("patch dims and stride must be >= 1")
        if self.d_y > self.height or self.d_x > self.width:
            raise ShapeError(
                f"patch {self.d_x}x{self.d_y} does not fit feature map {self.width}x{self.height}"
            )

    @property
    def rows(self) -> int:
        return (self.height - self.d_y) // self.stride + 1

    @property
    def cols(self) -> int:
        return (self.width - self.d_x) // self.stride + 1

    @property
    def count(self) -> int:
        return self.rows * self.cols


def make_patch_grid(height: int, width: int, d_x: int, d_y: int, stride: int = 1) -> PatchGrid:
    return PatchGrid(d_x=d_x, d_y=d_y, stride=stride, height=height, width=width)


@dataclass(frozen=True)
class PatchDescriptorSet:
    """Per-patch unit-norm descriptors (count, dim) plus the grid that produced them."""

    descriptors: np.ndarray
    grid: PatchGrid

    def __post_init__(self) -> None:
        if self.descriptors.ndim != 2:
            raise ShapeError(f"patch descriptors must be (count, dim), got shape {self.descriptors.shape}")
        if self.descriptors.shape[0] != self.grid.count:
            raise ShapeError(
                f"descriptor count {self.descriptors.shape[0]} disagrees with grid count {self.grid.count}"
            )
        object.__setattr__(self, "descriptors", np.ascontiguousarray(self.descriptors, dtype=np.float32))

    @property
    def count(self) -> int:
        return self.descriptors.shape[0]


def feature_map_descriptors(fmap: Tensor4) -> np.ndarray:
    """Read a (1, D, H, W) feature map as H*W local descriptors, row-major."""
    fmap = as_tensor4(fmap)
    if fmap.shape[0] != 1:
        raise ShapeError(f"expected batch size 1, got {fmap.shape[0]}")
    d = fmap.shape[1]
    return fmap[0].reshape(d, -1).T.copy()


def global_descriptor(fmap: Tensor4, vlad: VladParams, pca: Optional[PcaModel]) -> GlobalDescriptor:
    """The VLAD head over the single window that covers the whole map, optionally projected."""
    fmap = as_tensor4(fmap)
    h, w = fmap.shape[2:]
    patches = extract_patch_descriptors(fmap, make_patch_grid(h, w, w, h), vlad, pca)
    return GlobalDescriptor(values=patches.descriptors[0], pca_applied=pca is not None)


def extract_patch_descriptors(
    fmap: Tensor4,
    grid: PatchGrid,
    vlad: VladParams,
    pca: Optional[PcaModel],
) -> PatchDescriptorSet:
    """One normalized VLAD descriptor per grid window.

    Assignment weights are computed once per position and reused by every
    window containing that position, so a window's descriptor equals
    vlad_aggregate run on exactly its own positions.
    """
    fmap = as_tensor4(fmap)
    _, _, h, w = fmap.shape
    if (grid.height, grid.width) != (h, w):
        raise ShapeError(f"grid was built for {grid.height}x{grid.width} but feature map is {h}x{w}")
    x = feature_map_descriptors(fmap)
    # (patches, positions per window) row-major position indices of each window.
    idx = np.arange(h * w).reshape(h, w)
    win = np.lib.stride_tricks.sliding_window_view(idx, (grid.d_y, grid.d_x))[:: grid.stride, :: grid.stride]
    flat = _vlad_head(x, soft_assign(x, vlad), win.reshape(grid.count, -1), vlad, pca)
    return PatchDescriptorSet(descriptors=flat, grid=grid)


def window_residuals(
    x: np.ndarray,
    assignments: np.ndarray,
    windows: np.ndarray,
    p: VladParams,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(windows, K, D) float64 residual sums, one batched product over every row of
    indices into x in windows: block w is vlad_raw(x[windows[w]], assignments[windows[w]], p).T.
    The product is written into out when given; the centre term is subtracted
    eight windows at a time, so no (windows, K, D) buffer is built for it."""
    aw = assignments[windows]
    raw = np.matmul(aw.transpose(0, 2, 1), x[windows].astype(np.float64), out=out)
    sums = aw.sum(axis=1)[:, :, None]
    centers = p.centers.astype(np.float64)
    for w0 in range(0, len(raw), 8):
        raw[w0 : w0 + 8] -= sums[w0 : w0 + 8] * centers
    return raw


def _vlad_head(
    x: np.ndarray, assignments: np.ndarray, windows: np.ndarray, p: VladParams, pca: Optional[PcaModel]
) -> np.ndarray:
    """The VLAD head, one row per window: residual sums, L2 per cluster (a zero block
    stays zero) and L2 of the whole (a zero whole is refused) in float64, a band of
    windows at a time, rounded into float32 rows; then the projection, if any, one
    staged group of bands at a time.

    On tensor.band_workers, each band's windows may be normalized, and each
    group's staged rows projected, in two halves at once (at least two rows a half
    for the projection). Every window's row is computed on its own, and on the
    OpenBLAS the tests run with, half of a large projection GEMM's rows carries
    the bits of the whole GEMM's (the tests compare them, and default-size rows at
    half and twice the default band). A small GEMM can round differently, so small
    groups' rows depend on HEAD_BAND_BYTES: at 768 -> 512 dims (24-dim features,
    32 clusters) in halves at once, one-window bands (four-row groups) changed
    over 90% of the elements of 80-window bands' rows, by up to 1.4e-7. The
    calling thread allocates the band, staging and output buffers; the pool thread
    allocates only the temporaries of its half (gathered window rows, eight
    windows' centre terms, the projection's float32 products and their float64
    copies), each under 1 MB at the default size. Projected rows are float32,
    assigned from the float64 renormalized rows, which rounds them as a cast
    would."""
    n = len(windows)
    k, d = p.centers.shape
    band = max(1, HEAD_BAND_BYTES // (k * d * 8))
    # Four bands per projection GEMM: with one, the GEMM re-packs the whole
    # projection for every band, about 70 ms more per default-size image.
    group = n if pca is None else 4 * band
    # The projected rows outlive the band buffers, so they are allocated first:
    # allocated between them, they kept the heap from shrinking once the
    # buffers were freed, and a later 60 MB computation grew the process by 10 MB.
    out = None if pca is None else np.empty((n, pca.out_dim), dtype=np.float32)
    stage = np.empty((min(group, n), k * d), dtype=np.float32)
    buf = np.empty((min(band, n), k, d))

    def normalize(w0: int, g0: int, lo: int, hi: int) -> None:
        """Windows w0 + lo .. w0 + hi, staged at their offset from g0."""
        raw = window_residuals(x, assignments, windows[w0 + lo : w0 + hi], p, out=buf[lo:hi])
        norms = np.sqrt(np.einsum("pkd,pkd->pk", raw, raw))
        raw /= np.where(norms > 0.0, norms, 1.0)[:, :, None]
        flat = raw.reshape(len(raw), -1)
        totals = np.sqrt(np.einsum("pj,pj->p", flat, flat))
        if np.any(totals == 0.0):
            raise DegenerateInputError("a window produced an identically zero descriptor")
        flat /= totals[:, None]
        stage[w0 - g0 + lo : w0 - g0 + hi] = flat

    def project(g0: int, lo: int, hi: int) -> None:
        out[g0 + lo : g0 + hi] = _project_rows(stage[lo:hi], pca)

    with band_workers() as split:
        for g0 in range(0, n, group):
            g1 = min(g0 + group, n)
            for w0 in range(g0, g1, band):
                split(partial(normalize, w0, g0), min(w0 + band, g1) - w0, 1)
            if pca is not None:
                split(partial(project, g0), g1 - g0, 2)
    return stage if out is None else out


def _as_assignments(assignments: np.ndarray, n: int, p: VladParams) -> np.ndarray:
    a = np.asarray(assignments, dtype=np.float64)
    if a.shape != (n, p.cluster_count):
        raise ShapeError(f"assignments shape {a.shape} must be (N, K) = ({n}, {p.cluster_count})")
    return a


def _as_descriptor_rows(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"descriptors must be (N, D), got rank {x.ndim}")
    if x.shape[1] != dim:
        raise ShapeError(f"descriptor dim {x.shape[1]} does not match expected {dim}")
    if x.shape[0] < 1:
        raise ShapeError("need at least one descriptor")
    return x
