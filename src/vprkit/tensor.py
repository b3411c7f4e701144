"""Dense tensor kernels the rest of the package computes with.

Activations are float32 arrays, laid out (batch, channels, height, width) and
row-major. Precision policy:
- the backbone's convolution GEMMs, batch norm and resizing compute in float64
  before results are cast back to float32;
- the VLAD head (residual sums, per-cluster and whole-vector L2) is float64;
- the VLAD projection is a float32 GEMM whose rows are renormalized in float64;
- attention runs in the dtype of its inputs, float32 for stored patch sets,
  and only float32 attention runs in halves (below);
- the score matrix, Sinkhorn, the loss and its gradient, and anything an
  oracle checks at 1e-6 run in float64; the score matrix casts its query set
  to float64 one fixed 128-row band at a time, so its products round as
  128-row GEMMs, not as one whole GEMM.
float32 convolution GEMMs and a float32 VLAD head were both measured and miss
the oracle tolerances, so those stages stay float64.

A convolution is one float64 GEMM per band of output rows, over columns
copied straight from the unpadded input (conv2d); the result does not depend
on the band size. BAND_BYTES bounds the float64 scratch of one band, for
convolutions (columns plus products) and the VLAD head (residual sums) alike.

The halves rule, which split_halves applies on every call: a step over items
[0, n) runs in two halves at once, [0, n // 2) on the calling thread and the
rest on a one-thread pool that has ended when the call returns, when BLAS runs
each call on one thread (blas_threads() == 1), the process may use two CPUs
(its affinity mask holds two and no cgroup CPU quota allows fewer) and each
half holds at least the step's least items. Otherwise the calling thread runs
the step whole and a multi-threaded BLAS spreads each GEMM (halves beside
BLAS's own threads measured slower than either); the vprkit command leaves
BLAS's threads unset, so on two CPUs it runs every step whole on a two-thread
BLAS. A convolution splits each image's output rows, each half filling and
multiplying bands of its own rows; a large float32 attention call splits its
source rows, then its destination rows; the score matrix splits its 128-row
float64 bands; the VLAD head splits each band's windows and each staged
group's rows; the seeded projection's passes split their 512-column bands.
Filling copies values, and neither a convolution band's height nor a cut of a
GEMM's output rows changes the bits of its products on the OpenBLAS the tests
run with, which the tests compare at the default backbone's and matcher's
shapes. A BLAS that picks its kernel by shape need not, just as OpenBLAS
already picks its kernels by the host's CPU, and OpenBLAS itself may send a
small product (up to about a million multiply-adds) to a small-matrix kernel:
float32 attention cut into halves with such products, on sets of under about
60 rows or at key or value dims of 16, was measured not to keep its bits, nor
was a float64 logits product cut by rows or by columns. So attention cuts only
float32 calls, into halves of at least 64 rows whose GEMMs each do at least
2**20 multiply-adds. The score matrix is the same fixed bands on either
thread, so its halves carry the bits of its bands run in turn. Two halves is
the cut measured to pay on two CPUs; more CPUs are not used. The calling
thread allocates every buffer and the pool thread writes into them in place,
so no multi-MB block lands in its heap (a score matrix whose pool thread cast
its own bands raised the benchmark's query-rerank peak RSS by up to 4.5 MB);
the one exception is the seeded projection, built once per model, whose column
bands each leave a 2 MB product there for a moment.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ShapeError

# A Tensor4 is a plain ndarray; the alias marks the (B, C, H, W) float32 contract.
Tensor4 = np.ndarray

# Bytes of float64 scratch per band: conv2d's columns plus products, in a block
# whose halves each take half, and the VLAD head's residual sums.
BAND_BYTES = 8 << 20


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has
    one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads() -> int:
    """The threads OpenBLAS spreads one call over, read as it reads them when it
    loads: OPENBLAS_NUM_THREADS, else GOTO_NUM_THREADS, else OMP_NUM_THREADS,
    else one per usable CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return min(count, usable_cpus())
    return usable_cpus()


# Where the cgroup CPU controller's files are mounted: v2's cpu.max, or v1's cpu/ directory.
CGROUP_ROOT = Path("/sys/fs/cgroup")


def quota_cpus() -> float:
    """The CPUs a cgroup CPU quota lets this process use, inf when none is set or
    none can be read: cgroup v2's cpu.max ("<quota> <period>", or "max ..." for
    none), else cgroup v1's cpu.cfs_quota_us over cpu.cfs_period_us (a quota of
    -1 for none). OpenBLAS sizes its threads by the affinity mask alone, so
    blas_threads does not read this."""
    try:
        quota, period = (CGROUP_ROOT / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota, period = ((CGROUP_ROOT / "cpu" / f"cpu.cfs_{name}_us").read_text() for name in ("quota", "period"))
        except OSError:
            return math.inf
    try:
        quota, period = int(quota), int(period)
    except ValueError:
        return math.inf
    return quota / period if quota > 0 and period > 0 else math.inf


def split_halves(fn: Callable[[int, int], None], n: int, least: int) -> None:
    """Cover [0, n) with calls fn(lo, hi) and return when they are done. Where the
    halves rule (module docstring) allows, the calling thread runs [0, n // 2)
    while a one-thread pool, ended on return, runs [n // 2, n); otherwise the
    calling thread runs fn(0, n). An exception from the first half is raised,
    else one from the second."""
    if n < 2 * least or not (quota_cpus() >= 2 and blas_threads() == 1 and usable_cpus() > 1):
        fn(0, n)
        return
    # Leaving the block waits for the pool thread, also when the first half raises.
    with ThreadPoolExecutor(1, thread_name_prefix="vprkit-band") as pool:
        second = pool.submit(fn, n // 2, n)
        fn(0, n // 2)
    second.result()


def as_tensor4(x: np.ndarray) -> Tensor4:
    """Validate the (B, C, H, W) float32 layout, converting dtype if needed."""
    arr = np.asarray(x)
    if arr.ndim != 4:
        raise ShapeError(f"expected a rank-4 (B, C, H, W) tensor, got rank {arr.ndim} with shape {arr.shape}")
    if arr.dtype != np.float32:
        arr = arr.astype(np.float32)
    return np.ascontiguousarray(arr)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Number of valid kernel placements along one axis."""
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    span = size + 2 * padding - kernel
    if span < 0:
        raise ShapeError(f"kernel {kernel} does not fit input of size {size} with padding {padding}")
    return span // stride + 1


@dataclass(frozen=True)
class ConvParams:
    """A 2-D convolution: weight (out, in, kh, kw), bias (out,), scalar stride and zero padding."""

    weight: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        if self.weight.ndim != 4:
            raise ShapeError(f"conv weight must be rank 4, got shape {self.weight.shape}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weight.shape[0]:
            raise ShapeError(
                f"conv bias shape {self.bias.shape} does not match weight output channels {self.weight.shape[0]}"
            )
        if self.stride < 1:
            raise ShapeError(f"conv stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"conv padding must be >= 0, got {self.padding}")
        object.__setattr__(self, "weight", np.ascontiguousarray(self.weight, dtype=np.float32))
        object.__setattr__(self, "bias", np.ascontiguousarray(self.bias, dtype=np.float32))

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.weight.shape[2], self.weight.shape[3]


@dataclass(frozen=True)
class BatchNormParams:
    """Inference-time batch norm: per-channel gamma, beta, running mean/var and eps."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self) -> None:
        c = self.gamma.shape
        for name in ("gamma", "beta", "running_mean", "running_var"):
            arr = getattr(self, name)
            if arr.ndim != 1 or arr.shape != c:
                raise ShapeError(f"batch norm {name} must be rank 1 of matching length, got {arr.shape} vs {c}")
            object.__setattr__(self, name, np.ascontiguousarray(arr, dtype=np.float32))
        if self.eps < 0:
            raise ShapeError(f"batch norm eps must be >= 0, got {self.eps}")
        if np.any(self.running_var < 0):
            raise ShapeError("batch norm running_var must be non-negative")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def neutral_batchnorm(channels: int) -> BatchNormParams:
    """gamma=1, beta=0, mean=0, var=1 at the default eps: a scale by 1/sqrt(1 + eps)."""
    ones = np.ones(channels, dtype=np.float32)
    zeros = np.zeros(channels, dtype=np.float32)
    return BatchNormParams(gamma=ones, beta=zeros, running_mean=zeros, running_var=ones.copy())


def conv2d(x: Tensor4, p: ConvParams) -> Tensor4:
    """Cross-correlate x with p.weight and add p.bias.

    Output spatial size along each axis is floor((in + 2*padding - kernel)/stride) + 1.
    Each band of output rows fills a float64 column buffer of shape
    (in_channels, kh, kw, rows, out_w), one strided slice of the unpadded input
    per tap, with zeros where a tap reads padding; then
    weight.reshape(out, in*kh*kw) @ columns is one GEMM whose float64 products
    are already in (out, rows, out_w) order. A band's columns and products
    together hold about BAND_BYTES. Each image's output rows go through one
    split_halves call, each half in near-equal bands of its own rows in its half
    of the band block. Each half, and each band of an output with two positions,
    holds at least two, so no GEMM becomes a matrix-vector product. Products
    accumulate in float64; the output is a fresh contiguous float32 array.
    """
    x = as_tensor4(x)
    b, c, h, w = x.shape
    if c != p.in_channels:
        raise ShapeError(
            f"input channels {x.shape} do not match conv weight {p.weight.shape} (expected {p.in_channels} channels)"
        )
    (kh, kw), stride, pad = p.kernel_size, p.stride, p.padding
    oh, ow = conv_output_size(h, kh, stride, pad), conv_output_size(w, kw, stride, pad)

    def span(tap: int, size: int, start: int, stop: int) -> tuple[slice, slice]:
        """The outputs o in [start, stop) whose input index o*stride + tap - pad lies in
        [0, size), counted from start, and that input slice."""
        lo = max(start, -((tap - pad) // stride))
        hi = max(lo, min(stop, (size - 1 + pad - tap) // stride + 1))
        first = lo * stride + tap - pad
        return slice(lo - start, hi - start), slice(first, first + (hi - lo - 1) * stride + 1, stride)

    depth, cout = c * kh * kw, p.out_channels
    least = -(-2 // ow)  # output rows that hold two positions: a GEMM over one is a matrix-vector product
    row = (depth + cout) * ow  # float64 columns and products of one output row
    budget = BAND_BYTES // (8 * row)
    # Most rows per band, whole and in a half; near-equal bands of 2 * least - 1 or more hold least.
    whole = max(2 * least - 1, min(oh, budget))
    half = max(2 * least - 1, min(oh - oh // 2, budget // 2))
    block = np.empty(max(whole, 2 * half) * row, dtype=np.float64)
    col_spans = [span(v, w, 0, ow) for v in range(kw)]
    flat_w = p.weight.reshape(cout, depth).astype(np.float64)
    bias = p.bias.astype(np.float64)[:, None]
    out = np.empty((b, cout, oh, ow), dtype=np.float32)

    def rows_of(n: int, lo: int, hi: int) -> None:
        """Output rows lo .. hi of image n, in near-equal bands: a whole call and the
        first half work at the front of the block, the second half at its back."""
        most = whole if hi - lo == oh else half
        buf = block[: most * row] if lo == 0 else block[len(block) - most * row :]
        count = -(-(hi - lo) // most)
        for i in range(count):
            r0, r1 = lo + (hi - lo) * i // count, lo + (hi - lo) * (i + 1) // count
            cols = buf[: depth * (r1 - r0) * ow].reshape(c, kh, kw, r1 - r0, ow)
            for u in range(kh):
                out_rows, in_rows = span(u, h, r0, r1)
                for v, (out_cols, in_cols) in enumerate(col_spans):
                    tap = cols[:, u, v]
                    tap[:, : out_rows.start] = tap[:, out_rows.stop :] = 0.0
                    tap[:, :, : out_cols.start] = tap[:, :, out_cols.stop :] = 0.0
                    if out_rows.stop > out_rows.start and out_cols.stop > out_cols.start:
                        tap[:, out_rows, out_cols] = x[n, :, in_rows, in_cols]
            prod = buf[cols.size : row * (r1 - r0)].reshape(cout, -1)
            np.matmul(flat_w, cols.reshape(depth, -1), out=prod)
            prod += bias
            out[n, :, r0:r1] = prod.reshape(cout, r1 - r0, ow)

    for n in range(b):
        split_halves(partial(rows_of, n), oh, least)
    return out


def relu(x: Tensor4) -> Tensor4:
    """Elementwise max(x, 0)."""
    return np.maximum(as_tensor4(x), np.float32(0.0))


def batchnorm_infer(x: Tensor4, p: BatchNormParams) -> Tensor4:
    """Per-channel (x - mean) / sqrt(var + eps) * gamma + beta using running statistics."""
    x = as_tensor4(x)
    if x.shape[1] != p.channels:
        raise ShapeError(f"input has {x.shape[1]} channels but batch norm expects {p.channels}")
    inv = p.gamma.astype(np.float64) / np.sqrt(p.running_var.astype(np.float64) + p.eps)
    shift = p.beta.astype(np.float64) - p.running_mean.astype(np.float64) * inv
    out = x.astype(np.float64) * inv[None, :, None, None] + shift[None, :, None, None]
    return out.astype(np.float32)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max for stability. Returns float64."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows expects a rank-2 array, got rank {m.ndim}")
    z = m - m.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def bilinear_resize(x: Tensor4, out_h: int, out_w: int) -> Tensor4:
    """Resize spatially with bilinear interpolation (half-pixel centers, edges clamped)."""
    x = as_tensor4(x)
    b, c, h, w = x.shape
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"target dims must be positive, got {out_h}x{out_w}")
    if (out_h, out_w) == (h, w):
        return x.copy()

    def axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, src - lo

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
    xd = x.astype(np.float64)
    top = xd[:, :, y0][:, :, :, x0] * (1 - fx) + xd[:, :, y0][:, :, :, x1] * fx
    bot = xd[:, :, y1][:, :, :, x0] * (1 - fx) + xd[:, :, y1][:, :, :, x1] * fx
    out = top * (1 - fy)[None, None, :, None] + bot * fy[None, None, :, None]
    return out.astype(np.float32)
