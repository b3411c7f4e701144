"""Patch matching: attention enhancement, similarity scores, optimal transport.

Query and candidate patch descriptors pass through alternating self- and
cross-attention rounds, inner products of the enhanced descriptors form the
score matrix (deliberately left un-normalized), and entropy-regularized
optimal transport with a dustbin row/column turns scores into a soft
assignment. Attention keeps float32 pairs in float32; the rest runs in float64.
The score matrix is built in fixed 128-row float64 bands of the query set, so
no whole float64 copy of it is held. The transport's scaling updates are
over-relaxed after a plain warm-up, so sharp pairs (reg 0.02) converge inside
the default cap of 100 iterations; the plain loop stays for the loss.
With BLAS on one thread and two usable CPUs, float32 attention and the score
matrix's bands run in two halves at once, with the bits they have run whole;
the vprkit command leaves BLAS's threads unset, so there each step runs whole
on a two-thread BLAS, as before.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

import numpy as np

from .errors import EmptyGroundTruthWarning, ShapeError
from .tensor import split_halves


@dataclass(frozen=True)
class AttentionLayer:
    """One attention round: key/query maps w_f, w_g (key_dim, dim), value map w_h (dim, dim)."""

    w_f: np.ndarray
    w_g: np.ndarray
    w_h: np.ndarray
    mode: Literal["self", "cross"]

    def __post_init__(self) -> None:
        if self.w_f.ndim != 2 or self.w_g.shape != self.w_f.shape:
            raise ShapeError(f"w_f and w_g must share shape (key_dim, dim), got {self.w_f.shape} and {self.w_g.shape}")
        dim = self.w_f.shape[1]
        if self.w_h.shape != (dim, dim):
            raise ShapeError(f"w_h must be ({dim}, {dim}), got {self.w_h.shape}")
        if self.mode not in ("self", "cross"):
            raise ShapeError(f"mode must be 'self' or 'cross', got {self.mode!r}")
        for name in ("w_f", "w_g", "w_h"):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float32))

    @property
    def dim(self) -> int:
        return self.w_f.shape[1]


@dataclass(frozen=True)
class MatcherParams:
    """The attention stack plus the learnable dustbin score."""

    layers: tuple[AttentionLayer, ...]
    dustbin_score: float = 1.0

    def __post_init__(self) -> None:
        dims = {layer.dim for layer in self.layers}
        if len(dims) > 1:
            raise ShapeError(f"attention layers disagree on descriptor dim: {sorted(dims)}")
        if not np.isfinite(self.dustbin_score):
            raise ShapeError("dustbin score must be finite")

    @property
    def dim(self) -> Optional[int]:
        return self.layers[0].dim if self.layers else None


def random_matcher_params(
    dim: int,
    rng: np.random.Generator,
    rounds: int = 2,
    dustbin_score: float = 0.9,
) -> MatcherParams:
    """rounds alternating (self, cross) layers with Gaussian key weights scaled by
    1/sqrt(dim). Message weights get an extra 0.1 gain so the residual updates
    perturb rather than swamp the unit-norm inputs; score matrices then stay at
    inner-product scale and the default dustbin sits inside their range."""
    if rounds < 0:
        raise ShapeError(f"rounds must be >= 0, got {rounds}")
    scale = 1.0 / np.sqrt(dim)
    message_scale = 0.1 * scale
    layers = []
    for _ in range(rounds):
        for mode in ("self", "cross"):
            layers.append(
                AttentionLayer(
                    w_f=(rng.standard_normal((dim, dim)) * scale).astype(np.float32),
                    w_g=(rng.standard_normal((dim, dim)) * scale).astype(np.float32),
                    w_h=(rng.standard_normal((dim, dim)) * message_scale).astype(np.float32),
                    mode=mode,
                )
            )
    return MatcherParams(layers=tuple(layers), dustbin_score=dustbin_score)


def attention_forward(x_src: np.ndarray, x_dst: np.ndarray, layer: AttentionLayer) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate source descriptors into each destination.

    Logits are f(src_i) . g(dst_j). The weights into each destination form a
    softmax over sources, so every column of the returned (N_src, N_dst) map
    sums to 1. The enhanced output is x_dst[j] + sum_i rho[i, j] * w_h @ x_src[i].
    Both are computed in float32 if both inputs are float32, in float64 otherwise.

    Source rows are projected into keys and values; then each destination row
    j gets its query, column j of the logits, their softmax and output row j,
    all in buffers the calling thread allocates. A float32 call runs each of
    the two steps as one split_halves call, whose halves hold at least 64 rows
    and whose GEMMs each do at least 2**20 multiply-adds; tensor's docstring
    says why float64 and smaller halves do not split.
    """
    dtype = _pair_dtype(x_src, x_dst)
    xs = _as_rows(x_src, layer.dim, "source", dtype)
    xd = _as_rows(x_dst, layer.dim, "destination", dtype)
    # Cast, not promote, the weights: float64 @ float32 skips BLAS and rounds differently.
    w_f, w_g, w_h = (w.astype(dtype, copy=False) for w in (layer.w_f, layer.w_g, layer.w_h))
    f = np.empty((len(xs), len(w_f)), dtype=dtype)
    values = np.empty((len(xs), layer.dim), dtype=dtype)
    rho = np.empty((len(xs), len(xd)), dtype=dtype)
    out = np.empty((len(xd), layer.dim), dtype=dtype)

    def project(lo: int, hi: int) -> None:
        np.matmul(xs[lo:hi], w_f.T, out=f[lo:hi])
        np.matmul(xs[lo:hi], w_h.T, out=values[lo:hi])

    def attend(lo: int, hi: int) -> None:
        """Columns lo .. hi of rho, the logits turned into weights in place, and their output rows."""
        # Output rows lo .. hi hold the query projection until the output overwrites it.
        g = np.matmul(xd[lo:hi], w_g.T, out=out[lo:hi] if w_g.shape == w_h.shape else None)
        cols = np.matmul(f, g.T, out=rho[:, lo:hi])
        cols -= cols.max(axis=0, keepdims=True)
        np.exp(cols, out=cols)
        cols /= cols.sum(axis=0, keepdims=True)
        np.matmul(cols.T, values, out=out[lo:hi])
        out[lo:hi] += xd[lo:hi]

    def least(*row_costs: int) -> int:
        """Rows a half holds: 64, and enough that each GEMM costing row_costs
        multiply-adds a row does 2**20 of them."""
        return max(64, -(-(1 << 20) // min(row_costs)))

    if dtype == np.float32:
        k, d = len(w_f), layer.dim
        split_halves(project, len(xs), least(k * d, d * d))
        split_halves(attend, len(xd), least(k * d, k * len(xs), d * len(xs)))
    else:
        project(0, len(xs))
        attend(0, len(xd))
    return out, rho


def enhance_descriptors(q: np.ndarray, d: np.ndarray, params: MatcherParams) -> tuple[np.ndarray, np.ndarray]:
    """Run the attention stack over both descriptor sets, in one dtype per pair.

    Self layers update each set from itself; cross layers update both sets
    symmetrically from the other, using the same weights for both directions.
    """
    dtype = _pair_dtype(q, d)
    yq = np.asarray(q, dtype=dtype)
    yd = np.asarray(d, dtype=dtype)
    for layer in params.layers:
        if layer.mode == "self":
            yq, _ = attention_forward(yq, yq, layer)
            yd, _ = attention_forward(yd, yd, layer)
        else:
            new_q, _ = attention_forward(yd, yq, layer)
            new_d, _ = attention_forward(yq, yd, layer)
            yq, yd = new_q, new_d
    return yq, yd


# Rows of yq in one float64 band of the score matrix. A band's products round
# as a GEMM of this height, not as the whole product, so the height is fixed.
SCORE_BAND_ROWS = 128


def score_matrix(yq: np.ndarray, yd: np.ndarray) -> np.ndarray:
    """Pairwise inner products, (M, N), in float64. No re-normalization on
    purpose: the transport layer consumes raw similarities.

    yd is cast to float64 once; yq is cast and multiplied SCORE_BAND_ROWS rows
    at a time into the one output, so no whole float64 copy of yq is held. One
    split_halves call runs the bands, in two halves of whole bands if at once,
    each band the same GEMM on either thread, so the halves carry the bits of
    the bands run in turn; each half casts its bands into its own buffer, which
    the calling thread allocates. Those bits differ from one whole GEMM's by
    rounding: under 8 eps * sum_k |yq_ik yd_jk| in the tests, and up to 6.4e-14
    on Gaussian 1131x512 sets on the tested OpenBLAS.
    """
    yq = np.asarray(yq)
    yd = np.asarray(yd)
    if yq.ndim != 2 or yd.ndim != 2 or yq.shape[1] != yd.shape[1]:
        raise ShapeError(f"descriptor sets disagree: {yq.shape} vs {yd.shape}")
    yd_t = yd.astype(np.float64, copy=False).T
    out = np.empty((len(yq), len(yd)))
    staged = np.empty((2, min(SCORE_BAND_ROWS, len(yq)), yq.shape[1]))  # a band buffer for each half

    def bands(lo: int, hi: int) -> None:
        buf = staged[int(lo > 0)]
        for start in range(lo * SCORE_BAND_ROWS, min(hi * SCORE_BAND_ROWS, len(yq)), SCORE_BAND_ROWS):
            stop = min(start + SCORE_BAND_ROWS, len(yq))
            band = buf[: stop - start]
            band[...] = yq[start:stop]
            np.matmul(band, yd_t, out=out[start:stop])

    split_halves(bands, -(-len(yq) // SCORE_BAND_ROWS), 1)
    return out


@dataclass(frozen=True)
class AssignmentMatrix:
    """Dustbin-augmented transport plan, (M+1, N+1), with iteration metadata."""

    z: np.ndarray
    iterations: int
    converged: bool

    @property
    def interior(self) -> np.ndarray:
        return self.z[:-1, :-1]


def _fill_scaled(out: np.ndarray, scores: np.ndarray, dustbin_score: float, reg: float) -> np.ndarray:
    """Write the dustbin-augmented scores over reg into out, an (M+1, N+1) float64 array."""
    m, n = scores.shape
    out[:m, :n] = scores
    out[m, :] = dustbin_score
    out[:m, n] = dustbin_score
    out /= reg
    return out


def _log_marginals(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Each patch carries unit mass; the dustbin absorbs the other side's total.
    row = np.zeros(m + 1)
    row[m] = np.log(n)
    col = np.zeros(n + 1)
    col[n] = np.log(m)
    return row, col


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    hi = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - hi).sum(axis=axis, keepdims=True)) + hi
    return np.squeeze(out, axis=axis)


# Scalings outside [1/_SCALING_RANGE, _SCALING_RANGE] are folded into the log
# duals. A plan row sums to at least r_i / (M + N) after a column update (a
# column to c_j / (M + N) after a row update), so inside this range no
# matrix-vector product falls below about 1e-50 / (M + N); a kernel entry that
# underflows to zero drops less than 1e-200 of it, and nothing overflows.
_SCALING_RANGE = 1e50

# Over-relaxation: plain iterations before it starts, its largest factor, and
# the growth of the marginal error over the best so far that stops it.
_WARM_UP = 12
_OMEGA_CAP = 1.9
_GROWTH_LIMIT = 10.0


def sinkhorn_assign(
    scores: np.ndarray,
    dustbin_score: float,
    reg: float = 1.0,
    tol: float = 1e-6,
    max_iters: int = 100,
    relax: bool = True,
) -> AssignmentMatrix:
    """Entropy-regularized transport of scores to a soft assignment.

    The score matrix is augmented with a dustbin row and column pinned at a
    single scalar score. Target marginals r and c are 1 for every real
    row/column, N for the dustbin row and M for the dustbin column.

    The iterates are those of alternating log-domain updates, computed in
    scaling form (Cuturi, arXiv 1306.0895). The first row update is done in
    the log domain, f = log r - logsumexp_j(s), and fixes the kernel
    K = exp(s + f[:, None] + g[None, :]) with g = 0, so no entry of K exceeds
    its row's marginal whatever reg is. Each iteration is then two
    matrix-vector products: u = r / (K v), v = c / (K^T u). When a scaling
    leaves a fixed range it is absorbed into the log duals (f += log u,
    g += log v), K is rebuilt and the scalings reset to 1 (Schmitzer,
    arXiv 1610.06519), which keeps small reg stable. The dustbin row and
    column keep an entry of every row and column of K away from zero.

    One (M+1, N+1) float64 array is held: K, refilled in place from scores
    (augmented, over reg) at the first row update and at each absorption,
    and scaled into the plan at the end. scores itself is never written.

    Convergence means the worst marginal violation is within tol. It is read
    from vectors the loop has anyway: row sums of the plan are u * (K v),
    where K v is the product the next row update needs, and column sums are
    v * (K^T u). tol=0 disables the early exit and always runs max_iters
    iterations. Non-convergence is reported through the flag, never raised.
    The plan is u[:, None] * K * v[None, :].

    With relax (the default), the updates are over-relaxed once 12 plain
    iterations have run (Thibault et al., arXiv 1711.01851):
    u <- u * (r / (u * K v))^w, and v likewise, with w = min(1.9,
    2 / (1 + sqrt(1 - rho))), the classical SOR factor for the contraction
    rate rho that the marginal error showed over the last four plain
    iterations. An error that is not finite or exceeds 10x the best so far
    puts the loop back on its last iterate within that bound, and it goes on
    plain. A pair that converges within the 12 plain iterations, as pairs at
    reg 1.0 do, gets the plain loop's bits. At reg 0.02 the default-size pairs
    measured converge in 51-54 iterations where the plain loop needs about
    150. Sets whose mass all goes to the dustbin converge no faster either
    way. relax=False runs the plain loop throughout, whose iterates are those
    of the log-domain loop; the fixed-iteration loss uses it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or 0 in scores.shape:
        raise ShapeError(f"scores must be a non-empty (M, N) matrix, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)) or not np.isfinite(dustbin_score):
        raise ShapeError("scores and dustbin score must be finite")
    if not 0 < reg < np.inf:
        raise ShapeError(f"regularization must be > 0 and finite, got {reg}")
    if not 0 <= tol < np.inf:
        raise ShapeError(f"tol must be >= 0 and finite, got {tol}")
    if max_iters < 1:
        raise ShapeError(f"max_iters must be >= 1, got {max_iters}")

    m, n = scores.shape
    log_r, log_c = _log_marginals(m, n)
    r, c = np.exp(log_r), np.exp(log_c)

    # First row update in the log domain; its exponentials become the kernel.
    kernel = _fill_scaled(np.empty((m + 1, n + 1)), scores, dustbin_score, reg)
    hi = kernel.max(axis=1)
    kernel -= hi[:, None]
    np.exp(kernel, out=kernel)
    row_scale = r / kernel.sum(axis=1)
    kernel *= row_scale[:, None]
    f = np.log(row_scale) - hi
    g = np.zeros(n + 1)
    u = np.ones(m + 1)
    v = np.ones(n + 1)

    iterations = 0
    converged = False
    kv = None
    omega = 1.0
    best = early = np.inf
    for _ in range(max_iters):
        kept = u, v, kv
        if kv is not None:
            u = r / kv if omega == 1.0 else u * (r / (u * kv)) ** omega
        ktu = kernel.T @ u
        v = c / ktu if omega == 1.0 else v * (c / (v * ktu)) ** omega
        iterations += 1
        kv = kernel @ v
        error = max(np.abs(u * kv - r).max(), np.abs(v * ktu - c).max())
        if tol > 0 and error <= tol:
            converged = True
            break
        if omega != 1.0 and not error <= _GROWTH_LIMIT * best:  # also a NaN or inf error
            u, v, kv = kept
            omega = 1.0
            continue
        best = min(best, error)
        if relax and iterations == _WARM_UP - 4:
            early = error
        elif relax and iterations == _WARM_UP and early > 0.0:
            rho = min(1.0, (error / early) ** 0.25)
            omega = min(_OMEGA_CAP, 2.0 / (1.0 + np.sqrt(1.0 - rho)))
        if _out_of_range(u) or _out_of_range(v):
            f += np.log(u)
            g += np.log(v)
            _fill_scaled(kernel, scores, dustbin_score, reg)
            kernel += f[:, None]
            kernel += g[None, :]
            np.exp(kernel, out=kernel)
            u = np.ones(m + 1)
            v = np.ones(n + 1)
            kv = kernel.sum(axis=1)
    kernel *= u[:, None]
    kernel *= v[None, :]
    return AssignmentMatrix(z=kernel, iterations=iterations, converged=converged)


def _out_of_range(x: np.ndarray) -> bool:
    return bool(x.max() > _SCALING_RANGE or x.min() < 1.0 / _SCALING_RANGE)


def match_score(assignment: AssignmentMatrix) -> float:
    """Interior transport mass over min(M, N); 1 means everything matched."""
    interior = assignment.interior
    return float(interior.sum() / min(interior.shape))


@dataclass(frozen=True)
class GroundTruthMatches:
    """Index pairs (query_patch, candidate_patch) known to correspond."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for pair in self.pairs:
            if len(pair) != 2 or pair[0] < 0 or pair[1] < 0:
                raise ShapeError(f"ground-truth pairs must be non-negative index 2-tuples, got {pair!r}")
            if pair in seen:
                raise ShapeError(f"duplicate ground-truth pair {pair!r}")
            seen.add(pair)

    def __len__(self) -> int:
        return len(self.pairs)


def _check_pairs_in(pairs: Iterable[tuple[int, int]], m: int, n: int) -> None:
    for i, j in pairs:
        if i >= m or j >= n:
            raise ShapeError(f"ground-truth pair ({i}, {j}) is outside the {m}x{n} interior")


_Z_FLOOR = 1e-12


def nll_loss(assignment: AssignmentMatrix, matches: GroundTruthMatches) -> float:
    """Negative log-likelihood of the interior assignment over the ground-truth pairs.

    Probabilities are clamped at 1e-12 before the log. An empty match set
    yields 0.0 and raises EmptyGroundTruthWarning.
    """
    if len(matches) == 0:
        warnings.warn("ground-truth match set is empty; loss is 0", EmptyGroundTruthWarning, stacklevel=2)
        return 0.0
    interior = assignment.interior
    _check_pairs_in(matches.pairs, *interior.shape)
    rows = [i for i, _ in matches.pairs]
    cols = [j for _, j in matches.pairs]
    probs = np.maximum(interior[rows, cols], _Z_FLOOR)
    return float(-np.log(probs).sum())


def nll_loss_from_scores(
    scores: np.ndarray,
    matches: GroundTruthMatches,
    dustbin_score: float,
    reg: float = 1.0,
    iters: int = 100,
) -> float:
    """Fixed-iteration forward used for gradient work; no early stopping, so the
    value is a smooth function of the scores."""
    # The plain loop, whose unrolled iterations loss_gradient differentiates.
    assignment = sinkhorn_assign(scores, dustbin_score, reg=reg, tol=0.0, max_iters=iters, relax=False)
    return nll_loss(assignment, matches)


def loss_gradient(
    scores: np.ndarray,
    matches: GroundTruthMatches,
    dustbin_score: float,
    reg: float = 1.0,
    iters: int = 100,
) -> np.ndarray:
    """d(nll_loss_from_scores)/d(scores), by reverse-mode through the unrolled iterations.

    Returns an (M, N) array covering the interior scores; sensitivity to the
    dustbin scalar is not included.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(matches) == 0:
        warnings.warn("ground-truth match set is empty; gradient is 0", EmptyGroundTruthWarning, stacklevel=2)
        return np.zeros_like(scores)
    m, n = scores.shape
    _check_pairs_in(matches.pairs, m, n)
    s = _fill_scaled(np.empty((m + 1, n + 1)), scores, dustbin_score, reg)
    log_r, log_c = _log_marginals(m, n)

    # Forward, keeping the per-iteration duals for the reverse sweep.
    log_u = np.zeros(m + 1)
    log_v = np.zeros(n + 1)
    us = [log_u]
    vs = [log_v]
    for _ in range(iters):
        log_u = log_r - _logsumexp(s + vs[-1][None, :], axis=1)
        log_v = log_c - _logsumexp(s + log_u[:, None], axis=0)
        us.append(log_u)
        vs.append(log_v)

    log_z = s + us[-1][:, None] + vs[-1][None, :]
    g_logz = np.zeros((m + 1, n + 1))
    floor = np.log(_Z_FLOOR)
    for i, j in matches.pairs:
        if log_z[i, j] > floor:  # clamped entries contribute zero gradient
            g_logz[i, j] = -1.0
    g_s = g_logz.copy()
    g_u = g_logz.sum(axis=1)
    g_v = g_logz.sum(axis=0)

    for t in range(iters, 0, -1):
        # log_v[t] = log_c - logsumexp_i(s + log_u[t]); softmax over axis 0.
        a = s + us[t][:, None]
        a = np.exp(a - _logsumexp(a, axis=0)[None, :])
        contrib = -a * g_v[None, :]
        g_s += contrib
        g_u += contrib.sum(axis=1)
        g_v = np.zeros(n + 1)
        # log_u[t] = log_r - logsumexp_j(s + log_v[t-1]); softmax over axis 1.
        b = s + vs[t - 1][None, :]
        b = np.exp(b - _logsumexp(b, axis=1)[:, None])
        contrib = -b * g_u[:, None]
        g_s += contrib
        g_v += contrib.sum(axis=0)
        g_u = np.zeros(m + 1)

    return g_s[:m, :n] / reg


class PairScore(float):
    """A pair's match score that also carries how its transport ended.

    It is a plain float in every arithmetic use; ``iterations`` and
    ``converged`` are copied from the AssignmentMatrix it summarizes.
    """

    __slots__ = ("iterations", "converged")

    def __new__(cls, value: float, iterations: int, converged: bool) -> "PairScore":
        out = super().__new__(cls, value)
        out.iterations = iterations
        out.converged = converged
        return out


def match_pair(
    q_patches: np.ndarray,
    d_patches: np.ndarray,
    params: MatcherParams,
    reg: float = 1.0,
    tol: float = 1e-6,
    max_iters: int = 100,
) -> PairScore:
    """Enhance, score, transport, and summarize one query/candidate pair."""
    # The enhanced sets are let go once their score matrix exists.
    scores = score_matrix(*enhance_descriptors(q_patches, d_patches, params))
    assignment = sinkhorn_assign(scores, params.dustbin_score, reg=reg, tol=tol, max_iters=max_iters)
    return PairScore(match_score(assignment), assignment.iterations, assignment.converged)


def _pair_dtype(a: np.ndarray, b: np.ndarray) -> type:
    return np.float32 if np.asarray(a).dtype == np.asarray(b).dtype == np.float32 else np.float64


def _as_rows(x: np.ndarray, dim: int, what: str, dtype: type) -> np.ndarray:
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"{what} descriptors must be (N, {dim}), got shape {x.shape}")
    if x.shape[0] < 1:
        raise ShapeError(f"{what} descriptor set is empty")
    return x
