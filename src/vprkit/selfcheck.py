"""Built-in invariant suites: fast oracle comparisons runnable from the CLI.

Each suite re-derives a handful of module contracts with slow, direct
reference computations and compares. This is a smoke layer for installed
builds; the full test suite is wider and lives with the source tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import backbone as bb
from . import descriptor as dsc
from . import matcher as mt
from . import retrieval as rt
from . import tensor as tn


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    ok: bool
    detail: str


def _conv_loops(x: np.ndarray, p: tn.ConvParams) -> np.ndarray:
    b, c, h, w = x.shape
    kh, kw = p.kernel_size
    oh = (h + 2 * p.padding - kh) // p.stride + 1
    ow = (w + 2 * p.padding - kw) // p.stride + 1
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p.padding, p.padding), (p.padding, p.padding)))
    out = np.zeros((b, p.out_channels, oh, ow))
    for n in range(b):
        for o in range(p.out_channels):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, ci, i * p.stride + u, j * p.stride + v] * float(p.weight[o, ci, u, v])
                    out[n, o, i, j] = acc + float(p.bias[o])
    return out


def check_tensor_core(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
    p = tn.ConvParams(
        weight=rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        bias=rng.standard_normal(4).astype(np.float32),
        stride=2,
        padding=1,
    )
    got = tn.conv2d(x, p).astype(np.float64)
    want = _conv_loops(x, p)
    err = float(np.abs(got - want).max())
    results.append(CheckResult("tensor_core", "conv2d vs direct loops", err <= 1e-5, f"max abs err {err:.2e}"))

    m = rng.standard_normal((5, 7))
    sums = tn.softmax_rows(m).sum(axis=1)
    err = float(np.abs(sums - 1.0).max())
    results.append(CheckResult("tensor_core", "softmax rows sum to 1", err <= 1e-6, f"max dev {err:.2e}"))

    ok = True
    for size in range(1, 20):
        for k in range(1, 5):
            for s in range(1, 4):
                for pad in range(0, 3):
                    if size + 2 * pad < k:
                        continue
                    count = sum(1 for start in range(0, size + 2 * pad - k + 1) if start % s == 0)
                    ok &= tn.conv_output_size(size, k, s, pad) == count
    results.append(CheckResult("tensor_core", "conv output size vs enumeration", ok, "sizes 1..19"))
    return results


def check_backbone(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    worst = 0.0
    for _ in range(20):
        cin = int(rng.integers(2, 9))
        spec = bb.NetworkSpec(stages=(bb.StageSpec(1, cin * 2), bb.StageSpec(2, cin * 2)), in_channels=cin)
        net = bb.random_backbone(spec, rng, bn="random")
        x = rng.standard_normal((1, cin, 32, 32)).astype(np.float32)
        worst = max(worst, bb.form_deviation(bb.reparameterize_backbone(net), x)[0])
    results.append(CheckResult("backbone", "fused equals multibranch", worst <= 1e-3, f"max abs dev {worst:.2e}"))

    params, _ = bb.count_params_flops(bb.random_backbone(bb.DEFAULT_SPEC, rng), fused=True)
    tally = 0
    c = bb.DEFAULT_SPEC.in_channels
    for stage in bb.DEFAULT_SPEC.stages:
        for i in range(stage.layer_count):
            tally += stage.out_channels * c * 9 + stage.out_channels
            c = stage.out_channels
    results.append(CheckResult("backbone", "fused param tally", params == tally, f"{params} vs {tally}"))
    return results


def check_descriptor(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    worst = 0.0
    for _ in range(20):
        n, d, k = int(rng.integers(1, 11)), int(rng.integers(1, 9)), int(rng.integers(1, 5))
        x = rng.standard_normal((n, d)).astype(np.float32)
        p = dsc.random_vlad_params(d, k, rng)
        a = dsc.soft_assign(x, p)
        v = dsc.vlad_raw(x, a, p)
        want = np.zeros((d, k))
        for j in range(d):
            for kk in range(k):
                for i in range(n):
                    want[j, kk] += a[i, kk] * (float(x[i, j]) - float(p.centers[kk, j]))
        worst = max(worst, float(np.abs(v - want).max()))
    results.append(CheckResult("descriptor", "vlad vs double loop", worst <= 1e-6, f"max abs err {worst:.2e}"))

    ok = True
    for h in range(1, 13):
        for w in range(1, 13):
            for d in range(1, min(5, h + 1, w + 1)):
                for s in range(1, 4):
                    grid = dsc.make_patch_grid(h, w, d, d, s)
                    count = sum(
                        1
                        for top in range(0, h - d + 1, s)
                        for left in range(0, w - d + 1, s)
                    )
                    ok &= grid.count == count
    results.append(CheckResult("descriptor", "patch count vs enumeration", ok, "maps 1..12"))
    return results


def check_matcher(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    worst_marginal = 0.0
    for _ in range(20):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        scores = rng.standard_normal((m, n))
        out = mt.sinkhorn_assign(scores, dustbin_score=0.3, reg=1.0, tol=1e-9, max_iters=5000)
        rows = out.z.sum(axis=1)
        cols = out.z.sum(axis=0)
        dev = max(
            float(np.abs(rows[:m] - 1.0).max()),
            float(np.abs(cols[:n] - 1.0).max()),
            abs(float(rows[m]) - n),
            abs(float(cols[n]) - m),
        )
        worst_marginal = max(worst_marginal, dev)
    results.append(
        CheckResult("matcher", "sinkhorn marginals", worst_marginal <= 1e-5, f"max dev {worst_marginal:.2e}")
    )

    one = mt.sinkhorn_assign(np.zeros((1, 1)), dustbin_score=0.0, reg=1.0, tol=1e-9, max_iters=5000)
    dev = abs(float(one.interior[0, 0]) - 0.5)
    results.append(CheckResult("matcher", "1x1 constant scores give 1/2", dev <= 1e-6, f"dev {dev:.2e}"))

    layer = mt.AttentionLayer(
        w_f=rng.standard_normal((3, 3)).astype(np.float32),
        w_g=rng.standard_normal((3, 3)).astype(np.float32),
        w_h=rng.standard_normal((3, 3)).astype(np.float32),
        mode="cross",
    )
    src = rng.standard_normal((6, 3))
    dst = rng.standard_normal((4, 3))
    _, rho = mt.attention_forward(src, dst, layer)
    dev = float(np.abs(rho.sum(axis=0) - 1.0).max())
    results.append(CheckResult("matcher", "attention columns sum to 1", dev <= 1e-6, f"max dev {dev:.2e}"))

    scores = rng.standard_normal((3, 4))
    matches = mt.GroundTruthMatches(pairs=((0, 1), (2, 0)))
    grad = mt.loss_gradient(scores, matches, dustbin_score=0.2, reg=1.0, iters=60)
    eps = 1e-5
    worst_rel = 0.0
    for i in range(3):
        for j in range(4):
            hi = scores.copy()
            hi[i, j] += eps
            lo = scores.copy()
            lo[i, j] -= eps
            fd = (
                mt.nll_loss_from_scores(hi, matches, 0.2, reg=1.0, iters=60)
                - mt.nll_loss_from_scores(lo, matches, 0.2, reg=1.0, iters=60)
            ) / (2 * eps)
            worst_rel = max(worst_rel, abs(fd - grad[i, j]) / max(1.0, abs(fd)))
    results.append(CheckResult("matcher", "loss gradient vs differences", worst_rel <= 1e-4, f"max rel {worst_rel:.2e}"))
    return results


def check_retrieval(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    dim = 8
    vecs = rng.standard_normal((6, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    entries = tuple(
        rt.IndexEntry(
            image_id=f"db{i}",
            descriptor=dsc.GlobalDescriptor(values=vecs[i].astype(np.float32), pca_applied=True),
            geotag=rt.GeoTag.utm(float(i), 0.0),
        )
        for i in range(6)
    )
    index = rt.DescriptorIndex(entries=entries)
    q = dsc.GlobalDescriptor(values=vecs[3].astype(np.float32), pca_applied=True)
    got = rt.global_retrieve(q, index, "q", k=6).ids()
    scores = index.matrix() @ q.values.astype(np.float64)
    want = [entries[i].image_id for i in sorted(range(6), key=lambda i: (-scores[i], entries[i].image_id))]
    results.append(CheckResult("retrieval", "top-k vs exhaustive sort", got == want, f"{got[:3]}..."))

    d = rt.geo_distance(rt.GeoTag.utm(0.0, 0.0), rt.GeoTag.utm(3.0, 4.0))
    results.append(CheckResult("retrieval", "planar 3-4-5 distance", abs(d - 5.0) < 1e-12, f"{d}"))
    return results


def check_io_store(rng: np.random.Generator) -> list[CheckResult]:
    from . import io_store as io

    ok = True
    for _ in range(20):
        tensors = {}
        for t in range(int(rng.integers(0, 5))):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(s) for s in rng.integers(1, 5, rank))
            dtype = rng.choice([np.float32, np.float64, np.int32, np.uint8])
            if dtype == np.uint8:
                arr = rng.integers(0, 256, shape).astype(np.uint8)
            elif dtype == np.int32:
                arr = rng.integers(-1000, 1000, shape).astype(np.int32)
            else:
                arr = rng.standard_normal(shape).astype(dtype)
            tensors[f"t{t}"] = arr
        blob = io.pack_tensors(tensors, io.WEIGHTS_MAGIC)
        back = io.unpack_tensors(blob, io.WEIGHTS_MAGIC)
        ok &= set(back) == set(tensors)
        ok &= all(np.array_equal(back[k], tensors[k]) and back[k].dtype == tensors[k].dtype for k in tensors)
        ok &= io.pack_tensors(back, io.WEIGHTS_MAGIC) == blob
    return [CheckResult("io_store", "container round-trip", ok, "20 random tables")]


def check_weights_file(path: str) -> list[CheckResult]:
    """Cross-verify a weights file whose backbone carries both forms."""
    from .io_store import load_weights

    model = load_weights(path)
    net = model.backbone
    if net.blocks is None or net.fused is None:
        return [
            CheckResult(
                "weights",
                "fused vs multibranch forms",
                True,
                "file carries a single form; nothing to cross-check",
            )
        ]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, net.spec.in_channels, 32, 32)).astype(np.float32)
    _, rel = bb.form_deviation(net, x)
    return [CheckResult("weights", "fused vs multibranch forms", rel <= 1e-5, f"max rel dev {rel:.2e}")]


SUITES: dict[str, Callable[[np.random.Generator], list[CheckResult]]] = {
    "tensor_core": check_tensor_core,
    "backbone": check_backbone,
    "descriptor": check_descriptor,
    "matcher": check_matcher,
    "retrieval": check_retrieval,
    "io_store": check_io_store,
}


def run_all(seed: int = 0, weights_path: Optional[str] = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name, suite in SUITES.items():
        results.extend(suite(np.random.default_rng(seed)))
    if weights_path is not None:
        results.extend(check_weights_file(weights_path))
    return results
