"""Built-in invariant suites: checks of the installed numerics, runnable from the CLI.

Each check compares two code paths of the package that must agree, or an
output against a property that holds exactly (marginals, weights summing to
one, a lossless round trip), so no kernel is written twice here. The
comparisons against independent slow references (direct-loop convolution,
double-loop VLAD, placement enumeration, central differences) live in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import BytesIO
from typing import Callable, Optional

import numpy as np

from . import backbone as bb
from . import descriptor as dsc
from . import matcher as mt


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    ok: bool
    detail: str


def check_backbone(rng: np.random.Generator) -> list[CheckResult]:
    worst = 0.0
    for _ in range(20):
        cin = int(rng.integers(2, 9))
        spec = bb.NetworkSpec(stages=(bb.StageSpec(1, cin * 2), bb.StageSpec(2, cin * 2)), in_channels=cin)
        net = bb.random_backbone(spec, rng, bn="random")
        x = rng.standard_normal((1, cin, 32, 32)).astype(np.float32)
        worst = max(worst, bb.form_deviation(bb.reparameterize_backbone(net), x)[0])
    return [CheckResult("backbone", "fused equals multibranch", worst <= 1e-3, f"max abs dev {worst:.2e}")]


def check_descriptor(rng: np.random.Generator) -> list[CheckResult]:
    """The VLAD head's residual sums over one whole-map window against vlad_raw's per-vector formula."""
    worst = 0.0
    for _ in range(5):
        d, k = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        x = dsc.feature_map_descriptors(rng.standard_normal((1, d, h, w)).astype(np.float32))
        vlad = dsc.random_vlad_params(d, k, rng)
        a = dsc.soft_assign(x, vlad)
        whole = dsc.window_residuals(x, a, np.arange(h * w)[None, :], vlad)[0]
        worst = max(worst, float(np.abs(whole.T - dsc.vlad_raw(x, a, vlad)).max()))
    return [CheckResult("descriptor", "whole-map window equals vlad_raw", worst <= 1e-9, f"max abs dev {worst:.2e}")]


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
    src = rng.standard_normal((6, 3), dtype=np.float32)  # float32 like stored patch sets, as rerank runs it
    dst = rng.standard_normal((4, 3), dtype=np.float32)
    _, rho = mt.attention_forward(src, dst, layer)
    dev = float(np.abs(rho.sum(axis=0) - 1.0).max())
    results.append(CheckResult("matcher", "attention columns sum to 1", dev <= 1e-6, f"max dev {dev:.2e}"))
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
        back = io.unpack_tensors(BytesIO(blob), io.WEIGHTS_MAGIC)
        ok &= set(back) == set(tensors)
        ok &= all(np.array_equal(back[k], tensors[k]) and back[k].dtype == tensors[k].dtype for k in tensors)
        ok &= io.pack_tensors(back, io.WEIGHTS_MAGIC) == blob
    return [CheckResult("io_store", "container round-trip", ok, "20 random tables")]


def check_fused_form(net: bb.Backbone) -> tuple[CheckResult, float, float]:
    """The fused form of a backbone carrying both forms against its multibranch form, on a fixed
    32x32 probe: the verdict (relative deviation at most 1e-5), then the max abs and rel deviation."""
    x = np.random.default_rng(7).standard_normal((1, net.spec.in_channels, 32, 32)).astype(np.float32)
    deviation, rel = bb.form_deviation(net, x)
    return CheckResult("weights", "fused vs multibranch forms", rel <= 1e-5, f"max rel dev {rel:.2e}"), deviation, rel


def check_weights_file(path: str) -> list[CheckResult]:
    """Cross-verify a weights file's fused form against its multibranch form. A
    multibranch-only file is fused first, as every command fuses it at load."""
    from .io_store import load_weights

    net = load_weights(path).backbone
    if net.blocks is None:
        single = "file carries a single form; nothing to cross-check"
        return [CheckResult("weights", "fused vs multibranch forms", True, single)]
    if net.fused is None:
        net = bb.reparameterize_backbone(net)
    return [check_fused_form(net)[0]]


SUITES: dict[str, Callable[[np.random.Generator], list[CheckResult]]] = {
    "backbone": check_backbone,
    "descriptor": check_descriptor,
    "matcher": check_matcher,
    "io_store": check_io_store,
}


def run_all(seed: int = 0, weights_path: Optional[str] = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name, suite in SUITES.items():
        results.extend(suite(np.random.default_rng(seed)))
    if weights_path is not None:
        results.extend(check_weights_file(weights_path))
    return results
