"""In-memory span tracer for the benchmark's traced runs.

``Tracer.install`` replaces vprkit functions, under the module attribute
their caller looks them up by, with wrappers that record a span (name, start,
end, parent, phase, attributes) per call. Nothing is written until the run
ends. ``per_layer`` turns the spans into the per-layer metrics listed in
BENCHMARK.json. Timed (untraced) runs never install it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

# (module attribute the caller resolves, span name, attributes taken from the result)
HOOKS: tuple[tuple[str, str, str, Optional[Callable[[Any], dict]]], ...] = (
    ("pipeline", "load_image", "io_store.load_image", None),
    ("pipeline", "backbone_forward", "backbone.forward", None),
    ("backbone", "conv2d", "tensor.conv2d", None),
    ("pipeline", "global_descriptor", "descriptor.global", None),
    ("pipeline", "extract_patch_descriptors", "descriptor.patch", None),
    ("pipeline", "extract_image", "pipeline.extract_image", None),
    ("io_store", "save_index", "io_store.save_index", None),
    ("io_store", "load_index", "io_store.load_index", None),
    ("retrieval", "global_retrieve", "retrieval.global_retrieve", None),
    ("retrieval", "rerank", "retrieval.rerank", lambda out: {"candidates": len(out.ranked)}),
    ("retrieval", "match_pair", "matcher.match_pair", None),
    ("matcher", "enhance_descriptors", "matcher.enhance", None),
    ("matcher", "attention_forward", "matcher.attention_forward", None),
    ("matcher", "score_matrix", "matcher.score_matrix", None),
    (
        "matcher",
        "sinkhorn_assign",
        "matcher.sinkhorn",
        lambda out: {"iterations": out.iterations, "converged": bool(out.converged)},
    ),
)

# Spans recorded in these phases feed the per-layer metrics; warm-up and the
# correctness checks are traced but left out.
COUNTED_PHASES = ("setup", "measure")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.overhead_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable[[Any], dict]] = None) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t1 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
            spans[idx] = (name, t1, t2, parent, self.phase, attrs(out) if attrs else None)
            if self.phase == "measure":
                self.overhead_s += (t1 - t0) + (perf_counter() - t2)
            return out

        return traced

    def install(self, modules: dict[str, object]) -> None:
        for module_name, attr, span, attrs in HOOKS:
            self._patch(modules[module_name], attr, self.wrap(span, getattr(modules[module_name], attr), attrs))
        index_cls = modules["retrieval"].DescriptorIndex
        self._patch(index_cls, "matrix", self.wrap("retrieval.index_matrix", index_cls.matrix))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "phase", "attrs")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans]}))

    def per_layer(self, timed_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the counted phases: medians per call unless named otherwise.

        A layer the workload never calls reads 0. ``trace.overhead_share`` is
        the wrappers' own bookkeeping time over the timed wall time.
        """
        spans = self.spans
        counted = [i for i, s in enumerate(spans) if s[4] in COUNTED_PHASES]

        def durations(name: str) -> list[float]:
            return [spans[i][2] - spans[i][1] for i in counted if spans[i][0] == name]

        def per_parent(name: str, parent_name: str, value: Callable[[tuple], float]) -> list[float]:
            groups: dict[int, float] = {}
            for i in counted:
                if spans[i][0] == parent_name:
                    groups.setdefault(i, 0.0)
            for i in counted:
                s = spans[i]
                if s[0] == name and s[3] in groups:
                    groups[s[3]] += value(s)
            return list(groups.values())

        def med(xs: list[float]) -> float:
            return statistics.median(xs) if xs else 0.0

        sinkhorn = [spans[i] for i in counted if spans[i][0] == "matcher.sinkhorn"]
        rerank = [spans[i] for i in counted if spans[i][0] == "retrieval.rerank"]
        out = {
            "io_store.load_image_s": (med(durations("io_store.load_image")), "s"),
            "io_store.save_index_s": (med(durations("io_store.save_index")), "s"),
            "io_store.load_index_s": (med(durations("io_store.load_index")), "s"),
            "backbone.forward_s": (med(durations("backbone.forward")), "s"),
            "tensor.conv2d_s": (med(per_parent("tensor.conv2d", "backbone.forward", lambda s: s[2] - s[1])), "s"),
            "tensor.conv2d_calls": (med(per_parent("tensor.conv2d", "backbone.forward", lambda s: 1.0)), "count"),
            "descriptor.global_s": (med(durations("descriptor.global")), "s"),
            "descriptor.patch_s": (med(durations("descriptor.patch")), "s"),
            "pipeline.extract_image_s": (med(durations("pipeline.extract_image")), "s"),
            "retrieval.global_retrieve_s": (med(durations("retrieval.global_retrieve")), "s"),
            "retrieval.index_matrix_s": (med(durations("retrieval.index_matrix")), "s"),
            "retrieval.rerank_s_per_candidate": (
                med([(s[2] - s[1]) / s[5]["candidates"] for s in rerank if s[5]["candidates"]]),
                "s",
            ),
            "matcher.enhance_s": (med(durations("matcher.enhance")), "s"),
            "matcher.attention_forward_calls": (
                med(per_parent("matcher.attention_forward", "matcher.enhance", lambda s: 1.0)),
                "count",
            ),
            "matcher.score_matrix_s": (med(durations("matcher.score_matrix")), "s"),
            "matcher.sinkhorn_s": (med([s[2] - s[1] for s in sinkhorn]), "s"),
            "matcher.sinkhorn_iters": (med([float(s[5]["iterations"]) for s in sinkhorn]), "count"),
            "matcher.sinkhorn_unconverged_pairs": (float(sum(not s[5]["converged"] for s in sinkhorn)), "count"),
            "trace.overhead_share": (self.overhead_s / timed_wall_s, "ratio"),
        }
        return out
