"""The three benchmark workloads, each a closed loop in one process.

Every workload makes its inputs from the seed, times the program's set-up
calls, discards one warm-up operation, then runs operations until the run
length has been spent. Each operation's output
is checked against computations from ``checks`` (made apart from vprkit)
outside the timed region; an operation whose check fails, or that raises,
counts as failed.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import checks
from tracing import Tracer
from vprkit import backbone, io_store, matcher, model, pipeline, retrieval

MODEL_SEED = 0  # the program's default; workload seeds vary the inputs only
INPUT_HW = (480, 640)
SETTINGS = pipeline.ExtractionSettings(patch_size=2, patch_stride=1, input_dims=INPUT_HW, fused=True)
# Default layout: four stages of 1, 2, 4 and 14 layers, each entered at stride 2.
LAYER_STRIDES = [s for n in (1, 2, 4, 14) for s in [2] + [1] * (n - 1)]
EXPECTED_PATCHES = checks.expected_patch_count(INPUT_HW, LAYER_STRIDES, patch=2, patch_stride=1)
SETUP_REPEATS = 3
MODEL_BUILDS = 2  # random_model takes about 2 s, so it is repeated less than save and load

BUILD_POOL = 4  # distinct database images cycled through by index-build
BUILD_BATCH = 2  # images per extract_index + save_index operation
QUERY_DB = 3  # database images behind the query workloads
QUERY_K = 2  # stage-one candidates re-ranked per query
REG_DEFAULT = 1.0  # the library default
REG_SHARP = 0.02  # the regime the README's retrieval fixtures use

MODULES = {"backbone": backbone, "io_store": io_store, "matcher": matcher, "pipeline": pipeline, "retrieval": retrieval}


@dataclass
class Run:
    seed: int
    seconds: float
    workdir: Path
    tracer: Optional[Tracer] = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    timed_wall_s: float = 0.0

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def measure(self, run: Callable[[int], tuple[float, object]], check: Callable[[int, object], list[str]]) -> list[float]:
        """One discarded warm-up, then operations until the run length has been spent.

        The last operation may end after the run length: stopping before it
        would time a single 10 s query-rerank-sharp operation in a 15 s run.
        """
        self.phase("warmup")
        run(-1)
        times: list[float] = []
        spent = 0.0
        while spent < self.seconds:
            self.phase("measure")
            t0 = perf_counter()
            try:
                dt, out = run(len(times))
            except Exception:  # an operation that raises is a failed operation; the run goes on
                spent += perf_counter() - t0
                self.record([traceback.format_exc(limit=3)])
                continue
            spent += dt
            times.append(dt)
            self.phase("check")
            self.record(check(len(times) - 1, out))
        if not times:
            raise RuntimeError(f"every operation raised: {self.problems[:1]}")
        self.timed_wall_s = sum(times)
        return times

    def report(self, setup_s: float, times: list[float], index_bytes_per_image: float) -> None:
        """The end-to-end metrics, the same five on every workload."""
        self.metrics.update(
            setup_s=(setup_s, "s"),
            op_p50_s=(statistics.median(times), "s"),
            ops_per_s=(len(times) / sum(times), "1/s"),
            index_mb_per_image=(index_bytes_per_image / 1e6, "MB"),
        )

    def finish(self) -> None:
        self.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")


def timed(fn: Callable, *args, **kwargs) -> tuple[float, object]:
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


def setup_model() -> tuple[float, model.ModelParams]:
    """random_model + with_fused, repeated; the median time and the last model."""
    times, m = [], None
    for _ in range(MODEL_BUILDS):
        m = None  # released first, so that repeated builds do not add to peak_rss_mb
        dt, m = timed(lambda: model.random_model(MODEL_SEED).with_fused())
        times.append(dt)
    return statistics.median(times), m


def write_images(rng: np.random.Generator, directory: Path, prefix: str, count: int) -> list[Path]:
    """Binary 8-bit PPMs of uniform noise at the working resolution, written by hand."""
    h, w = INPUT_HW
    paths = []
    for i in range(count):
        path = directory / f"{prefix}{i}.ppm"
        path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + rng.integers(0, 256, (h, w, 3), dtype=np.uint8).tobytes())
        paths.append(path)
    return paths


def records_for(paths: list[Path], ids: list[str]) -> list[io_store.ManifestRecord]:
    return [io_store.ManifestRecord(i, str(p), float(n), 0.0, "database") for n, (i, p) in enumerate(zip(ids, paths))]


def descriptor_problems(index: retrieval.DescriptorIndex, patch_store: dict) -> list[str]:
    problems = checks.check_patch_counts([p.count for p in patch_store.values()], EXPECTED_PATCHES)
    problems += checks.check_unit_norm(np.stack([e.descriptor.values for e in index.entries]), "global descriptors")
    for image_id, p in patch_store.items():
        problems += checks.check_unit_norm(p.descriptors, f"patch descriptors of {image_id}")
    return problems


# ---------------------------------------------------------------------------
# index-build
# ---------------------------------------------------------------------------


def index_build(ctx: Run) -> None:
    rng = np.random.default_rng(ctx.seed)
    paths = write_images(rng, ctx.workdir, "db", BUILD_POOL)
    setup_s, m = setup_model()
    out_path = ctx.workdir / "batch.vpri"

    def batch(i: int) -> list[io_store.ManifestRecord]:
        first = ((i + 1) * BUILD_BATCH) % BUILD_POOL
        picked = [(first + j) % BUILD_POOL for j in range(BUILD_BATCH)]
        return records_for([paths[j] for j in picked], [f"op{i + 1:04d}-img{j}" for j in picked])

    def run(i: int):
        records = batch(i)
        t0 = perf_counter()
        index, patch_store = pipeline.extract_index(records, m, SETTINGS, threads=1)
        io_store.save_index(out_path, index, patch_store)
        return perf_counter() - t0, (records, index, patch_store)

    def check(i: int, out) -> list[str]:
        records, index, patch_store = out
        problems = descriptor_problems(index, patch_store)
        problems += checks.check_index_equal(
            checks.index_snapshot(index, patch_store), checks.index_snapshot(*io_store.load_index(out_path))
        )
        if i == 0:  # the global descriptor of one image, recomputed from the feature map
            record = next(r for r in records if r.image_id == index.entries[0].image_id)
            image = io_store.load_image(record.path, input_dims=INPUT_HW)
            fmap = backbone.backbone_forward(image, m.backbone, fused=True, strict_dims=False)
            ref = checks.vlad_reference(
                fmap, m.vlad.centers, m.vlad.assign_weight, m.vlad.assign_bias, m.pca.projection, m.pca.mean
            )
            problems += checks.check_close(index.entries[0].descriptor.values, ref, "global descriptor vs VLAD", 1e-5)
        return problems

    times = ctx.measure(run, check)
    ctx.report(setup_s, times, out_path.stat().st_size / BUILD_BATCH)


# ---------------------------------------------------------------------------
# query-rerank, query-rerank-sharp
# ---------------------------------------------------------------------------


def query_workload(ctx: Run, reg: float) -> None:
    rng = np.random.default_rng(ctx.seed)
    db_paths = write_images(rng, ctx.workdir, "db", QUERY_DB)
    q_paths = []
    for j, p in enumerate(db_paths):  # byte-identical copies under their own names
        q_paths.append(ctx.workdir / f"query{j}.ppm")
        q_paths[-1].write_bytes(p.read_bytes())
    db_ids = [f"db{j}" for j in range(QUERY_DB)]
    index_path = ctx.workdir / "db.vpri"

    model_s, m = setup_model()
    build_s, (built, built_patches) = timed(pipeline.extract_index, records_for(db_paths, db_ids), m, SETTINGS)
    save_s, load_s = [], []
    for _ in range(SETUP_REPEATS):
        save_s.append(timed(io_store.save_index, index_path, built, built_patches)[0])
        dt, (index, patch_store) = timed(io_store.load_index, index_path)
        load_s.append(dt)
    setup_s = model_s + build_s + statistics.median(save_s) + statistics.median(load_s)

    ids = [e.image_id for e in index.entries]
    matrix = np.stack([e.descriptor.values for e in index.entries])
    layers = [(layer.w_f, layer.w_g, layer.w_h, layer.mode) for layer in m.matcher.layers]
    expected_top: dict[tuple[bytes, str], float] = {}

    def run(i: int):
        j = (i + 1) % QUERY_DB
        t0 = perf_counter()
        desc, patches = pipeline.extract_image(str(q_paths[j]), m, SETTINGS)
        initial = retrieval.global_retrieve(desc, index, f"query{j}", k=QUERY_K)
        reranked = retrieval.rerank(patches, initial, patch_store, m.matcher, reg=reg)
        return perf_counter() - t0, (db_ids[j], desc, patches, initial, reranked)

    def check(i: int, out) -> list[str]:
        own_id, desc, patches, initial, reranked = out
        ref_ids, ref_scores = checks.ranking_reference(ids, matrix, desc.values, QUERY_K)
        problems = checks.check_ranking(initial.ranked, ref_ids, ref_scores)
        problems += checks.check_self_first(initial.ranked, own_id, "stage one")
        problems += checks.check_self_score(initial.ranked)
        problems += checks.check_permutation(initial.ranked, reranked.ranked)
        if reg == REG_DEFAULT:
            top_id, top_score = reranked.ranked[0]
            key = (hashlib.sha256(patches.descriptors.tobytes()).digest(), top_id)
            if key not in expected_top:
                expected_top[key] = checks.match_score_reference(
                    patches.descriptors, patch_store[top_id].descriptors, layers, m.matcher.dustbin_score, reg
                )
            problems += checks.check_close(top_score, expected_top[key], "top re-ranked score", 1e-5)
        else:
            problems += checks.check_self_first(reranked.ranked, own_id, "re-ranked")
            problems += checks.check_unit_interval(reranked.ranked)
        return problems

    times = ctx.measure(run, check)
    ctx.report(setup_s, times, index_path.stat().st_size / QUERY_DB)


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "index-build": index_build,
    "query-rerank": partial(query_workload, reg=REG_DEFAULT),
    "query-rerank-sharp": partial(query_workload, reg=REG_SHARP),
}
