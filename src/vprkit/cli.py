"""Operator surface: extract | eval | reparam | bench | selfcheck.

Settings resolve in three layers: built-in defaults, a key=value config file
(any key, but a command applies only the settings it reads), then flags, which
a command has only for the settings it reads.
Reports come out twice: a human table on stdout and, when requested,
machine-readable JSON lines with a frozen, versioned schema. Every command is
deterministic for fixed (seed, weights, inputs) apart from wall-clock fields.
Exit codes: 0 success, 1 a failed verification (selfcheck, or reparam's fused-form
check), 2 usage or format error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .backbone import count_params_flops, reparameterize_backbone
from .descriptor import GlobalDescriptor, PatchDescriptorSet, PatchGrid
from .errors import ConfigError, FormatError, VprError
from .io_store import (
    container_parts,
    load_index,
    load_manifest,
    load_weights,
    model_to_tensors,
    read_utf8,
    save_index,
    save_weights,
    WEIGHTS_MAGIC,
)
from .model import ModelParams, random_model
from .pipeline import ExtractionSettings, assemble_index, extract_from_tensor, extract_image, extract_index
from .retrieval import CandidateList, DescriptorIndex, GeoTag, global_retrieve, recall_at_k, rerank
from .selfcheck import check_fused_form, run_all
from .tensor import conv_output_size

REPORT_SCHEMA_VERSION = 7
RECALL_KS = (1, 5, 10)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the dataset: weights source and knobs."""

    weights: Optional[str] = field(
        default=None, metadata={"help": "weights container; omitted means seeded random weights"}
    )
    clusters: int = field(default=64, metadata={"help": "codebook size K"})
    patch_size: int = field(default=2, metadata={"help": "square patch side on the feature map"})
    patch_stride: int = field(default=1, metadata={"help": "patch grid stride"})
    pca_dim: int = field(default=512, metadata={"help": "final descriptor dimension"})
    sinkhorn_reg: float = field(default=1.0, metadata={"help": "transport regularization"})
    sinkhorn_tol: float = field(default=1e-6, metadata={"help": "marginal tolerance"})
    sinkhorn_iters: int = field(default=100, metadata={"help": "max scaling iterations"})
    candidates: int = field(default=100, metadata={"help": "stage-one candidate depth"})
    radius_m: float = field(default=25.0, metadata={"help": "localization radius in meters"})
    seed: int = field(default=0, metadata={"help": "seed for random weights and probes"})
    input_height: int = field(default=480, metadata={"help": "working image height"})
    input_width: int = field(default=640, metadata={"help": "working image width"})

    def validate(self) -> "RunConfig":
        def need(cond: bool, msg: str) -> None:
            if not cond:
                raise ConfigError(msg)

        need(self.clusters >= 1, f"clusters must be >= 1, got {self.clusters}")
        need(self.patch_size >= 1, f"patch_size must be >= 1, got {self.patch_size}")
        need(self.patch_stride >= 1, f"patch_stride must be >= 1, got {self.patch_stride}")
        need(self.pca_dim >= 1, f"pca_dim must be >= 1, got {self.pca_dim}")
        need(0 < self.sinkhorn_reg < np.inf, f"sinkhorn_reg must be > 0 and finite, got {self.sinkhorn_reg}")
        need(0 <= self.sinkhorn_tol < np.inf, f"sinkhorn_tol must be >= 0 and finite, got {self.sinkhorn_tol}")
        need(self.sinkhorn_iters >= 1, f"sinkhorn_iters must be >= 1, got {self.sinkhorn_iters}")
        need(self.candidates >= 1, f"candidates must be >= 1, got {self.candidates}")
        need(0 <= self.radius_m < np.inf, f"radius_m must be >= 0 and finite, got {self.radius_m}")
        need(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        need(self.input_height >= 16 and self.input_width >= 16, "input dims must be at least 16 per axis")
        return self

    def input_dims(self) -> tuple[int, int]:
        return self.input_height, self.input_width


# Each config-file key parses as the type of its default; weights is a path.
_KEY_TYPES = {f.name: str if f.default is None else type(f.default) for f in fields(RunConfig)}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """key = value lines; # starts a comment; unknown keys are refused."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(read_utf8(path, ConfigError).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}: line {lineno}: unknown setting {key!r}")
        try:
            out[key] = _KEY_TYPES[key](value)
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: bad value {value!r} for {key}") from None
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then flags. The whole file is parsed, but
    only the settings the command has flags for are applied and checked."""
    registered = [f.name for f in fields(RunConfig) if hasattr(args, f.name)]
    layers: dict[str, object] = {}
    if getattr(args, "config", None):
        layers.update((k, v) for k, v in parse_config_file(args.config).items() if k in registered)
    for key in registered:
        if getattr(args, key) is not None:
            layers[key] = getattr(args, key)
    if layers.get("weights"):
        for key in ("clusters", "pca_dim"):  # they shape only the seeded random model
            if key in layers:
                raise ConfigError(f"{key} cannot be set together with weights: the weights file fixes the model shape")
    return RunConfig(**layers).validate()  # type: ignore[arg-type]


# What _resolve_model and _settings read; extract and bench take them all, eval weights (its index records the rest).
_MODEL_KEYS = ("weights", "clusters", "pca_dim", "seed", "patch_size", "patch_stride", "input_height", "input_width")


def add_config_flags(parser: argparse.ArgumentParser, keys: Sequence[str] = tuple(_KEY_TYPES)) -> None:
    """--config and --report, plus one flag per setting in keys: --pca-dim sets pca_dim, parsed as its config key is."""
    parser.add_argument("--config", metavar="FILE", help="key = value settings file")
    parser.add_argument("--report", metavar="FILE", help="write JSON-lines report here")
    by_name = {f.name: f for f in fields(RunConfig)}
    for key in keys:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=_KEY_TYPES[key], help=by_name[key].metadata["help"])


def _resolve_model(cfg: RunConfig) -> ModelParams:
    """The run's deploy model: the backbone's fused form alone (fused here, once, when the weights carry the
    multibranch form), so extraction never re-fuses per image and no multibranch array stays in memory."""
    if cfg.weights:
        model = load_weights(cfg.weights)
    else:
        model = random_model(seed=cfg.seed, clusters=cfg.clusters, pca_dim=cfg.pca_dim)
    return model.with_fused()


def _model_identity(model: ModelParams) -> tuple[str, int]:
    """The sha256 hex digest (model_sha256) and size (bench's model_size_bytes) of the model's bytes as
    save_weights writes them."""
    digest, size = hashlib.sha256(), 0
    for part in container_parts(model_to_tensors(model), WEIGHTS_MAGIC):
        digest.update(part)
        size += len(part)
    return digest.hexdigest(), size


def _timed_model(cfg: RunConfig) -> tuple[ModelParams, float, str, int]:
    """_resolve_model's model; its wall time in seconds, reported as model_seconds; and its _model_identity."""
    start = time.perf_counter()
    model = _resolve_model(cfg)
    seconds = time.perf_counter() - start
    return model, seconds, *_model_identity(model)


def _settings(cfg: RunConfig, model: ModelParams, grid: PatchGrid | None = None, index: str = "") -> ExtractionSettings:
    """Extraction settings for the model from _resolve_model; refuses a patch
    that does not fit the feature map the model's own stage layout produces.
    A grid to match against, from index file `index`, sets the patch and must come from that same map."""
    fh, fw = cfg.input_dims()
    for _, _, stride, _ in model.backbone.spec.layer_plan():
        fh, fw = conv_output_size(fh, 3, stride, 1), conv_output_size(fw, 3, stride, 1)
    if grid is not None and (grid.height, grid.width) != (fh, fw):
        recorded = f"its recorded working size gives a {fh}x{fw} feature map"
        raise FormatError(f"{index}: {recorded}, but its patch grid is on {grid.height}x{grid.width}")
    patch_size, patch_stride = (grid.d_x, grid.stride) if grid is not None else (cfg.patch_size, cfg.patch_stride)
    if patch_size > min(fh, fw):
        raise ConfigError(
            f"patch_size {patch_size} does not fit the {fh}x{fw} feature map of a "
            f"{cfg.input_height}x{cfg.input_width} input"
        )
    return ExtractionSettings(patch_size=patch_size, patch_stride=patch_stride, input_dims=cfg.input_dims(), fused=True)


class _Report:
    """JSON-line records, each appended to the file at `path` (when set) as it is added.
    Creating the report truncates the file, so an unwritable path fails there."""

    def __init__(self, path: Optional[str]):
        self.path = path
        if path is not None:
            Path(path).write_text("", encoding="utf-8")

    def add(self, record_type: str, **payload: object) -> None:
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(json.dumps({"type": record_type, "version": REPORT_SCHEMA_VERSION, **payload}) + "\n")


def _table(rows: list[Sequence[str]]) -> None:
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    records = load_manifest(args.manifest)
    model, model_seconds, model_sha256, _ = _timed_model(cfg)
    settings = _settings(cfg, model)
    report = _Report(args.report)
    start = time.perf_counter()
    index, patch_store = extract_index(records, model, settings)
    elapsed = time.perf_counter() - start
    built = {"model_sha256": model_sha256, "input_height": cfg.input_height, "input_width": cfg.input_width}
    if not cfg.weights:
        built.update(seed=cfg.seed, clusters=cfg.clusters, pca_dim=cfg.pca_dim)
    save_index(args.out, replace(index, record=json.dumps(built)), patch_store)
    if args.save_weights:
        save_weights(args.save_weights, model)
    per_sec = len(index) / elapsed if elapsed > 0 else float("inf")
    report.add(
        "extract",
        images=len(index),
        seconds=round(elapsed, 6),
        model_seconds=round(model_seconds, 6),
        images_per_sec=round(per_sec, 3),
        index=str(args.out),
        descriptor_dim=index.dimension,
        seed=cfg.seed,
        weights=cfg.weights or "random",
        model_sha256=model_sha256,
    )
    print(f"indexed {len(index)} images in {elapsed:.2f}s ({per_sec:.2f} images/sec) -> {args.out}")
    return 0


def _warn_unconverged(unconverged_pairs: int, pairs: int, cfg: RunConfig) -> None:
    if unconverged_pairs:
        print(
            f"warning: transport did not converge for {unconverged_pairs} of {pairs} candidate pairs "
            f"within {cfg.sinkhorn_iters} iterations at tol {cfg.sinkhorn_tol:g}; their match scores "
            "come from the last iterate",
            file=sys.stderr,
        )


def _search(
    cfg: RunConfig,
    model: ModelParams,
    index: DescriptorIndex,
    patch_store: Mapping[str, PatchDescriptorSet],
    queries: Iterable[tuple[str, GlobalDescriptor, PatchDescriptorSet]],
) -> Iterator[tuple[CandidateList, CandidateList, float]]:
    """Stage one then stage two for each (query_id, descriptor, patches), taken from
    queries one at a time; yields the stage-one list, the re-ranked list and the
    seconds spent in stage two."""
    for query_id, desc, patches in queries:
        initial = global_retrieve(desc, index, query_id, k=cfg.candidates)
        start = time.perf_counter()
        reranked = rerank(
            patches,
            initial,
            patch_store,
            model.matcher,
            reg=cfg.sinkhorn_reg,
            tol=cfg.sinkhorn_tol,
            max_iters=cfg.sinkhorn_iters,
        )
        yield initial, reranked, time.perf_counter() - start


def _pair_counts(lists: Sequence[CandidateList]) -> tuple[int, int]:
    """matched_pairs and unconverged_pairs of re-ranked lists: the candidate pairs that stage two matched, and those
    of them whose transport did not converge."""
    return sum(len(c.transport) for c in lists), sum(len(c.unconverged) for c in lists)


def _recorded_build(path: str, index: DescriptorIndex, weights: Optional[str]) -> tuple[RunConfig, str]:
    """The settings that rebuild the index's model at its working size, as its record gives them, with `weights`
    in place of the recorded seed when set; and the recorded model sha256."""
    try:
        record = json.loads(index.record)
    except ValueError:  # also an index with no record, which holds ""
        record = None
    sha256 = record.pop("model_sha256", None) if isinstance(record, dict) else None
    sizes = {"input_height", "input_width"}
    if (
        not isinstance(sha256, str)
        or set(record) not in (sizes, sizes | {"seed", "clusters", "pca_dim"})
        or any(type(v) is not int for v in record.values())
    ):
        raise FormatError(f"{path}: no record of the model and working size that built it; re-run extract")
    if not weights and "seed" not in record:
        raise ConfigError(f"{path} was built from a weights file with sha256 {sha256}; pass that file with --weights")
    return RunConfig(weights=weights, **record).validate(), sha256


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    records = load_manifest(args.manifest)
    index, patch_store = load_index(args.index)
    if len(index) == 0:
        raise FormatError(f"{args.index}: index is empty")
    frames = {e.geotag.frame for e in index.entries} - {"utm"}
    if frames:
        raise FormatError(f"{args.index}: geotags in the {frames.pop()!r} frame; a manifest gives only utm positions")
    grids = {p.grid for p in patch_store.values()}
    if len(grids) > 1 or any(g.d_x != g.d_y for g in grids):
        shown = ", ".join(sorted(f"{g.d_x}x{g.d_y} stride {g.stride} on {g.height}x{g.width}" for g in grids))
        raise FormatError(f"{args.index}: patch sets must share one grid of square patches, got {shown}")
    built, recorded_sha256 = _recorded_build(args.index, index, cfg.weights)
    model, model_seconds, model_sha256, _ = _timed_model(built)
    if model_sha256 != recorded_sha256:
        source = cfg.weights or "its recorded seed"
        raise ConfigError(
            f"{args.index} was built with model sha256 {recorded_sha256}; {source} gives {model_sha256}; "
            "re-run extract with this model to rebuild the index"
        )
    settings = _settings(built, model, next(iter(grids), None), args.index)  # no patch sets: the default patch
    queries = [r for r in records if r.split == "query"]
    if not queries:
        raise FormatError("manifest contains no query records")
    report = _Report(args.report)
    extracted = ((r.image_id, *extract_image(r.path, model, settings)) for r in queries)
    searched = []
    for initial, reranked, seconds in _search(cfg, model, index, patch_store, extracted):
        searched.append((initial, reranked, seconds))
        report.add(
            "eval_query",
            query_id=initial.query_id,
            initial=[[i, round(s, 6)] for i, s in initial.ranked[:10]],
            reranked=[[i, round(s, 6)] for i, s in reranked.ranked[:10]],
            missing_patches=list(reranked.missing_patches),
            unconverged=list(reranked.unconverged),
            transport=reranked.transport,
        )
    initial_lists, reranked_lists, seconds = zip(*searched)
    pairs, unconverged_pairs = _pair_counts(reranked_lists)
    query_geotags = {r.image_id: GeoTag.utm(r.easting, r.northing) for r in queries}
    db_geotags = index.geotags()

    table_rows: list[Sequence[str]] = [("stage", *(f"R@{k}" for k in RECALL_KS))]
    for stage, lists in (("initial", initial_lists), ("reranked", reranked_lists)):
        values = {}
        for k in RECALL_KS:
            values[k] = recall_at_k(lists, query_geotags, db_geotags, k=k, radius_m=cfg.radius_m)
            report.add("recall", stage=stage, k=k, value=values[k])
        table_rows.append((stage, *(f"{values[k]:.4f}" for k in RECALL_KS)))
    report.add(
        "eval_summary",
        queries=len(queries),
        database=len(index),
        radius_m=cfg.radius_m,
        candidates=cfg.candidates,
        model_seconds=round(model_seconds, 6),
        model_sha256=model_sha256,
        match_seconds=round(sum(seconds), 6),
        matched_pairs=pairs,
        unconverged_pairs=unconverged_pairs,
    )
    _warn_unconverged(unconverged_pairs, pairs, cfg)
    _table(table_rows)
    print(f"{len(queries)} queries against {len(index)} database images, radius {cfg.radius_m} m")
    return 0


def cmd_reparam(args: argparse.Namespace) -> int:
    resolve_config(args)  # applies no setting, but a malformed config file still fails
    start = time.perf_counter()
    loaded = load_weights(args.weights_in)
    model = loaded.with_fused()
    model_seconds = time.perf_counter() - start
    model_sha256, _ = _model_identity(model)
    report = _Report(args.report)
    identity = {"model_seconds": round(model_seconds, 6), "model_sha256": model_sha256}
    if loaded.backbone.blocks is None:
        save_weights(args.out, model)
        report.add("reparam", status="noop", reason="input carries only fused weights", **identity)
        print("input is already fused; copied unchanged")
        return 0
    check, deviation, rel_deviation = check_fused_form(reparameterize_backbone(loaded.backbone))
    status = "fused" if check.ok else "failed"
    report.add("reparam", status=status, max_abs_deviation=deviation, max_rel_deviation=rel_deviation, **identity)
    print(f"max elementwise deviation on probe batch: {deviation:.3e} (relative {rel_deviation:.3e})")
    if not check.ok:
        print(f"error: the fused form fails its check ({check.detail}); {args.out} not written", file=sys.stderr)
        return 1
    save_weights(args.out, model)
    print(f"wrote the fused form -> {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if args.images < 1:
        raise ConfigError(f"--images must be >= 1, got {args.images}")
    if not 1 <= args.queries <= args.images:
        raise ConfigError(f"--queries must be in [1, --images], got {args.queries}")
    model, model_seconds, model_sha256, model_size = _timed_model(cfg)
    settings = _settings(cfg, model)
    report = _Report(args.report)
    rng = np.random.default_rng(cfg.seed)
    h, w = cfg.input_dims()
    images = [rng.standard_normal((1, 3, h, w)).astype(np.float32) for _ in range(args.images)]

    start = time.perf_counter()
    extracted = [extract_from_tensor(img, model, settings) for img in images]
    extract_ms = (time.perf_counter() - start) * 1000.0 / len(images)

    places = [(f"bench{i:03d}", GeoTag.utm(float(i), 0.0)) for i in range(len(images))]
    index, patch_store = assemble_index(places, extracted)
    queries = [("q", desc, patches) for desc, patches in extracted[: args.queries]]
    _, reranked_lists, seconds = zip(*_search(cfg, model, index, patch_store, queries))
    match_ms = sum(seconds) * 1000.0 / len(queries)
    pairs, unconverged_pairs = _pair_counts(reranked_lists)

    params_multi, flops_multi = count_params_flops(model.backbone, fused=False, input_dims=(h, w))
    params_fused, flops_fused = count_params_flops(model.backbone, fused=True, input_dims=(h, w))

    report.add(
        "bench",
        model_seconds=round(model_seconds, 6),
        speed1_extract_ms=round(extract_ms, 3),
        speed2_match_ms=round(match_ms, 3),
        params_multibranch=params_multi,
        params_fused=params_fused,
        theo_flops_multibranch=flops_multi,
        theo_flops_fused=flops_fused,
        model_size_bytes=model_size,
        model_sha256=model_sha256,
        images=args.images,
        queries=args.queries,
        input_dims=[h, w],
        matched_pairs=pairs,
        unconverged_pairs=unconverged_pairs,
    )
    _warn_unconverged(unconverged_pairs, pairs, cfg)
    _table(
        [
            ("metric", "value"),
            ("model build ms", f"{model_seconds * 1000.0:.1f}"),
            ("extraction ms/image", f"{extract_ms:.1f}"),
            ("matching ms/query", f"{match_ms:.1f}"),
            ("backbone params", str(params_multi)),
            ("backbone params (fused)", str(params_fused)),
            ("theo mult-adds", str(flops_multi)),
            ("theo mult-adds (fused)", str(flops_fused)),
            ("model size (bytes)", str(model_size)),
        ]
    )
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    results = run_all(seed=cfg.seed, weights_path=cfg.weights or None)
    report = _Report(args.report)
    rows: list[Sequence[str]] = [("module", "check", "status", "detail")]
    for r in results:
        rows.append((r.module, r.name, "ok" if r.ok else "FAIL", r.detail))
        report.add("selfcheck", module=r.module, check=r.name, ok=bool(r.ok), detail=r.detail)
    failed = [r for r in results if not r.ok]
    report.add("selfcheck_summary", checks=len(results), failed=len(failed))
    _table(rows)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vprkit",
        description="Two-stage visual place recognition: global retrieval plus patch re-ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="index the database split of a manifest")
    p.add_argument("manifest", help="dataset manifest CSV")
    p.add_argument("--out", default="index.vpri", help="index file to write")
    p.add_argument("--save-weights", dest="save_weights", metavar="FILE", help="persist the model used")
    add_config_flags(p, _MODEL_KEYS)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("eval", help="retrieve+rerank the query split against an index")
    p.add_argument("manifest", help="dataset manifest CSV")
    p.add_argument("--index", required=True, help="index file from extract")
    add_config_flags(p, ("weights", "sinkhorn_reg", "sinkhorn_tol", "sinkhorn_iters", "candidates", "radius_m"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reparam", help="fuse branches, check the fused form on a probe batch, and write it")
    p.add_argument("weights_in", help="weights container to fuse")
    p.add_argument("--out", required=True, help="weights container to write (fused form), unless the check fails")
    add_config_flags(p, ())  # the weights come from weights_in
    p.set_defaults(func=cmd_reparam)

    p = sub.add_parser("bench", help="time extraction and matching on synthetic fixtures")
    p.add_argument("--images", type=int, default=3, help="synthetic database size")
    p.add_argument("--queries", type=int, default=2, help="synthetic query count")
    add_config_flags(p, (*_MODEL_KEYS, "sinkhorn_reg", "sinkhorn_tol", "sinkhorn_iters", "candidates"))
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "selfcheck",
        help="check the installed numerics: backbone, descriptor, matcher, io_store, and the weights file if one is "
        "set (oracle comparisons live in the test suite)",
    )
    add_config_flags(p, ("weights", "seed"))
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VprError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
