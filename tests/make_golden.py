"""Regenerate the reference results under tests/golden/, or diff against them.

tests/golden/eval.json holds, for each query of TestEval's corpus
(test_cli.index_eval_corpus) searched at EVAL_FLAGS, the full-precision
stage-one and re-ranked (id, score) lists and the ids of candidates whose
transport did not converge. test_cli.TestEval.test_golden_results compares
orders and unconverged ids exactly and scores within 1e-12.

tests/golden/transport.json holds, for each (query, candidate) pair that same
eval run matched, in the order it matched them, the Sinkhorn iteration count
and convergence flag. test_cli.TestEval.test_golden_transport compares them
exactly.

tests/golden/c08.json holds the same lists as eval.json for criterion 08's
twenty images (test_pipeline.C08_SPEC, c08_corpus), each queried with its own
indexed descriptors against all twenty at reg 0.02.
test_pipeline.TestGolden.test_c08_results compares orders and unconverged ids
exactly and scores within 1e-12.

tests/golden/descriptors.json holds, for two 480x640 noise images drawn from
DESCRIPTOR_SEED and extracted with the seed-0 fused default model, the global
descriptor at GLOBAL_AT and the patch descriptors of PATCH_ROWS at PATCH_AT.
test_default_config.TestGoldenDescriptors compares them within 1e-9.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py          # rewrite all four files
    PYTHONPATH=src python tests/make_golden.py --diff   # print what would change, write nothing

Regenerating the files changes the reference results on purpose; it is never a
way to make a failing golden test pass. --diff prints, per query and stage of
eval.json and c08.json, whether the order and the unconverged ids changed and
the largest score change; each transport pair whose iteration count or flag
changed; and per image the largest change of the recorded descriptor values.
It exits 1 when any of these differs at all, and 0 otherwise.

Run as a script, it pins OpenBLAS to 2 threads before numpy loads it, the count
the committed files were written at: at 1 thread c08's re-ranked scores round
differently, by at most 6.9e-17 with every order unchanged, and --diff would
exit 1. So its output does not depend on OPENBLAS_NUM_THREADS on a host with at
least 2 cores (OpenBLAS uses no more threads than there are cores).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "2"
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from vprkit import cli, retrieval
from vprkit.io_store import write_ppm
from vprkit.model import ModelParams, random_model
from vprkit.pipeline import ExtractionSettings, extract_image, extract_index
from vprkit.retrieval import CandidateList, global_retrieve, rerank

GOLDEN = Path(__file__).parent / "golden" / "eval.json"
GOLDEN_TRANSPORT = Path(__file__).parent / "golden" / "transport.json"
GOLDEN_C08 = Path(__file__).parent / "golden" / "c08.json"
GOLDEN_DESCRIPTORS = Path(__file__).parent / "golden" / "descriptors.json"

DESCRIPTOR_SEED = 14
GLOBAL_AT = [0, 1, 2, 255, 511]
PATCH_ROWS = [0, 565, 1130]
PATCH_AT = [0, 1, 255, 511]


def query_row(initial: CandidateList, reranked: CandidateList) -> dict:
    return {
        "query_id": initial.query_id,
        "initial": [[i, float(s)] for i, s in initial.ranked],
        "reranked": [[i, float(s)] for i, s in reranked.ranked],
        "unconverged": list(reranked.unconverged),
    }


def eval_results(argv: list[str], monkeypatch: pytest.MonkeyPatch) -> tuple[list[dict], list[dict]]:
    """Run `vprkit eval` with argv. Returns, per query, the lists cli._search gave
    it, and per matched (query, candidate) pair, how its transport ended."""
    captured = []
    scores = []
    search, match = cli._search, retrieval.match_pair

    def recording(*args):
        captured.append(search(*args))
        return captured[-1]

    def matching(*args, **kwargs):
        scores.append(match(*args, **kwargs))
        return scores[-1]

    monkeypatch.setattr(cli, "_search", recording)
    monkeypatch.setattr(retrieval, "match_pair", matching)
    assert cli.main(argv) == 0
    initial_lists, reranked_lists = captured[0][:2]
    # rerank matches each query's candidates that have patches, in stage-one order.
    pairs = iter(scores)
    transport = []
    for initial, reranked in zip(initial_lists, reranked_lists):
        for candidate, _ in initial.ranked:
            if candidate not in reranked.missing_patches:
                score = next(pairs)
                transport.append(
                    {
                        "query_id": initial.query_id,
                        "candidate": candidate,
                        "iterations": int(score.iterations),
                        "converged": bool(score.converged),
                    }
                )
    assert next(pairs, None) is None
    return [query_row(*lists) for lists in zip(initial_lists, reranked_lists)], transport


def c08_results(root: Path) -> list[dict]:
    """Criterion 08's model and twenty images, written under root; each image's
    indexed descriptors queried against all twenty at reg 0.02."""
    from test_pipeline import C08_SPEC, c08_corpus  # test_pipeline imports this module

    model = random_model(seed=0, spec=C08_SPEC, clusters=8, pca_dim=32)
    settings = ExtractionSettings(patch_size=2, patch_stride=1, input_dims=(120, 160), strict_dims=False)
    index, patch_store = extract_index(c08_corpus(root), model, settings)
    rows = []
    for entry in index.entries:
        initial = global_retrieve(entry.descriptor, index, entry.image_id, k=20)
        reranked = rerank(patch_store[entry.image_id], initial, patch_store, model.matcher, reg=0.02)
        rows.append(query_row(initial, reranked))
    return rows


def default_model() -> ModelParams:
    return random_model(seed=0).with_fused()


def noise_images(root: Path) -> list[Path]:
    """Two 480x640 uniform-noise PPMs drawn from DESCRIPTOR_SEED, written under root."""
    rng = np.random.default_rng(DESCRIPTOR_SEED)
    paths = []
    for i in range(2):
        path = root / f"noise{i}.ppm"
        write_ppm(path, rng.integers(0, 256, size=(480, 640, 3), dtype=np.uint8))
        paths.append(path)
    return paths


def descriptor_values(model: ModelParams, paths: list[Path]) -> list[dict]:
    """Per image, the recorded global and patch descriptor values at the default settings."""
    extracted = [extract_image(str(p), model, ExtractionSettings(fused=True)) for p in paths]
    return [
        {
            "image": path.name,
            "global": [float(desc.values[i]) for i in GLOBAL_AT],
            "patches": [[r, [float(patches.descriptors[r, j]) for j in PATCH_AT]] for r in PATCH_ROWS],
        }
        for path, (desc, patches) in zip(paths, extracted)
    ]


def _largest_change(new: list[float], old: list[float]) -> float:
    return float(np.abs(np.subtract(new, old)).max()) if new else 0.0


def query_diff(name: str, results: list[dict], golden: list[dict]) -> tuple[list[str], bool]:
    """Per query and stage: order, unconverged ids and the largest score change."""
    lines = [name, f"{'query':8s} {'stage':9s} {'order':8s} {'unconverged':12s} max|dscore|"]
    changed = [q["query_id"] for q in results] != [q["query_id"] for q in golden]
    old_by_id = {q["query_id"]: q for q in golden}
    for new in results:
        old = old_by_id.get(new["query_id"])
        if old is None:
            lines.append(f"{new['query_id']:8s} not in the committed file")
            continue
        for stage in ("initial", "reranked"):
            same_order = [i for i, _ in new[stage]] == [i for i, _ in old[stage]]
            same_unconverged = stage == "initial" or new["unconverged"] == old["unconverged"]
            # Scores compared id by id, so a changed order still reports how far each score moved.
            old_scores = dict(old[stage])
            shared = [i for i, _ in new[stage] if i in old_scores]
            change = _largest_change([dict(new[stage])[i] for i in shared], [old_scores[i] for i in shared])
            changed |= not same_order or not same_unconverged or change != 0.0
            order = "same" if same_order else "CHANGED"
            unconverged = "-" if stage == "initial" else "same" if same_unconverged else "CHANGED"
            lines.append(f"{new['query_id']:8s} {stage:9s} {order:8s} {unconverged:12s} {change:.3g}")
    return lines, changed


def transport_diff(results: list[dict], golden: list[dict]) -> tuple[list[str], bool]:
    """Each pair whose iteration count or convergence flag changed, then a count."""
    old_by_pair = {(p["query_id"], p["candidate"]): p for p in golden}
    changes = []
    for new in results:
        old = old_by_pair.pop((new["query_id"], new["candidate"]), None)
        if old != new:
            was = "not in the committed file" if old is None else f"{old['iterations']} {old['converged']}"
            now = f"{new['iterations']} {new['converged']}"
            changes.append(f"{new['query_id']} {new['candidate']}: iterations, converged {was} -> {now}")
    changes += [f"{q} {c}: in the committed file, not matched now" for q, c in old_by_pair]
    return ["transport.json", *changes, f"{len(results)} pairs, {len(changes)} changed"], bool(changes)


def descriptor_diff(descriptors: list[dict], golden: list[dict]) -> tuple[list[str], bool]:
    """Per image, the largest change of the recorded global and patch values."""
    lines = ["descriptors.json"]
    changed = [d["image"] for d in descriptors] != [d["image"] for d in golden]
    old_by_image = {d["image"]: d for d in golden}
    for new in descriptors:
        old = old_by_image[new["image"]]
        patches = _largest_change(
            [v for _, row in new["patches"] for v in row], [v for _, row in old["patches"] for v in row]
        )
        globals_ = _largest_change(new["global"], old["global"])
        changed |= patches != 0.0 or globals_ != 0.0
        lines.append(f"{new['image']}: max|dglobal| {globals_:.3g}, max|dpatch| {patches:.3g}")
    return lines, changed


def _read(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def _write(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8")


def main(argv: Optional[list[str]] = None) -> int:
    from test_cli import EVAL_FLAGS, index_eval_corpus  # test_cli imports this module

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--diff", action="store_true", help="print changes against the committed files; write nothing")
    args = parser.parse_args(argv)
    with (
        tempfile.TemporaryDirectory() as tmp,
        pytest.MonkeyPatch.context() as monkeypatch,
        contextlib.redirect_stdout(io.StringIO()),  # the extract and eval tables
    ):
        manifest, index, weights = index_eval_corpus(Path(tmp))
        argv = ["eval", str(manifest), "--index", str(index), "--weights", str(weights), *EVAL_FLAGS]
        results, transport = eval_results(argv, monkeypatch)
        c08 = c08_results(Path(tmp))
        descriptors = descriptor_values(default_model(), noise_images(Path(tmp)))
    if args.diff:
        diffs = [
            query_diff("eval.json", results, _read(GOLDEN)),
            transport_diff(transport, _read(GOLDEN_TRANSPORT)),
            query_diff("c08.json", c08, _read(GOLDEN_C08)),
            descriptor_diff(descriptors, _read(GOLDEN_DESCRIPTORS)),
        ]
        print("\n".join(line for lines, _ in diffs for line in lines))
        return int(any(changed for _, changed in diffs))
    written = {GOLDEN: results, GOLDEN_TRANSPORT: transport, GOLDEN_C08: c08, GOLDEN_DESCRIPTORS: descriptors}
    for path, rows in written.items():
        _write(path, rows)
        print(f"wrote {len(rows)} rows -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
