"""Regenerate the reference results under tests/golden/, or diff against them.

tests/golden/eval.json holds, for each query of TestEval's corpus
(test_cli.index_eval_corpus) searched at EVAL_FLAGS, the full-precision
stage-one and re-ranked (id, score) lists and the ids of candidates whose
transport did not converge. test_cli.TestEval.test_golden_results compares
orders and unconverged ids exactly and scores within 1e-12.

tests/golden/descriptors.json holds, for two 480x640 noise images drawn from
DESCRIPTOR_SEED and extracted with the seed-0 fused default model, the global
descriptor at GLOBAL_AT and the patch descriptors of PATCH_ROWS at PATCH_AT.
test_default_config.TestGoldenDescriptors compares them within 1e-9.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py          # rewrite both files
    PYTHONPATH=src python tests/make_golden.py --diff   # print what would change, write nothing

Regenerating the files changes the reference results on purpose; it is never a
way to make a failing golden test pass. --diff prints, per query and stage,
whether the order and the unconverged ids changed and the largest score change,
and per image the largest change of the recorded descriptor values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from vprkit import cli
from vprkit.io_store import write_ppm
from vprkit.model import ModelParams, random_model
from vprkit.pipeline import ExtractionSettings, extract_images

GOLDEN = Path(__file__).parent / "golden" / "eval.json"
GOLDEN_DESCRIPTORS = Path(__file__).parent / "golden" / "descriptors.json"

DESCRIPTOR_SEED = 14
GLOBAL_AT = [0, 1, 2, 255, 511]
PATCH_ROWS = [0, 565, 1130]
PATCH_AT = [0, 1, 255, 511]


def eval_results(argv: list[str], monkeypatch: pytest.MonkeyPatch) -> list[dict]:
    """Run `vprkit eval` with argv and return, per query, the lists cli._search gave it."""
    captured = []
    search = cli._search

    def recording(*args):
        captured.append(search(*args))
        return captured[-1]

    monkeypatch.setattr(cli, "_search", recording)
    assert cli.main(argv) == 0
    initial_lists, reranked_lists = captured[0][:2]
    return [
        {
            "query_id": initial.query_id,
            "initial": [[i, float(s)] for i, s in initial.ranked],
            "reranked": [[i, float(s)] for i, s in reranked.ranked],
            "unconverged": list(reranked.unconverged),
        }
        for initial, reranked in zip(initial_lists, reranked_lists)
    ]


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
    extracted = extract_images([str(p) for p in paths], model, ExtractionSettings(fused=True))
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


def diff_lines(
    results: list[dict], golden: list[dict], descriptors: list[dict], golden_descriptors: Optional[list[dict]]
) -> list[str]:
    """The table --diff prints: new results against the committed ones."""
    lines = [f"{'query':8s} {'stage':9s} {'order':8s} {'unconverged':12s} max|dscore|"]
    old_by_id = {q["query_id"]: q for q in golden}
    for new in results:
        old = old_by_id.get(new["query_id"])
        if old is None:
            lines.append(f"{new['query_id']:8s} not in the committed file")
            continue
        for stage in ("initial", "reranked"):
            same_order = [i for i, _ in new[stage]] == [i for i, _ in old[stage]]
            if stage == "reranked":
                unconverged = "same" if new["unconverged"] == old["unconverged"] else "CHANGED"
            else:
                unconverged = "-"
            # Scores compared id by id, so a changed order still reports how far each score moved.
            old_scores = dict(old[stage])
            shared = [i for i, _ in new[stage] if i in old_scores]
            change = _largest_change([dict(new[stage])[i] for i in shared], [old_scores[i] for i in shared])
            order = "same" if same_order else "CHANGED"
            lines.append(f"{new['query_id']:8s} {stage:9s} {order:8s} {unconverged:12s} {change:.3g}")
    if golden_descriptors is None:
        lines.append("no committed descriptors file")
        return lines
    old_by_image = {d["image"]: d for d in golden_descriptors}
    for new in descriptors:
        old = old_by_image[new["image"]]
        patches = _largest_change(
            [v for _, row in new["patches"] for v in row], [v for _, row in old["patches"] for v in row]
        )
        globals_ = _largest_change(new["global"], old["global"])
        lines.append(f"{new['image']}: max|dglobal| {globals_:.3g}, max|dpatch| {patches:.3g}")
    return lines


def _write(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8")


def main(argv: Optional[list[str]] = None) -> None:
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
        results = eval_results(argv, monkeypatch)
        descriptors = descriptor_values(default_model(), noise_images(Path(tmp)))
    if args.diff:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        golden_descriptors = (
            json.loads(GOLDEN_DESCRIPTORS.read_text(encoding="utf-8")) if GOLDEN_DESCRIPTORS.exists() else None
        )
        print("\n".join(diff_lines(results, golden, descriptors, golden_descriptors)))
        return
    _write(GOLDEN, results)
    _write(GOLDEN_DESCRIPTORS, descriptors)
    print(f"wrote {len(results)} queries -> {GOLDEN}")
    print(f"wrote {len(descriptors)} images -> {GOLDEN_DESCRIPTORS}")


if __name__ == "__main__":
    main()
