"""Every function defined in src/vprkit is run by a command, or ALLOWED names its caller.

One sweep runs `cli.main` in-process under sys.setprofile and
threading.setprofile, once for each flag path that selects code: extract with
--save-weights, --report and --config; a PPM resized to the working dims and a
.t4 query; eval with a weights file and with a config file; reparam of a
multibranch weights file; bench; selfcheck with a weights file. Each function
the package defines (as module.qualname, nested defs included) must be called
by some run, or be named in ALLOWED with its caller outside the unit tests:
an acceptance criterion, a vprbench/ file, or a stated public-API need. A new
function therefore needs a command that runs it or an ALLOWED entry; entries
the sweep reaches, or that name nothing, fail too.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest

import vprkit
from vprkit import cli
from vprkit.io_store import ManifestRecord, save_manifest, save_weights, write_ppm
from vprkit.model import random_model

from conftest import build_corpus
from test_io_store import save_t4

ALLOWED: dict[str, str] = {
    "descriptor.PatchDescriptorSet.count": "vprbench/workloads.py reads it to check patch counts",
    "retrieval.GeoTag.wgs84": "the wgs84 frame's constructor, which geo_distance's haversine branch and c10's geotags serve",
    "descriptor.vlad_aggregate": "acceptance c04 (VLAD against a double loop)",
    "io_store._bn_tensors": "acceptance c10 writes multibranch weights; every command writes the fused form alone",
    "io_store.save_manifest": "acceptance c08 and c10 write manifests",
    "io_store.write_ppm": "acceptance c08 and c10 write images",
    "matcher._logsumexp": "acceptance c06, through nll_loss_from_scores",
    "matcher._check_pairs_in": "acceptance c06, through nll_loss and loss_gradient",
    "matcher.nll_loss": "acceptance c06 (the half-mass case)",
    "matcher.nll_loss_from_scores": "acceptance c06 (central differences)",
    "matcher.loss_gradient": "acceptance c06 (gradient against differences)",
    "matcher.GroundTruthMatches.__post_init__": "acceptance c06 builds ground-truth matches",
    "matcher.GroundTruthMatches.__len__": "acceptance c06, through nll_loss",
}

SRC = Path(vprkit.__file__).resolve().parent

# The working size of every run: the default 21-layer layout gives a 4x5 map.
DIMS = (64, 80)
MODEL_SETTINGS = {"clusters": 4, "pca_dim": 16, "input_height": DIMS[0], "input_width": DIMS[1]}
MODEL_FLAGS = [f"--{k.replace('_', '-')}={v}" for k, v in MODEL_SETTINGS.items()]


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every def under SRC; the first line
    is that of the first decorator, as in the function's code object."""
    found: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), module + ".")
    return found


def sweep(root: Path) -> set[tuple[str, int]]:
    """(file, first line) of every code object any thread called while the runs went."""
    manifest = build_corpus(root, count=4, dims=DIMS, seed=5)
    weights, index = root / "model.vprw", root / "idx.vpri"

    # A database PPM off the working size, and a query stored as a .t4 tensor at it.
    rng = np.random.default_rng(6)
    records = []
    for i in range(2):
        write_ppm(root / f"small{i}.ppm", rng.integers(0, 256, size=(48, 64, 3), dtype=np.uint8))
        records.append(ManifestRecord(f"db{i}", str(root / f"small{i}.ppm"), 100.0 * i, 0.0, "database"))
    save_t4(root / "q0.t4", rng.standard_normal((1, 3, *DIMS)))
    records.append(ManifestRecord("q0", str(root / "q0.t4"), 0.0, 0.0, "query"))
    mixed = root / "mixed.csv"
    save_manifest(mixed, records)
    config = root / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in MODEL_SETTINGS.items()), encoding="utf-8")
    multibranch = root / "multi.vprw"  # no command writes this form, so it is saved before the sweep starts
    save_weights(multibranch, random_model(seed=0, clusters=MODEL_SETTINGS["clusters"], pca_dim=MODEL_SETTINGS["pca_dim"]))

    runs = [
        ["extract", str(manifest), "--out", str(index), "--save-weights", str(weights),
         "--report", str(root / "extract.jsonl"), *MODEL_FLAGS],
        ["extract", str(mixed), "--out", str(root / "mixed.vpri"), "--config", str(config)],
        ["eval", str(manifest), "--index", str(index), "--weights", str(weights), "--report",
         str(root / "eval.jsonl"), "--sinkhorn-iters=1"],
        ["eval", str(mixed), "--index", str(root / "mixed.vpri"), "--config", str(config)],
        ["reparam", str(multibranch), "--out", str(root / "fused.vprw")],
        ["bench", "--report", str(root / "bench.jsonl"), "--images=2", "--queries=1", *MODEL_FLAGS],
        ["selfcheck", "--weights", str(weights)],
    ]
    called: set = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    assert codes == [0] * len(runs)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}


def problems(defined: Mapping[tuple[str, int], str], reached: set, allowed: Mapping[str, str]) -> list[str]:
    """One line per function no run reached that ALLOWED does not name, and per
    ALLOWED entry that names no function or one the sweep reaches."""
    names = set(defined.values())
    unreached = {name for key, name in defined.items() if key not in reached}
    return (
        [f"{n}: no command runs it; delete it, or name its caller in ALLOWED" for n in sorted(unreached - set(allowed))]
        + [f"{n}: in ALLOWED, but src/vprkit defines no such function" for n in sorted(set(allowed) - names)]
        + [f"{n}: in ALLOWED, but a command runs it" for n in sorted(set(allowed) & names - unreached)]
    )


def test_every_function_is_run_by_a_command_or_allowed(tmp_path):
    found = problems(defined_functions(), sweep(tmp_path), ALLOWED)
    assert not found, "\n".join(["", *found])


@pytest.mark.parametrize(
    "allowed, want",
    [
        ({}, ["m.b: no command runs it; delete it, or name its caller in ALLOWED"]),
        ({"m.b": "c", "m.a": "c"}, ["m.a: in ALLOWED, but a command runs it"]),
        ({"m.b": "c", "m.gone": "c"}, ["m.gone: in ALLOWED, but src/vprkit defines no such function"]),
    ],
    ids=["unreached", "stale-reached", "stale-missing"],
)
def test_unreached_and_stale_entries_fail(allowed, want):
    assert problems({("m.py", 1): "m.a", ("m.py", 5): "m.b"}, {("m.py", 1)}, allowed) == want
