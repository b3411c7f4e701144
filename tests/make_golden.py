"""Regenerate tests/golden/eval.json, the reference results of `vprkit eval`.

The file holds, for each query of TestEval's corpus (test_cli.index_eval_corpus)
searched at EVAL_FLAGS, the full-precision stage-one and re-ranked
(id, score) lists and the ids of candidates whose transport did not converge.
test_cli.TestEval.test_golden_results compares orders and unconverged ids
exactly and scores within 1e-12.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Regenerating the file changes the reference results on purpose; it is never a
way to make a failing golden test pass.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from vprkit import cli

GOLDEN = Path(__file__).parent / "golden" / "eval.json"


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


def main() -> None:
    from test_cli import EVAL_FLAGS, index_eval_corpus  # test_cli imports this module

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        manifest, index, weights = index_eval_corpus(Path(tmp))
        argv = ["eval", str(manifest), "--index", str(index), "--weights", str(weights), *EVAL_FLAGS]
        results = eval_results(argv, monkeypatch)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in results) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(results)} queries -> {GOLDEN}")


if __name__ == "__main__":
    main()
