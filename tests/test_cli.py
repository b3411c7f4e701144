"""Operator-level behavior: flags, files, reports, exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vprkit import backbone, cli, descriptor, io_store, matcher, selfcheck
from vprkit.backbone import NetworkSpec, StageSpec, count_params_flops
from vprkit.cli import (
    REPORT_SCHEMA_VERSION,
    RunConfig,
    _pair_counts,
    _resolve_model,
    _search,
    _settings,
    add_config_flags,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from vprkit.errors import ConfigError, FormatError
from vprkit.io_store import (
    ManifestRecord,
    load_index,
    load_manifest,
    load_weights,
    save_index,
    save_manifest,
    save_weights,
    write_ppm,
)
from vprkit.model import random_model
from vprkit.pipeline import extract_image
from vprkit.descriptor import GlobalDescriptor, PatchDescriptorSet, PatchGrid
from vprkit.retrieval import DescriptorIndex, GeoTag, IndexEntry, global_retrieve, rerank
from vprkit.selfcheck import run_all

from conftest import build_corpus
from make_golden import GOLDEN, GOLDEN_TRANSPORT, eval_results
from oracles import float64_projection
from test_io_store import save_t4

SEED = 11311

MODEL_FLAGS = [
    "--clusters", "4",
    "--pca-dim", "8",
    "--input-height", "48",
    "--input-width", "64",
    "--seed", "13",
]

# Shallow stack for matching fixtures: with untrained weights, depth drives all
# inputs toward a shared direction and patch descriptors stop telling images
# apart, so retrieval fixtures use a three-stage network that keeps the angles.
EVAL_SPEC = NetworkSpec(
    stages=(
        StageSpec(layer_count=1, out_channels=16),
        StageSpec(layer_count=2, out_channels=24),
        StageSpec(layer_count=2, out_channels=32),
    ),
    input_dims=(48, 64),
)

# Sharp transport for the same reason: at the default regularization the
# assignment spreads mass near-uniformly and match scores for random-weight
# descriptors collapse into ties. eval takes the input dims from the index.
INPUT_FLAGS = ["--input-height", "48", "--input-width", "64"]
EVAL_FLAGS = ["--sinkhorn-reg", "0.02"]


def read_report(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def fused_sha256(weights):
    """The sha256 of the weights file's deploy model (its fused form alone), as --save-weights would write it."""
    tensors = io_store.model_to_tensors(load_weights(weights).with_fused())
    packed = io_store.pack_tensors(tensors, io_store.WEIGHTS_MAGIC)
    return hashlib.sha256(packed).hexdigest()


def both_forms(model):
    """The model with a backbone carrying its multibranch and fused forms, which reparam and selfcheck compare."""
    return dataclasses.replace(model, backbone=backbone.reparameterize_backbone(model.backbone))


def write_corpus(root, twins, query_positions):
    """Five database images at eastings 0, 1000, ... plus one query per entry
    of `twins`, pixel-identical to that database image but geotagged at the
    matching entry of `query_positions`."""
    rng = np.random.default_rng(SEED)
    images = [rng.integers(0, 256, size=(48, 64, 3), dtype=np.uint8) for _ in range(5)]
    records = []
    for i, img in enumerate(images):
        path = root / f"db{i}.ppm"
        write_ppm(path, img)
        records.append(ManifestRecord(f"db{i}", str(path), 1000.0 * i, 0.0, "database"))
    for j, (twin, east) in enumerate(zip(twins, query_positions)):
        path = root / f"q{j}.ppm"
        write_ppm(path, images[twin])
        records.append(ManifestRecord(f"q{j}", str(path), east, 0.0, "query"))
    manifest = root / "manifest.csv"
    save_manifest(manifest, records)
    return manifest


class TestConfigResolution:
    def args(self, **overrides):
        ns = argparse.Namespace(config=None)
        for f in dataclasses.fields(RunConfig):
            setattr(ns, f.name, None)
        for key, value in overrides.items():
            setattr(ns, key, value)
        return ns

    def test_defaults(self):
        cfg = resolve_config(self.args())
        assert cfg == RunConfig()

    def test_default_model_runs_fused_forward(self):
        cfg = resolve_config(self.args())
        model = _resolve_model(cfg)
        assert model.backbone.blocks is None and model.backbone.fused is not None
        assert _settings(cfg, model).fused is True

    def test_multibranch_weights_gain_fused_form(self, tmp_path, small_model):
        weights = tmp_path / "multi.vprw"
        save_weights(weights, small_model)
        assert load_weights(weights).backbone.fused is None
        cfg = resolve_config(self.args(weights=str(weights)))
        assert _settings(cfg, _resolve_model(cfg)).fused is True

    def test_file_overrides_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("candidates = 3\nclusters = 16\n")
        cfg = resolve_config(self.args(config=str(cfg_file)))
        assert cfg.candidates == 3
        assert cfg.clusters == 16

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("candidates = 3\n")
        assert resolve_config(self.args(config=str(cfg_file), candidates=5)).candidates == 5

    @pytest.mark.parametrize("key, flag", [("clusters", "--clusters"), ("pca_dim", "--pca-dim")])
    def test_model_shape_flag_refused_with_weights(self, tmp_path, capsys, small_model, key, flag):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        weights = tmp_path / "model.vprw"
        save_weights(weights, small_model)
        out = tmp_path / "i.vpri"
        assert main(["extract", str(manifest), "--out", str(out), "--weights", str(weights), flag, "4"]) == 2
        assert f"{key} cannot be set together with weights" in capsys.readouterr().err
        assert not out.exists()

    def test_model_shape_file_key_refused_with_weights(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        for key in ("clusters", "pca_dim"):
            cfg_file.write_text(f"weights = model.vprw\n{key} = 8\n")
            with pytest.raises(ConfigError, match=key):
                resolve_config(self.args(config=str(cfg_file)))
            cfg_file.write_text(f"{key} = 8\n")
            with pytest.raises(ConfigError, match=key):
                resolve_config(self.args(config=str(cfg_file), weights="model.vprw"))

    def test_model_shape_settings_accepted_without_weights(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("clusters = 8\n")
        cfg = resolve_config(self.args(config=str(cfg_file), pca_dim=16))
        assert (cfg.weights, cfg.clusters, cfg.pca_dim) == (None, 8, 16)

    def test_validation_patch_must_fit(self):
        cfg = resolve_config(self.args(input_height=16, input_width=16, patch_size=3))
        with pytest.raises(ConfigError):
            _settings(cfg, _resolve_model(cfg))

    def test_patch_fit_follows_the_model_layout(self, tmp_path):
        # Three stride-2 stages take a 32x32 input to a 4x4 map, not the 2x2
        # of the default four-stage layout.
        weights = tmp_path / "three_stage.vprw"
        save_weights(weights, random_model(seed=13, spec=EVAL_SPEC, clusters=8, pca_dim=32))
        for patch, fits in ((3, True), (4, True), (5, False)):
            cfg = resolve_config(self.args(weights=str(weights), input_height=32, input_width=32, patch_size=patch))
            if fits:
                assert _settings(cfg, _resolve_model(cfg)).patch_size == patch
            else:
                with pytest.raises(ConfigError, match="4x4 feature map"):
                    _settings(cfg, _resolve_model(cfg))

    def test_validation_ranges(self):
        for field, bad in [
            ("clusters", 0),
            ("sinkhorn_reg", 0.0),
            ("sinkhorn_reg", float("inf")),
            ("sinkhorn_tol", float("inf")),
            ("sinkhorn_iters", 0),
            ("candidates", 0),
            ("radius_m", -1.0),
            ("radius_m", float("inf")),
            ("input_height", 8),
            ("seed", -1),
        ]:
            with pytest.raises(ConfigError):
                resolve_config(self.args(**{field: bad}))

    @pytest.mark.parametrize("command", [["selfcheck"], ["extract", "manifest.csv"]], ids=["selfcheck", "extract"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command, source):
        """Exit 2 with the setting named, not numpy's traceback and not selfcheck's exit 1."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n", encoding="utf-8")
        extra = ["--seed", "-3"] if source == "flag" else ["--config", str(cfg)]
        assert main([*command, *extra]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_fifo_weights_path_is_usage_error_naming_it(self, tmp_path, capsys):
        fifo = tmp_path / "weights.pipe"
        os.mkfifo(fifo)
        assert main(["selfcheck", "--weights", str(fifo)]) == 2
        assert f"{fifo}: not a regular file" in capsys.readouterr().err


class TestConfigFile:
    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# full line comment\n\nclusters = 32  # trailing\n")
        assert parse_config_file(f) == {"clusters": 32}

    def test_unknown_key_refused(self, tmp_path):
        f = tmp_path / "run.cfg"
        # The last four were settings once; old files that set them are refused.
        for line in (
            "cluster_count = 8",
            "attention_normalization = global",
            "dustbin_score = 0.9",
            "attention_rounds = 2",
            "attention_key_dim = 0",
        ):
            f.write_text(line + "\n")
            with pytest.raises(ConfigError, match="unknown setting"):
                parse_config_file(f)

    def test_threads_key_refused_by_extract(self, tmp_path, capsys):
        """threads is no longer a setting: a file that still sets it is refused, not ignored."""
        f = tmp_path / "run.cfg"
        f.write_text("clusters = 8\nthreads = 2\n")
        assert main(["extract", "manifest.csv", "--config", str(f)]) == 2
        assert "run.cfg: line 2: unknown setting 'threads'" in capsys.readouterr().err

    def test_every_setting_is_a_key_and_a_flag(self, tmp_path):
        parser = argparse.ArgumentParser(allow_abbrev=False)
        add_config_flags(parser)
        f = tmp_path / "run.cfg"
        for field in dataclasses.fields(RunConfig):
            want_type = str if field.default is None else type(field.default)
            value = "model.vprw" if field.default is None else str(field.default)
            f.write_text(f"{field.name} = {value}\n")
            parsed = parse_config_file(f)[field.name]
            assert type(parsed) is want_type and str(parsed) == value, field.name
            flagged = getattr(parser.parse_args(["--" + field.name.replace("_", "-"), value]), field.name)
            assert type(flagged) is want_type and flagged == parsed, field.name

    def test_bad_value_reports_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("clusters = eight\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_file(f)

    def test_non_utf8_comment_is_usage_error_naming_the_line(self, tmp_path, capsys):
        f = tmp_path / "bad.cfg"
        f.write_bytes(b"clusters = 8\n# caf\xe9\n")
        assert main(["selfcheck", "--config", str(f)]) == 2
        assert "bad.cfg: line 2: byte 0xe9 at offset 18 is not UTF-8" in capsys.readouterr().err

    def test_missing_equals_refused(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("clusters 4\n")
        with pytest.raises(ConfigError):
            parse_config_file(f)


SETTINGS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def registered_settings():
    """Each subcommand's name mapped to the RunConfig settings it has flags for."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {a.dest for a in p._actions} & SETTINGS for command, p in sub.choices.items()}


class _RecordingConfig:
    """Stands in for a resolved RunConfig and records each setting read from it."""

    def __init__(self, cfg, seen):
        self._cfg, self._seen = cfg, seen

    def __getattr__(self, name):
        if name in SETTINGS:
            self._seen.add(name)
            return getattr(self._cfg, name)
        return getattr(RunConfig, name).__get__(self)  # methods read settings through the proxy too


class TestFlagsMatchReads:
    def test_each_command_registers_exactly_the_settings_it_reads(self, tmp_path, monkeypatch, small_model):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        index = tmp_path / "idx.vpri"
        weights = tmp_path / "multi.vprw"  # multibranch, so reparam fuses and probes
        save_weights(weights, small_model)
        runs = {  # in order: eval reads the index extract writes
            "extract": ["extract", str(manifest), "--out", str(index), *MODEL_FLAGS],
            "eval": ["eval", str(manifest), "--index", str(index)],
            "bench": TestBench.BENCH_FLAGS,
            "reparam": ["reparam", str(weights), "--out", str(tmp_path / "fused.vprw")],
            "selfcheck": ["selfcheck"],
        }
        registered = registered_settings()
        assert set(runs) == set(registered)
        resolve = cli.resolve_config
        for command, argv in runs.items():
            seen: set[str] = set()
            monkeypatch.setattr(cli, "resolve_config", lambda args: _RecordingConfig(resolve(args), seen))
            assert main(argv) == 0, command
            assert seen == registered[command], command

    def test_readme_table_lists_the_flags_each_command_registers(self):
        lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
        table = {}
        for line in lines[lines.index("| command | setting flags | count |") + 2 :]:
            if not line.startswith("|"):
                break
            command, names, count = (cell.strip() for cell in line.strip("|").split("|"))
            listed = names.split(", ") if names else []  # an empty cell: the command registers no setting flag
            assert len(set(listed)) == len(listed), command
            table[command.strip("`")] = set(listed)
            assert count.startswith(f"{len(listed)} of {len(SETTINGS)}"), command
        assert table == registered_settings()

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "m.csv", "--sinkhorn-reg", "0.02"],
            ["extract", "m.csv", "--threads", "2"],
            ["reparam", "w.vprw", "--out", "o.vprw", "--candidates", "7"],
            ["reparam", "w.vprw", "--out", "o.vprw", "--seed", "1"],
            ["reparam", "w.vprw", "--out", "o.vprw", "--weights", "x.vprw", "--clusters", "4"],
            ["bench", "--threads", "2"],
            ["bench", "--radius-m", "5"],
            ["selfcheck", "--patch-size", "9"],
            ["eval", "m.csv", "--index", "i.vpri", "--patch-size", "3"],
            ["eval", "m.csv", "--index", "i.vpri", "--patch-stride", "2"],
            ["eval", "m.csv", "--index", "i.vpri", "--seed", "1"],
            ["eval", "m.csv", "--index", "i.vpri", "--clusters", "4"],
            ["eval", "m.csv", "--index", "i.vpri", "--pca-dim", "8"],
            ["eval", "m.csv", "--index", "i.vpri", "--input-height", "48"],
            ["eval", "m.csv", "--index", "i.vpri", "--input-width", "79"],
            ["eval", "m.csv", "--index", "i.vpri", "--threads", "2"],
        ],
        ids=[
            "extract-sinkhorn-reg",
            "extract-threads",
            "reparam-candidates",
            "reparam-seed",
            "reparam-weights-clusters",
            "bench-threads",
            "bench-radius-m",
            "selfcheck-patch-size",
            "eval-patch-size",
            "eval-patch-stride",
            "eval-seed",
            "eval-clusters",
            "eval-pca-dim",
            "eval-input-height",
            "eval-input-width",
            "eval-threads",
        ],
    )
    def test_unread_setting_flag_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigFileScope:
    """A command applies and checks only the file keys it has flags for."""

    def test_keys_a_command_does_not_read_are_not_applied(self, tmp_path, capsys, small_model):
        weights = tmp_path / "multi.vprw"
        save_weights(weights, small_model)
        shape = tmp_path / "shape.cfg"
        shape.write_text(f"weights = {weights}\nclusters = 8\n", encoding="utf-8")
        reg = tmp_path / "reg.cfg"
        reg.write_text("sinkhorn_reg = -1\n", encoding="utf-8")
        assert main(["reparam", str(weights), "--out", str(tmp_path / "o.vprw"), "--config", str(shape)]) == 0
        assert main(["selfcheck", "--config", str(reg)]) == 0
        capsys.readouterr()
        for argv, message in (
            (["extract", "m.csv"], "clusters cannot be set together with weights"),
            (["eval", "m.csv", "--index", "i.vpri"], "sinkhorn_reg must be > 0"),
        ):
            assert main([*argv, "--config", str(shape if argv[0] == "extract" else reg)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["bogus = 1", "sinkhorn_reg = sharp"])
    def test_unknown_keys_and_unparsable_values_still_refused(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["selfcheck", "--config", str(cfg)]) == 2


class TestExtract:
    def test_reruns_byte_identical(self, tmp_path):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        out1, out2 = tmp_path / "a.vpri", tmp_path / "b.vpri"
        assert main(["extract", str(manifest), "--out", str(out1), *MODEL_FLAGS]) == 0
        assert main(["extract", str(manifest), "--out", str(out2), *MODEL_FLAGS]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_save_weights_round_trips(self, tmp_path):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        out = tmp_path / "idx.vpri"
        weights = tmp_path / "model.vprw"
        assert main(["extract", str(manifest), "--out", str(out), "--save-weights", str(weights), *MODEL_FLAGS]) == 0
        model = load_weights(weights)
        assert model.vlad.cluster_count == 4
        assert model.descriptor_dim == 8

    def test_report_written(self, tmp_path):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        report = tmp_path / "extract.jsonl"
        main(["extract", str(manifest), "--out", str(tmp_path / "i.vpri"), "--report", str(report), *MODEL_FLAGS])
        records = read_report(report)
        assert records[0]["type"] == "extract"
        assert records[0]["version"] == REPORT_SCHEMA_VERSION == 7
        assert records[0]["images"] == 5
        assert records[0]["model_seconds"] > 0.0
        assert json.loads(load_index(tmp_path / "i.vpri")[0].record) == {
            "model_sha256": records[0]["model_sha256"],
            "input_height": 48,
            "input_width": 64,
            "seed": 13,
            "clusters": 4,
            "pca_dim": 8,
        }

    def test_record_of_a_weights_file_carries_its_hash_and_no_seed(self, tmp_path, small_model):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        weights, index = tmp_path / "model.vprw", tmp_path / "i.vpri"
        save_weights(weights, small_model)
        assert main(["extract", str(manifest), "--out", str(index), "--weights", str(weights), *INPUT_FLAGS]) == 0
        want = {"model_sha256": fused_sha256(weights), "input_height": 48, "input_width": 64}
        assert json.loads(load_index(index)[0].record) == want

    def test_non_finite_weights_refused_before_an_index_is_written(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        model = random_model(seed=1, clusters=4, pca_dim=8)
        centers = model.vlad.centers.copy()
        centers[0, 0] = np.nan
        weights = tmp_path / "nan.vprw"
        save_weights(weights, dataclasses.replace(model, vlad=dataclasses.replace(model.vlad, centers=centers)))
        out = tmp_path / "i.vpri"
        assert main(["extract", str(manifest), "--out", str(out), "--weights", str(weights), *INPUT_FLAGS]) == 2
        assert "'vlad.centers': 1 non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_t4_refused_before_an_index_is_written(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        x = np.zeros((1, 3, 48, 64), dtype=np.float32)
        x[0, 1, 7, 9] = np.nan
        bad = tmp_path / "db5.t4"
        save_t4(bad, x)
        save_manifest(manifest, [*load_manifest(manifest), ManifestRecord("db5", str(bad), 5000.0, 0.0, "database")])
        out = tmp_path / "i.vpri"
        assert main(["extract", str(manifest), "--out", str(out), *MODEL_FLAGS]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_zero_dim_t4_refused_before_an_index_is_written(self, tmp_path, capsys):
        """Read as is, a (1, 3, 0, 5) tensor reached bilinear_resize and ended in an IndexError."""
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        bad = tmp_path / "db5.t4"
        save_t4(bad, np.zeros((1, 3, 0, 5), dtype=np.float32))
        save_manifest(manifest, [*load_manifest(manifest), ManifestRecord("db5", str(bad), 5000.0, 0.0, "database")])
        out = tmp_path / "i.vpri"
        assert main(["extract", str(manifest), "--out", str(out), *MODEL_FLAGS]) == 2
        assert f"{bad}: dims (1, 3, 0, 5)" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_is_usage_error(self, tmp_path):
        assert main(["extract", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "i.vpri")]) == 2

    def test_unwritable_report_fails_before_an_index_or_weights_are_written(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        out, weights, report = tmp_path / "i.vpri", tmp_path / "model.vprw", tmp_path / "missing_dir" / "r.jsonl"
        argv = ["extract", str(manifest), "--out", str(out), "--save-weights", str(weights), "--report", str(report)]
        assert main([*argv, *MODEL_FLAGS]) == 2
        assert str(report) in capsys.readouterr().err
        assert not out.exists() and not weights.exists()


def index_eval_corpus(root, *extract_flags):
    """Six queries against five database images, indexed with the EVAL_SPEC
    model; returns (manifest, index, weights).

    Two queries sit on their twins, two sit 500 m from everything, and two are
    twinned with a far image while standing next to a different one. Stage-one
    top-1 is always the pixel-identical twin, so R@1 counts only the first two;
    with five database images the top-5 list is the whole database, so R@5 and
    R@10 also count the last two.
    """
    manifest = write_corpus(
        root,
        twins=[0, 1, 2, 3, 4, 0],
        query_positions=[10.0, 1010.0, 2500.0, 3500.0, 15.0, 3010.0],
    )
    index = root / "idx.vpri"
    weights = root / "model.vprw"
    save_weights(weights, random_model(seed=13, spec=EVAL_SPEC, clusters=8, pca_dim=32))
    argv = ["extract", str(manifest), "--out", str(index), "--weights", str(weights), *INPUT_FLAGS, *extract_flags]
    assert main(argv) == 0
    return manifest, index, weights


class TestEval:
    @pytest.fixture
    def indexed(self, tmp_path):
        return index_eval_corpus(tmp_path)

    def test_hand_computed_recalls(self, indexed, tmp_path):
        manifest, index, weights = indexed
        report = tmp_path / "eval.jsonl"
        code = main(
            [
                "eval", str(manifest),
                "--index", str(index),
                "--weights", str(weights),
                "--report", str(report),
                *EVAL_FLAGS,
            ]
        )
        assert code == 0
        recalls = {(r["stage"], r["k"]): r["value"] for r in read_report(report) if r["type"] == "recall"}
        for stage in ("initial", "reranked"):
            assert recalls[(stage, 1)] == pytest.approx(2 / 6)
            assert recalls[(stage, 5)] == pytest.approx(4 / 6)
            assert recalls[(stage, 10)] == pytest.approx(4 / 6)
        (summary,) = [r for r in read_report(report) if r["type"] == "eval_summary"]
        assert summary["model_seconds"] > 0.0

    def test_manifest_order_irrelevant(self, indexed, tmp_path):
        manifest, index, weights = indexed
        records = list(__import__("vprkit.io_store", fromlist=["load_manifest"]).load_manifest(manifest))
        rng = np.random.default_rng(3)
        rng.shuffle(records)
        shuffled = tmp_path / "shuffled.csv"
        save_manifest(shuffled, records)
        reports = []
        for m in (manifest, shuffled):
            rp = tmp_path / f"{m.stem}.jsonl"
            main(
                [
                    "eval", str(m),
                    "--index", str(index),
                    "--weights", str(weights),
                    "--report", str(rp),
                    *EVAL_FLAGS,
                ]
            )
            reports.append({(r["stage"], r["k"]): r["value"] for r in read_report(rp) if r["type"] == "recall"})
        assert reports[0] == reports[1]

    def test_per_query_records_present(self, indexed, tmp_path):
        manifest, index, weights = indexed
        report = tmp_path / "eval.jsonl"
        main(
            [
                "eval", str(manifest),
                "--index", str(index),
                "--weights", str(weights),
                "--report", str(report),
                *EVAL_FLAGS,
            ]
        )
        queries = [r for r in read_report(report) if r["type"] == "eval_query"]
        assert len(queries) == 6
        assert queries[0]["initial"][0][0] == "db0"  # pixel-identical twin on top

    def test_query_records_carry_each_pairs_transport(self, indexed, tmp_path, monkeypatch):
        """Each eval_query record lists [id, iterations, converged] for every matched
        candidate, in stage-one order, as match_pair returned them; its unconverged
        ids are those of them that did not converge."""
        manifest, index, weights = indexed
        report = tmp_path / "eval.jsonl"
        argv = ["eval", str(manifest), "--index", str(index), "--weights", str(weights), "--report", str(report)]
        _, matched = eval_results([*argv, *EVAL_FLAGS, "--sinkhorn-iters", "40"], monkeypatch)
        queries = [r for r in read_report(report) if r["type"] == "eval_query"]
        assert [[i, n, ok] for q in queries for i, n, ok in q["transport"]] == [
            [m["candidate"], m["iterations"], m["converged"]] for m in matched
        ]
        assert [len(q["transport"]) for q in queries] == [5] * 6
        for q in queries:
            assert q["unconverged"] == [i for i, _, ok in q["transport"] if not ok]
        assert 0 < sum(len(q["unconverged"]) for q in queries) < 30

    @pytest.mark.parametrize("iters", ["1", "1000"])
    def test_unconverged_pairs_reported(self, indexed, tmp_path, capsys, iters):
        manifest, index, weights = indexed
        report = tmp_path / "eval.jsonl"
        main(
            [
                "eval", str(manifest),
                "--index", str(index),
                "--weights", str(weights),
                "--report", str(report),
                *EVAL_FLAGS,
                "--sinkhorn-iters", iters,
            ]
        )
        records = read_report(report)
        queries = [r for r in records if r["type"] == "eval_query"]
        summary = next(r for r in records if r["type"] == "eval_summary")
        assert summary["matched_pairs"] == sum(len(q["reranked"]) for q in queries) == 30
        assert summary["unconverged_pairs"] == sum(len(q["unconverged"]) for q in queries)
        warned = "did not converge" in capsys.readouterr().err
        if iters == "1":
            assert summary["unconverged_pairs"] == 30
            assert queries[0]["unconverged"] == [i for i, _ in queries[0]["initial"]]
        else:
            assert summary["unconverged_pairs"] == 0
        assert warned == (summary["unconverged_pairs"] > 0)

    # At reg 0.02 this fixture's self pairs take 50-66 iterations and its other
    # pairs 20-24, so a cap of 40 stops some pairs and not others.
    @pytest.mark.parametrize("iters", [1, 40])
    def test_search_matches_per_query_loop(self, indexed, iters):
        manifest, index_path, weights = indexed
        cfg = RunConfig(weights=str(weights), input_height=48, input_width=64, sinkhorn_reg=0.02, sinkhorn_iters=iters)
        model = _resolve_model(cfg)
        index, patch_store = load_index(index_path)
        queries = [r for r in load_manifest(manifest) if r.split == "query"]
        extracted = [extract_image(r.path, model, _settings(cfg, model)) for r in queries]
        got_initial, got_reranked, seconds = zip(
            *_search(cfg, model, index, patch_store, [(r.image_id, *e) for r, e in zip(queries, extracted)])
        )
        pairs, unconverged_pairs = _pair_counts(got_reranked)

        # Reference: the loop eval and bench each ran before they shared one.
        want_initial, want_reranked = [], []
        want_pairs = want_unconverged = 0
        for record, (desc, patches) in zip(queries, extracted):
            initial = global_retrieve(desc, index, record.image_id, k=cfg.candidates)
            reranked = rerank(
                patches,
                initial,
                patch_store,
                model.matcher,
                reg=cfg.sinkhorn_reg,
                tol=cfg.sinkhorn_tol,
                max_iters=cfg.sinkhorn_iters,
            )
            want_pairs += len(reranked.ranked) - len(reranked.missing_patches)
            want_unconverged += len(reranked.unconverged)
            want_initial.append(initial)
            want_reranked.append(reranked)

        def bits(lists):
            return [
                (c.query_id, c.ids(), np.array([s for _, s in c.ranked]).tobytes(), c.missing_patches, c.unconverged)
                for c in lists
            ]

        assert bits(got_initial) == bits(want_initial)
        assert bits(got_reranked) == bits(want_reranked)
        assert (pairs, unconverged_pairs) == (want_pairs, want_unconverged)
        assert pairs == 30 and len(seconds) == 6 and min(seconds) > 0.0
        assert (unconverged_pairs == 30) if iters == 1 else (0 < unconverged_pairs < 30)  # all, then a mix

    def test_float32_attention_keeps_the_float64_order(self, indexed, monkeypatch):
        """Stored float32 patch sets run attention in float32. Fed float64
        copies, the matcher does the float64 arithmetic every caller ran
        before. Both give the same orders and transport outcomes.

        Scores agree to 1e-6 relative, not to the 1e-8 that test_matcher holds
        default-size pairs to: a score here sums the transport of 35 patches,
        not 1131, so less of the float32 rounding (unit roundoff 6e-8) averages
        out, while reg 0.02 scales score errors by 50. Across all pairs of
        this fixture the largest deviation measured was 1.1e-7 relative, about
        two roundoffs; 1e-6 is sixteen.
        """
        manifest, index_path, weights = indexed
        cfg = RunConfig(weights=str(weights), input_height=48, input_width=64, sinkhorn_reg=0.02)
        model = _resolve_model(cfg)
        index, patch_store = load_index(index_path)
        records = [r for r in load_manifest(manifest) if r.split == "query"]
        extracted = [extract_image(r.path, model, _settings(cfg, model)) for r in records]
        queries = [(r.image_id, *e) for r, e in zip(records, extracted)]
        got = [reranked for _, reranked, _ in _search(cfg, model, index, patch_store, queries)]
        enhance = matcher.enhance_descriptors
        monkeypatch.setattr(
            matcher, "enhance_descriptors", lambda q, d, p: enhance(q.astype(np.float64), d.astype(np.float64), p)
        )
        want = [reranked for _, reranked, _ in _search(cfg, model, index, patch_store, queries)]
        assert len(got) == len(want) == 6
        for new, old in zip(got, want):
            assert (new.ids(), new.unconverged, new.missing_patches) == (old.ids(), old.unconverged, old.missing_patches)
            assert_allclose([s for _, s in new.ranked], [s for _, s in old.ranked], rtol=1e-6, atol=0)
        assert _pair_counts(got) == _pair_counts(want) and _pair_counts(got)[0] == 30

    def test_golden_results(self, indexed, monkeypatch):
        """Orders and unconverged ids as recorded in tests/golden/eval.json,
        scores within 1e-12; make_golden.py says when the file may be rewritten."""
        manifest, index, weights = indexed
        argv = ["eval", str(manifest), "--index", str(index), "--weights", str(weights), *EVAL_FLAGS]
        got, _ = eval_results(argv, monkeypatch)
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert [q["query_id"] for q in got] == [q["query_id"] for q in want]
        for new, old in zip(got, want):
            for stage in ("initial", "reranked"):
                assert [i for i, _ in new[stage]] == [i for i, _ in old[stage]], (new["query_id"], stage)
                assert_allclose([s for _, s in new[stage]], [s for _, s in old[stage]], rtol=0, atol=1e-12)
            assert new["unconverged"] == old["unconverged"], new["query_id"]

    def test_golden_transport(self, indexed, monkeypatch):
        """Each matched pair's Sinkhorn iteration count and convergence flag, in match
        order, exactly as recorded in tests/golden/transport.json."""
        manifest, index, weights = indexed
        argv = ["eval", str(manifest), "--index", str(index), "--weights", str(weights), *EVAL_FLAGS]
        _, got = eval_results(argv, monkeypatch)
        assert got == json.loads(GOLDEN_TRANSPORT.read_text(encoding="utf-8"))

    def test_float64_projection_gives_the_same_results(self, tmp_path, monkeypatch):
        """Projecting in float64, as the package did before it projected in float32,
        for the index and the queries alike: the same orders and unconverged ids,
        scores within 1e-7."""

        def run(root, patched):
            root.mkdir()
            manifest, index, weights = index_eval_corpus(root)
            argv = ["eval", str(manifest), "--index", str(index), "--weights", str(weights), *EVAL_FLAGS]
            return eval_results(argv, patched)[0]

        with monkeypatch.context() as patched:
            got = run(tmp_path / "float32", patched)
        with monkeypatch.context() as patched:
            patched.setattr(descriptor, "_project_rows", float64_projection)
            want = run(tmp_path / "float64", patched)
        assert [q["query_id"] for q in got] == [q["query_id"] for q in want]
        for new, old in zip(got, want):
            for stage in ("initial", "reranked"):
                assert [i for i, _ in new[stage]] == [i for i, _ in old[stage]], (new["query_id"], stage)
                assert_allclose([s for _, s in new[stage]], [s for _, s in old[stage]], rtol=0, atol=1e-7)
            assert new["unconverged"] == old["unconverged"], new["query_id"]

    def test_patch_grid_comes_from_the_index(self, tmp_path, monkeypatch):
        manifest, index, weights = index_eval_corpus(tmp_path, "--patch-size", "3", "--patch-stride", "2")
        stored = {p.grid for p in load_index(index)[1].values()}
        assert stored == {PatchGrid(d_x=3, d_y=3, stride=2, height=6, width=8)}
        searched = []
        search = cli._search

        def recording(cfg, model, idx, store, queries):
            queries = list(queries)
            searched.extend(queries)
            return search(cfg, model, idx, store, queries)

        monkeypatch.setattr(cli, "_search", recording)
        assert main(["eval", str(manifest), "--index", str(index), "--weights", str(weights), *EVAL_FLAGS]) == 0
        assert len(searched) == 6 and {patches.grid for _, _, patches in searched} == stored

    def test_working_dims_that_miss_the_index_map_fail_before_extraction(
        self, indexed, tmp_path, monkeypatch, capsys
    ):
        manifest, index_path, weights = indexed
        index, patch_store = load_index(index_path)
        record = {**json.loads(index.record), "input_height": 32}
        bad = tmp_path / "inconsistent.vpri"
        save_index(bad, dataclasses.replace(index, record=json.dumps(record)), patch_store)
        extracted = []
        monkeypatch.setattr(cli, "extract_image", lambda path, *args: extracted.append(path))
        argv = ["eval", str(manifest), "--index", str(bad), "--weights", str(weights)]
        with pytest.raises(FormatError, match="inconsistent.vpri"):
            cli.cmd_eval(build_parser().parse_args(argv))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "4x8 feature map" in err and "6x8" in err  # EVAL_SPEC maps 32x64 to 4x8; the grids are on 6x8
        assert extracted == []

    def test_wgs84_index_refused_before_extraction(self, indexed, tmp_path, monkeypatch, capsys):
        """The save_index API writes wgs84 geotags, but a manifest gives only utm positions: such an index is refused
        before any query is extracted, with a message that names it and its frame, and no report is written."""
        manifest, index_path, weights = indexed
        index, patch_store = load_index(index_path)
        entries = tuple(
            dataclasses.replace(e, geotag=GeoTag.wgs84(48.0, 11.0 + i / 100)) for i, e in enumerate(index.entries)
        )
        bad, report = tmp_path / "wgs84.vpri", tmp_path / "eval.jsonl"
        save_index(bad, dataclasses.replace(index, entries=entries), patch_store)
        extracted = []
        monkeypatch.setattr(cli, "extract_image", lambda path, *args: extracted.append(path))
        argv = ["eval", str(manifest), "--index", str(bad), "--weights", str(weights), "--report", str(report)]
        with pytest.raises(FormatError, match="wgs84.vpri: geotags in the 'wgs84' frame"):
            cli.cmd_eval(build_parser().parse_args(argv))
        assert main(argv) == 2
        assert f"{bad}: geotags in the 'wgs84' frame" in capsys.readouterr().err
        assert extracted == [] and not report.exists()

    def test_unwritable_report_fails_before_extraction(self, indexed, tmp_path, monkeypatch, capsys):
        manifest, index, weights = indexed
        report = tmp_path / "missing_dir" / "r.jsonl"
        extracted = []
        monkeypatch.setattr(cli, "extract_image", lambda path, *args: extracted.append(path))
        argv = ["eval", str(manifest), "--index", str(index), "--weights", str(weights), "--report", str(report)]
        assert main([*argv, *EVAL_FLAGS]) == 2
        assert str(report) in capsys.readouterr().err
        assert extracted == []

    def test_failed_query_leaves_the_lines_of_the_queries_before_it(self, indexed, tmp_path, capsys):
        """The third query holds a NaN: eval exits 2, and its report holds the eval_query lines of the
        two queries before it, with no recall and no eval_summary line."""
        manifest, index, weights = indexed
        x = np.zeros((1, 3, 48, 64), dtype=np.float32)
        x[0, 2, 5, 6] = np.nan
        bad = tmp_path / "q2.t4"
        save_t4(bad, x)
        records = [dataclasses.replace(r, path=str(bad)) if r.image_id == "q2" else r for r in load_manifest(manifest)]
        assert [r.image_id for r in records if r.split == "query"][2] == "q2"
        broken = tmp_path / "broken.csv"
        save_manifest(broken, records)
        report = tmp_path / "eval.jsonl"
        argv = ["eval", str(broken), "--index", str(index), "--weights", str(weights), "--report", str(report)]
        assert main([*argv, *EVAL_FLAGS]) == 2
        assert str(bad) in capsys.readouterr().err
        written = read_report(report)
        assert [(r["type"], r["query_id"]) for r in written] == [("eval_query", "q0"), ("eval_query", "q1")]

    def test_traced_peak_does_not_grow_with_the_query_count(self, tmp_path, monkeypatch):
        """eval extracts each query when its turn comes and drops its patch set after, so ten queries trace
        the same peak as two, within one patch set (at 240x320 the default model's is 266 x 512 float32).
        The peak is taken after the model is loaded, since loading it traces more than a query does at this size."""
        rng = np.random.default_rng(SEED)
        records = []
        for i in range(12):
            path = tmp_path / f"im{i}.ppm"
            write_ppm(path, rng.integers(0, 256, size=(240, 320, 3), dtype=np.uint8))
            records.append(ManifestRecord(f"im{i:02d}", str(path), 100.0 * i, 0.0, "database" if i < 2 else "query"))
        manifests = {count: tmp_path / f"{count}.csv" for count in (2, 10)}
        for count, path in manifests.items():
            save_manifest(path, records[: 2 + count])
        index = tmp_path / "i.vpri"
        assert main(["extract", str(manifests[10]), "--out", str(index), "--input-height", "240", "--input-width", "320"]) == 0
        patch_set = next(iter(load_index(index)[1].values())).descriptors.nbytes
        assert patch_set >= 500_000
        timed_model = cli._timed_model

        def loaded(cfg):
            model = timed_model(cfg)
            tracemalloc.reset_peak()
            return model

        monkeypatch.setattr(cli, "_timed_model", loaded)
        peaks = {}
        for count, path in manifests.items():
            tracemalloc.start()
            try:
                assert main(["eval", str(path), "--index", str(index), "--candidates", "1"]) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10] - peaks[2] < patch_set, (peaks, patch_set)

    def test_other_weights_refused_before_extraction(self, indexed, tmp_path, monkeypatch, capsys):
        manifest, index, weights = indexed
        other = tmp_path / "other.vprw"
        save_weights(other, random_model(seed=14, spec=EVAL_SPEC, clusters=8, pca_dim=32))
        extracted = []
        monkeypatch.setattr(cli, "extract_image", lambda path, *args: extracted.append(path))
        assert main(["eval", str(manifest), "--index", str(index), "--weights", str(other), *EVAL_FLAGS]) == 2
        err = capsys.readouterr().err
        for path in (weights, other):
            assert fused_sha256(path) in err
        assert extracted == []

    def test_index_of_the_two_form_default_model_is_refused_before_extraction(self, tmp_path, monkeypatch, capsys):
        """An index extracted while the seed-0 default model kept its multibranch blocks recorded that
        file's hash; eval names both hashes and says to re-run extract before any query is extracted."""
        old = "5a27aa64d599b081a7fb09a9bd0db82410a5ebbc61c53a8e85498f80ea40ab82"
        record = {"model_sha256": old, "input_height": 480, "input_width": 640, "seed": 0, "clusters": 64, "pca_dim": 512}
        entry = IndexEntry("db0", GlobalDescriptor(values=np.eye(512, dtype=np.float32)[0]), GeoTag.utm(0.0, 0.0))
        index = tmp_path / "old.vpri"
        save_index(index, DescriptorIndex(entries=(entry,), record=json.dumps(record)), {})
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])

        def no_extraction(*args):
            raise AssertionError("a query was extracted")

        monkeypatch.setattr(cli, "extract_image", no_extraction)
        assert main(["eval", str(manifest), "--index", str(index)]) == 2
        err = capsys.readouterr().err
        assert old in err and "6a94aabf6674f1cc" in err and "re-run extract" in err

    def test_weights_built_index_needs_weights(self, indexed, capsys):
        manifest, index, weights = indexed
        assert main(["eval", str(manifest), "--index", str(index), *EVAL_FLAGS]) == 2
        err = capsys.readouterr().err
        assert "pass that file with --weights" in err and fused_sha256(weights) in err

    @pytest.mark.parametrize(
        "record",
        [
            "",
            "[1]",
            '{"input_height": 48, "input_width": 64}',
            '{"model_sha256": "0", "input_height": 48}',
            '{"model_sha256": "0", "input_height": 48.0, "input_width": 64}',
            '{"model_sha256": "0", "input_height": 48, "input_width": 64, "seed": 1}',
        ],
        ids=["none", "not-an-object", "no-hash", "no-width", "float-height", "part-of-a-recipe"],
    )
    def test_index_without_a_record_is_refused(self, indexed, tmp_path, capsys, record):
        manifest, index_path, weights = indexed
        index, patch_store = load_index(index_path)
        bare = tmp_path / "bare.vpri"
        save_index(bare, dataclasses.replace(index, record=record), patch_store)
        argv = ["eval", str(manifest), "--index", str(bare), "--weights", str(weights)]
        with pytest.raises(FormatError, match="no record of the model and working size"):
            cli.cmd_eval(build_parser().parse_args(argv))
        assert main(argv) == 2
        assert "bare.vpri" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        [PatchGrid(d_x=2, d_y=2, stride=2, height=6, width=8), PatchGrid(d_x=2, d_y=3, stride=1, height=6, width=8)],
        ids=["two-grids", "non-square"],
    )
    def test_index_without_one_square_grid_is_refused(self, indexed, tmp_path, capsys, grid):
        manifest, index_path, weights = indexed
        index, patch_store = load_index(index_path)
        rng = np.random.default_rng(SEED)
        patch_store["db1"] = PatchDescriptorSet(rng.standard_normal((grid.count, 32)).astype(np.float32), grid)
        bad = tmp_path / "mixed.vpri"
        save_index(bad, index, patch_store)
        argv = ["eval", str(manifest), "--index", str(bad), "--weights", str(weights), *EVAL_FLAGS]
        with pytest.raises(FormatError, match="one grid of square patches"):
            cli.cmd_eval(build_parser().parse_args(argv))
        assert main(argv) == 2
        assert f"{grid.d_x}x{grid.d_y} stride {grid.stride} on 6x8" in capsys.readouterr().err

    def test_unknown_attention_mode_is_usage_error(self, indexed, tmp_path, capsys):
        manifest, index, weights = indexed
        table = io_store.model_to_tensors(load_weights(weights))
        table["matcher.modes"] = np.array([7, 9, 0, 1], dtype=np.int32)
        bad = tmp_path / "bad.vprw"
        bad.write_bytes(io_store.pack_tensors(table, io_store.WEIGHTS_MAGIC))
        assert main(["eval", str(manifest), "--index", str(index), "--weights", str(bad), *EVAL_FLAGS]) == 2
        assert "'matcher.modes' holds 7" in capsys.readouterr().err

    def test_missing_index_is_usage_error(self, tmp_path):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        assert main(["eval", str(manifest), "--index", str(tmp_path / "nope.vpri")]) == 2

    def test_non_utf8_manifest_is_usage_error_naming_the_line(self, tmp_path, capsys):
        manifest = tmp_path / "bad.csv"
        manifest.write_bytes(b"image_id,path,easting,northing,split\nq0,q\xff.ppm,0,0,query\n")
        assert main(["eval", str(manifest), "--index", str(tmp_path / "i.vpri")]) == 2  # read before the index
        assert "bad.csv: line 2: byte 0xff at offset 41 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, bad",
        [("entry00000.id", np.array([0xFF], dtype=np.uint8)), ("meta.count", np.zeros(0, dtype=np.int32))],
        ids=["non-utf8-id", "empty-count"],
    )
    def test_malformed_index_is_usage_error(self, tmp_path, capsys, name, bad):
        manifest = write_corpus(tmp_path, twins=[0], query_positions=[0.0])
        entry = IndexEntry("db0", GlobalDescriptor(values=np.eye(8, dtype=np.float32)[0]), GeoTag.utm(0.0, 0.0))
        table = io_store.index_to_tensors(DescriptorIndex(entries=(entry,)), {})
        table[name] = bad
        index = tmp_path / "bad.vpri"
        index.write_bytes(io_store.pack_tensors(table, io_store.INDEX_MAGIC))
        assert main(["eval", str(manifest), "--index", str(index)]) == 2
        assert name in capsys.readouterr().err


class TestIndexRecord:
    """A 4-image 64x80 self-query corpus indexed with the seed-0 default layout:
    before the index recorded its model and working size, eval with --seed 1
    printed initial R@1 0.25 and with --input-width 79 printed 0.75, exit 0."""

    @pytest.fixture
    def seeded(self, tmp_path):
        manifest = build_corpus(tmp_path, count=4, dims=(64, 80), seed=3)
        index, weights = tmp_path / "idx.vpri", tmp_path / "model.vprw"
        flags = ["--seed", "0", "--clusters", "4", "--pca-dim", "16", "--input-height", "64", "--input-width", "80"]
        assert main(["extract", str(manifest), "--out", str(index), "--save-weights", str(weights), *flags]) == 0
        return manifest, index, weights

    def test_seeded_index_evaluates_as_its_saved_weights(self, seeded, tmp_path):
        manifest, index, weights = seeded
        reports = []
        for extra in ([], ["--weights", str(weights)]):
            report = tmp_path / f"eval{len(reports)}.jsonl"
            argv = ["eval", str(manifest), "--index", str(index), "--radius-m", "0", "--report", str(report)]
            assert main([*argv, *EVAL_FLAGS, *extra]) == 0
            timings = ("model_seconds", "match_seconds")
            reports.append([{k: v for k, v in r.items() if k not in timings} for r in read_report(report)])
        assert reports[0] == reports[1]
        summary = reports[0][-1]
        assert summary["model_sha256"] == hashlib.sha256(weights.read_bytes()).hexdigest()
        assert next(r["value"] for r in reports[0] if r["type"] == "recall") == 1.0  # initial R@1

    def test_mismatched_model_or_size_fails_loudly(self, seeded, tmp_path, capsys):
        manifest, index, _ = seeded
        for flags in (["--seed", "1"], ["--input-width", "79"]):
            with pytest.raises(SystemExit) as exited:
                main(["eval", str(manifest), "--index", str(index), *flags])
            assert exited.value.code == 2
        other = tmp_path / "seed1.vprw"
        save_weights(other, random_model(seed=1, clusters=4, pca_dim=16))
        capsys.readouterr()
        assert main(["eval", str(manifest), "--index", str(index), "--weights", str(other)]) == 2
        assert "sha256" in capsys.readouterr().err


class TestReparam:
    def test_writes_the_fused_form_with_tiny_deviation(self, tmp_path, small_model):
        weights_in = tmp_path / "in.vprw"
        save_weights(weights_in, small_model)
        out = tmp_path / "out.vprw"
        report = tmp_path / "reparam.jsonl"
        assert main(["reparam", str(weights_in), "--out", str(out), "--report", str(report)]) == 0
        (record,) = read_report(report)
        assert record["status"] == "fused"
        # Neutral normalization: fusion is essentially exact.
        assert record["max_rel_deviation"] < 1e-6 and record["max_abs_deviation"] >= 0.0
        assert record["model_seconds"] > 0.0
        # The identity of the written file, and what extract --weights records for it.
        assert record["model_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest() == fused_sha256(weights_in)
        assert not [key for key in record if key.startswith(("params_", "flops_"))]  # bench --weights counts them
        fused = load_weights(out)
        assert fused.backbone.blocks is None and fused.backbone.fused is not None

    def test_same_check_as_selfcheck(self, tmp_path, small_model):
        """reparam and selfcheck --weights run one fused-form check on the same multibranch input, so they
        report one deviation."""
        assert cli.check_fused_form is selfcheck.check_fused_form
        weights_in, out = tmp_path / "in.vprw", tmp_path / "out.vprw"
        save_weights(weights_in, small_model)
        reparam_report, check_report = tmp_path / "reparam.jsonl", tmp_path / "check.jsonl"
        assert main(["reparam", str(weights_in), "--out", str(out), "--report", str(reparam_report)]) == 0
        assert main(["selfcheck", "--weights", str(weights_in), "--report", str(check_report)]) == 0
        (record,) = read_report(reparam_report)
        (checked,) = [r for r in read_report(check_report) if r.get("check") == "fused vs multibranch forms"]
        assert checked["detail"] == f"max rel dev {record['max_rel_deviation']:.2e}"
        _, deviation, rel = selfcheck.check_fused_form(both_forms(load_weights(weights_in)).backbone)
        assert (record["max_abs_deviation"], record["max_rel_deviation"]) == (deviation, rel)

    def test_fault_in_the_fuse_exits_one_and_writes_nothing(self, tmp_path, small_model, monkeypatch, capsys):
        def off_by_a_bias(original):
            def broken(block):
                conv = original(block)
                return dataclasses.replace(conv, bias=conv.bias + 1e-2)

            return broken

        monkeypatch.setattr(backbone, "reparameterize_block", off_by_a_bias(backbone.reparameterize_block))
        weights_in, out, report = tmp_path / "in.vprw", tmp_path / "out.vprw", tmp_path / "reparam.jsonl"
        save_weights(weights_in, small_model)
        assert main(["reparam", str(weights_in), "--out", str(out), "--report", str(report)]) == 1
        assert not out.exists()
        assert "fails its check" in capsys.readouterr().err
        (record,) = read_report(report)
        assert record["status"] == "failed" and record["max_rel_deviation"] > 1e-5

    def test_already_fused_is_noop(self, tmp_path, small_model, capsys):
        weights_in = tmp_path / "fused.vprw"
        save_weights(weights_in, small_model.with_fused())
        out, report = tmp_path / "copy.vprw", tmp_path / "reparam.jsonl"
        assert main(["reparam", str(weights_in), "--out", str(out), "--report", str(report)]) == 0
        assert "already fused" in capsys.readouterr().out
        assert out.read_bytes() == weights_in.read_bytes()
        (record,) = read_report(report)
        assert record["status"] == "noop"
        assert record["model_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


class TestBench:
    BENCH_FLAGS = [
        "bench", "--images", "2", "--queries", "1",
        "--clusters", "4", "--pca-dim", "8",
        "--input-height", "32", "--input-width", "32",
        "--seed", "3",
    ]

    def test_report_schema_and_static_fields(self, tmp_path, capsys):
        r1, r2 = tmp_path / "b1.jsonl", tmp_path / "b2.jsonl"
        assert main([*self.BENCH_FLAGS, "--report", str(r1)]) == 0
        assert main([*self.BENCH_FLAGS, "--report", str(r2)]) == 0
        a, b = read_report(r1)[0], read_report(r2)[0]
        static = (
            "params_multibranch", "params_fused", "theo_flops_multibranch", "theo_flops_fused",
            "model_size_bytes", "model_sha256", "input_dims",
        )
        for key in ("speed1_extract_ms", "speed2_match_ms", *static):
            assert key in a
        assert a["model_seconds"] > 0.0 and b["model_seconds"] > 0.0
        saved = tmp_path / "model.vprw"
        save_weights(saved, random_model(seed=3, clusters=4, pca_dim=8).with_fused())
        assert (a["model_sha256"], a["model_size_bytes"]) == (
            hashlib.sha256(saved.read_bytes()).hexdigest(),
            saved.stat().st_size,
        )
        assert "model build ms" in capsys.readouterr().out
        for key in static:
            assert a[key] == b[key]
        assert "params" not in a and "theo_flops" not in a

    def test_flops_counted_at_the_run_dims(self, tmp_path):
        net = random_model(seed=3, clusters=4, pca_dim=8).backbone
        flops = []
        for side in (32, 64):
            report = tmp_path / f"bench{side}.jsonl"
            dims = ["--input-height", str(side), "--input-width", str(side)]
            assert main([*self.BENCH_FLAGS, *dims, "--report", str(report)]) == 0
            record = read_report(report)[0]
            params_multi, flops_multi = count_params_flops(net, fused=False, input_dims=(side, side))
            params_fused, flops_fused = count_params_flops(net, fused=True, input_dims=(side, side))
            assert (record["params_multibranch"], record["theo_flops_multibranch"]) == (params_multi, flops_multi)
            assert (record["params_fused"], record["theo_flops_fused"]) == (params_fused, flops_fused)
            assert flops_fused < flops_multi
            flops.append(flops_fused)
        assert flops[0] != flops[1]

    @pytest.mark.parametrize("iters", ["1", "500"])
    def test_unconverged_pairs_reported(self, tmp_path, capsys, iters):
        report = tmp_path / "bench.jsonl"
        assert main([*self.BENCH_FLAGS, "--sinkhorn-iters", iters, "--report", str(report)]) == 0
        record = read_report(report)[0]
        assert record["matched_pairs"] == 2  # one query against both images
        warned = "did not converge" in capsys.readouterr().err
        if iters == "1":
            assert record["unconverged_pairs"] == 2
        else:
            assert record["unconverged_pairs"] == 0
        assert warned == (record["unconverged_pairs"] > 0)

    def test_queries_bounded_by_images(self):
        assert main([*self.BENCH_FLAGS[:3], "--queries", "5"]) == 2


def _tampered_weights(path, model):
    """A file carrying both forms whose fused form is off by 0.5 in one tap."""
    both = both_forms(model)
    fused = list(both.backbone.fused)
    bad_weight = fused[0].weight.copy()
    bad_weight[0, 0, 1, 1] += 0.5
    fused[0] = dataclasses.replace(fused[0], weight=bad_weight)
    save_weights(path, dataclasses.replace(both, backbone=dataclasses.replace(both.backbone, fused=tuple(fused))))
    return path


def _one_sinkhorn_iteration(original):
    return lambda scores, dustbin_score, reg=1.0, tol=1e-6, max_iters=100: original(
        scores, dustbin_score, reg=reg, tol=tol, max_iters=1
    )


def _attention_off_by_one_percent(original):
    def broken(x_src, x_dst, layer):
        out, rho = original(x_src, x_dst, layer)
        return out, rho * 1.01

    return broken


def _vlad_raw_zero_centers(original):
    def broken(x, assignments, p):
        zero = dataclasses.replace(p, centers=np.zeros_like(p.centers))
        return original(x, assignments, zero)

    return broken


def _unpack_as_float64(original):
    return lambda data, magic: {k: v.astype(np.float64) for k, v in original(data, magic).items()}


class TestSelfcheck:
    def test_clean_run_exits_zero(self, tmp_path):
        report = tmp_path / "check.jsonl"
        assert main(["selfcheck", "--report", str(report)]) == 0
        summary = [r for r in read_report(report) if r["type"] == "selfcheck_summary"]
        assert summary[0]["failed"] == 0
        assert summary[0]["checks"] == 6

    def test_tampered_weights_exit_one(self, tmp_path, small_model):
        path = _tampered_weights(tmp_path / "tampered.vprw", small_model)
        assert main(["selfcheck", "--weights", str(path)]) == 1

    def test_tampered_weights_from_config_exit_one(self, tmp_path, small_model):
        path = _tampered_weights(tmp_path / "tampered.vprw", small_model)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"weights = {path}\n", encoding="utf-8")
        report = tmp_path / "check.jsonl"
        assert main(["selfcheck", "--config", str(cfg), "--report", str(report)]) == 1
        summary = [r for r in read_report(report) if r["type"] == "selfcheck_summary"]
        assert (summary[0]["checks"], summary[0]["failed"]) == (7, 1)

    def test_missing_weights_from_config_exit_two(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"weights = {tmp_path / 'missing.vprw'}\n", encoding="utf-8")
        assert main(["selfcheck", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "module, name, fault, check",
        [
            (backbone, "conv2d", lambda f: lambda x, p: f(x, p) * 1.001, "fused equals multibranch"),
            (descriptor, "vlad_raw", _vlad_raw_zero_centers, "whole-map window equals vlad_raw"),
            (matcher, "sinkhorn_assign", _one_sinkhorn_iteration, "sinkhorn marginals"),
            (matcher, "attention_forward", _attention_off_by_one_percent, "attention columns sum to 1"),
            (io_store, "unpack_tensors", _unpack_as_float64, "container round-trip"),
        ],
        ids=["conv2d-scaled", "vlad-zero-centers", "sinkhorn-one-iteration", "attention-scaled", "unpack-float64"],
    )
    def test_injected_fault_fails_its_check(self, monkeypatch, module, name, fault, check):
        """Each kept check fails on a fault in the function it exercises, and only that check does."""
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        assert [r.name for r in run_all() if not r.ok] == [check]
        assert main(["selfcheck"]) == 1

    def test_intact_weights_exit_zero(self, tmp_path, small_model):
        path = tmp_path / "ok.vprw"
        save_weights(path, both_forms(small_model))
        assert main(["selfcheck", "--weights", str(path)]) == 0

    def test_multibranch_only_weights_are_fused_and_checked(self, tmp_path, small_model):
        """A file storing only the multibranch form is fused as a command would fuse
        it at load, and its row reports the measured deviation."""
        path, report = tmp_path / "multi.vprw", tmp_path / "check.jsonl"
        save_weights(path, small_model)
        assert load_weights(path).backbone.fused is None
        assert main(["selfcheck", "--weights", str(path), "--report", str(report)]) == 0
        (row,) = [r for r in read_report(report) if r.get("check") == "fused vs multibranch forms"]
        _, _, rel = selfcheck.check_fused_form(backbone.reparameterize_backbone(load_weights(path).backbone))
        assert row["ok"] and row["detail"] == f"max rel dev {rel:.2e}"

    def test_fused_only_weights_keep_their_single_form_row(self, tmp_path, small_model):
        path, report = tmp_path / "fused.vprw", tmp_path / "check.jsonl"
        save_weights(path, small_model.with_fused())
        assert main(["selfcheck", "--weights", str(path), "--report", str(report)]) == 0
        (row,) = [r for r in read_report(report) if r.get("check") == "fused vs multibranch forms"]
        assert row["detail"] == "file carries a single form; nothing to cross-check"
