"""Binary containers, manifests, images: every byte accounted for."""

from __future__ import annotations

import dataclasses
import io
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import traced_peak
from vprkit import io_store
from vprkit.backbone import reparameterize_backbone
from vprkit.errors import FormatError
from vprkit.descriptor import GlobalDescriptor, PatchDescriptorSet, make_patch_grid
from vprkit.io_store import (
    IMAGE_MEAN,
    IMAGE_STD,
    INDEX_MAGIC,
    ManifestRecord,
    WEIGHTS_MAGIC,
    index_from_tensors,
    index_to_tensors,
    load_image,
    load_index,
    load_manifest,
    load_t4,
    load_weights,
    model_from_tensors,
    model_to_tensors,
    pack_tensors,
    parse_ppm,
    save_index,
    save_manifest,
    save_weights,
    unpack_tensors,
    write_ppm,
)
from vprkit.retrieval import DescriptorIndex, GeoTag, IndexEntry

SEED = 77001


def save_t4(path, tensor):
    """Write a .t4 sidecar: four little-endian u32 dims, then the float32 payload."""
    path.write_bytes(struct.pack("<4I", *tensor.shape) + tensor.astype("<f4").tobytes())


def resized(arr, change):
    """`arr` with its last axis one shorter (an empty meta.count, a one-element geo.coords) or one longer."""
    return arr[..., :-1] if change == "one_short" else np.concatenate([arr, arr[..., :1]], axis=-1)


class TestTensorContainer:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(SEED)
        table = {
            "a.float": rng.standard_normal((3, 4)).astype(np.float32),
            "b.double": rng.standard_normal(7),
            "c.int": rng.integers(-100, 100, size=(2, 2, 2)).astype(np.int32),
            "d.bytes": rng.integers(0, 256, size=11).astype(np.uint8),
        }
        blob = pack_tensors(table, WEIGHTS_MAGIC)
        back = unpack_tensors(io.BytesIO(blob), WEIGHTS_MAGIC)
        assert set(back) == set(table)
        for name in table:
            assert back[name].dtype == table[name].dtype
            assert_array_equal(back[name], table[name])

    def test_serialization_is_deterministic(self):
        rng = np.random.default_rng(SEED + 1)
        table = {"x": rng.standard_normal((5,)).astype(np.float32), "y": np.arange(3, dtype=np.int32)}
        assert pack_tensors(table, INDEX_MAGIC) == pack_tensors(table, INDEX_MAGIC)

    def test_wrong_magic_refused(self):
        blob = pack_tensors({"x": np.zeros(1, np.float32)}, WEIGHTS_MAGIC)
        with pytest.raises(FormatError):
            unpack_tensors(io.BytesIO(blob), INDEX_MAGIC)

    def test_truncated_payload_refused(self):
        blob = pack_tensors({"x": np.zeros(8, np.float32)}, WEIGHTS_MAGIC)
        with pytest.raises(FormatError):
            unpack_tensors(io.BytesIO(blob[:-5]), WEIGHTS_MAGIC)

    def test_garbage_refused(self):
        with pytest.raises(FormatError):
            unpack_tensors(io.BytesIO(b"not a container at all"), WEIGHTS_MAGIC)

    def test_non_utf8_name_refused_with_its_offset(self):
        blob = pack_tensors({"x": np.zeros(1, np.float32), "ab": np.zeros(1, np.float32)}, WEIGHTS_MAGIC)
        at = blob.index(b"ab") - 4  # the entry starts with the name length
        with pytest.raises(FormatError, match=f"offset {at} is not UTF-8"):
            unpack_tensors(io.BytesIO(blob.replace(b"ab", b"\xff\xfe")), WEIGHTS_MAGIC)

    def test_trailing_bytes_refused_naming_the_last_tensor(self):
        blob = pack_tensors({"x": np.zeros(2, np.float32), "y": np.ones(2, np.float32)}, WEIGHTS_MAGIC)
        with pytest.raises(FormatError, match=f"tensor 'y' payload ends at offset {len(blob)}, but the file ends at offset {len(blob) + 4}"):
            unpack_tensors(io.BytesIO(blob + b"junk"), WEIGHTS_MAGIC)

    @pytest.mark.parametrize("offset", [4, 12], ids=["overlap", "gap"])
    def test_payload_off_its_place_refused_with_its_offset(self, offset):
        """Each payload starts where the one before it ends, in table order."""
        blob = pack_tensors({"x": np.zeros(2, np.float32), "y": np.ones(2, np.float32)}, WEIGHTS_MAGIC)
        field = blob.index(struct.pack("<I", 1) + b"y") + 11  # name length, name, code, rank, dims
        assert blob[field : field + 8] == struct.pack("<Q", 8)
        moved = blob[:field] + struct.pack("<Q", offset) + blob[field + 8 :]
        base = len(blob) - 16  # the table ends where x's 8 payload bytes start
        with pytest.raises(FormatError, match=f"tensor 'y' payload starts at offset {base + offset}, but tensor 'x'"):
            unpack_tensors(io.BytesIO(moved), WEIGHTS_MAGIC)

    def test_payload_beyond_a_tiny_file_refused_before_any_is_allocated(self):
        """A table declaring 400 MB of payload in a 43-byte file fails on the layout check."""
        blob = pack_tensors({"x": np.zeros(1, np.float32)}, WEIGHTS_MAGIC)
        dims = blob.index(struct.pack("<I", 1) + b"x") + 7  # name length, name, code, rank
        huge = blob[:dims] + struct.pack("<IQQ", 10**8, 0, 4 * 10**8) + blob[dims + 20 :]
        refused, peak = traced_peak(lambda: pytest.raises(FormatError, unpack_tensors, io.BytesIO(huge), WEIGHTS_MAGIC))
        assert f"tensor 'x' payload ends at offset {len(blob) - 4 + 4 * 10**8}" in str(refused.value)
        assert peak < 1_000_000

    def test_short_read_refused_naming_the_tensor(self):
        """A stream that comes up short mid-payload, as a file that shrinks while it is read would."""

        class ShortReads(io.BytesIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer).cast("B")[:-1])

        blob = pack_tensors({"x": np.zeros(2, np.float32), "y": np.ones(2, np.float32)}, WEIGHTS_MAGIC)
        with pytest.raises(FormatError, match=f"short read of tensor 'x' at offset {len(blob) - 16}: 7 of 8 bytes"):
            unpack_tensors(ShortReads(blob), WEIGHTS_MAGIC)

    def test_unseekable_stream_refused(self):
        """A pipe cannot be sized before it is read. The refusal is an OSError, which the CLI exits 2 on."""
        read_end, write_end = os.pipe()
        os.write(write_end, pack_tensors({"x": np.zeros(2, np.float32)}, WEIGHTS_MAGIC))
        os.close(write_end)
        with open(read_end, "rb") as f, pytest.raises(io.UnsupportedOperation) as refused:
            unpack_tensors(f, WEIGHTS_MAGIC)
        assert isinstance(refused.value, OSError)

    @pytest.mark.parametrize("load", [load_weights, load_index], ids=["weights", "index"])
    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_non_regular_path_refused_with_its_name(self, tmp_path, load, kind):
        """Refused before it is opened: opening a FIFO for reading would block until a writer came."""
        path = tmp_path / kind
        if kind == "fifo":
            os.mkfifo(path)
        else:
            path.mkdir()
        with pytest.raises(FormatError, match=re.escape(f"{path}: not a regular file")):
            load(path)

    def test_non_finite_count_and_first_index_span_row_blocks(self):
        """The check runs a block of 2**16 values at a time; the count and the first
        index are those of the whole tensor."""
        x = np.zeros((3000, 1000), dtype=np.float32)
        for at in [(2999, 999), (1200, 3), (2500, 7), (1200, 900)]:
            x[at] = np.nan
        with pytest.raises(FormatError, match=re.escape("x: 4 non-finite values, the first at (1200, 3)")):
            io_store._refuse_non_finite(x, "x")
        io_store._refuse_non_finite(np.zeros((0, 5)), "empty")

    @given(
        st.dictionaries(
            st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12),
            st.tuples(
                st.sampled_from(["f4", "f8", "i4", "u1"]),
                st.lists(st.integers(1, 4), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_fuzz(self, shapes, seed):
        rng = np.random.default_rng(seed)
        table = {}
        for name, (code, dims) in shapes.items():
            if code == "f4":
                arr = rng.standard_normal(dims).astype(np.float32)
            elif code == "f8":
                arr = rng.standard_normal(dims)
            elif code == "i4":
                arr = rng.integers(-(2**31), 2**31 - 1, size=dims).astype(np.int32)
            else:
                arr = rng.integers(0, 256, size=dims).astype(np.uint8)
            table[name] = arr
        blob = pack_tensors(table, INDEX_MAGIC)
        back = unpack_tensors(io.BytesIO(blob), INDEX_MAGIC)
        for name in table:
            assert_array_equal(back[name], table[name])
        assert pack_tensors(back, INDEX_MAGIC) == blob


class TestWeightsFile:
    def test_model_round_trip_bit_exact(self, small_model, tmp_path):
        path = tmp_path / "model.vprw"
        save_weights(path, small_model)
        back = load_weights(path)
        assert back.backbone.spec == small_model.backbone.spec
        for a, b in zip(back.backbone.blocks, small_model.backbone.blocks):
            assert_array_equal(a.conv3x3.conv.weight, b.conv3x3.conv.weight)
            assert_array_equal(a.conv3x3.bn.running_var, b.conv3x3.bn.running_var)
            assert a.conv3x3.bn.eps == b.conv3x3.bn.eps
        assert_array_equal(back.vlad.centers, small_model.vlad.centers)
        assert_array_equal(back.pca.projection, small_model.pca.projection)
        assert_array_equal(back.pca.mean, small_model.pca.mean)
        assert len(back.matcher.layers) == len(small_model.matcher.layers)
        for a, b in zip(back.matcher.layers, small_model.matcher.layers):
            assert a.mode == b.mode
            assert_array_equal(a.w_f, b.w_f)
        assert back.matcher.dustbin_score == small_model.matcher.dustbin_score

    def test_reserialization_identical(self, small_model, tmp_path):
        p1, p2 = tmp_path / "a.vprw", tmp_path / "b.vprw"
        save_weights(p1, small_model)
        save_weights(p2, load_weights(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_both_forms_round_trip(self, small_model, tmp_path):
        both = dataclasses.replace(small_model, backbone=reparameterize_backbone(small_model.backbone))
        path = tmp_path / "both.vprw"
        save_weights(path, both)
        back = load_weights(path)
        assert back.backbone.blocks is not None
        assert back.backbone.fused is not None
        for a, b in zip(back.backbone.fused, both.backbone.fused):
            assert_array_equal(a.weight, b.weight)
            assert_array_equal(a.bias, b.bias)

    def test_fused_only_round_trip(self, small_model, tmp_path):
        path = tmp_path / "fused.vprw"
        save_weights(path, small_model.with_fused())
        back = load_weights(path)
        assert back.backbone.blocks is None
        assert back.backbone.fused is not None

    def test_missing_tensor_refused(self, small_model, tmp_path):
        from vprkit.io_store import model_to_tensors, model_from_tensors

        table = model_to_tensors(small_model)
        del table["vlad.centers"]
        with pytest.raises(FormatError):
            model_from_tensors(table)

    def test_old_pca_metadata_read_and_ignored(self, small_model, tmp_path):
        """Files from before the PCA metadata was dropped carry pca.whitened and
        pca.explained_variance; they load as if the two keys were absent."""
        old = {}
        for name, arr in model_to_tensors(small_model).items():
            old[name] = arr
            if name == "pca.mean":
                old["pca.whitened"] = np.array([1], dtype=np.int32)
                old["pca.explained_variance"] = np.arange(small_model.pca.out_dim, 0, -1, dtype=np.float32)
        old_path, new_path, resaved = tmp_path / "old.vprw", tmp_path / "new.vprw", tmp_path / "resaved.vprw"
        old_path.write_bytes(pack_tensors(old, WEIGHTS_MAGIC))
        save_weights(new_path, small_model)
        from_old, from_new = load_weights(old_path).pca, load_weights(new_path).pca
        for field in ("projection", "mean"):
            a, b = getattr(from_old, field), getattr(from_new, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        save_weights(resaved, load_weights(old_path))
        assert resaved.read_bytes() == new_path.read_bytes()

    @pytest.mark.parametrize(
        "name",
        ["spec.stages", "spec.input_dims", "spec.in_channels", "form.multibranch", "form.fused",
         "block00.conv3x3.bn.eps", "matcher.dustbin"],
    )
    @pytest.mark.parametrize("change", ["one_short", "one_extra"])
    def test_wrong_length_field_names_the_tensor(self, small_model, name, change):
        table = model_to_tensors(small_model)
        table[name] = resized(table[name], change)
        with pytest.raises(FormatError, match=name):
            model_from_tensors(table)

    @pytest.mark.parametrize("modes", [[7, 9], [0, 2], [1, -1]])
    def test_unknown_attention_mode_names_tensor_and_value(self, small_model, modes):
        table = model_to_tensors(small_model)
        table["matcher.modes"] = np.array(modes, dtype=np.int32)
        bad = next(m for m in modes if m not in (0, 1))
        with pytest.raises(FormatError, match=f"'matcher.modes' holds {bad},"):
            model_from_tensors(table)

    @pytest.mark.parametrize(
        "name, at, bad",
        [("vlad.centers", (0, 0), np.nan), ("fused01.weight", (2, 1, 0, 2), np.inf)],
        ids=["nan-center", "inf-fused-weight"],
    )
    def test_non_finite_weights_refused(self, small_model, tmp_path, name, at, bad):
        table = model_to_tensors(small_model.with_fused())
        table[name] = table[name].copy()
        table[name][at] = bad
        path = tmp_path / "bad.vprw"
        path.write_bytes(pack_tensors(table, WEIGHTS_MAGIC))
        with pytest.raises(FormatError, match=re.escape(f"'{name}': 1 non-finite values, the first at {at}")):
            load_weights(path)

    def test_negative_layer_count_refused(self, small_model):
        table = model_to_tensors(small_model)
        table["spec.stages"] = table["spec.stages"].copy()
        table["spec.stages"][1, 0] = -1
        with pytest.raises(FormatError, match="'spec.stages'"):
            model_from_tensors(table)

    def test_huge_layer_count_refused_in_bounded_memory(self, small_model, tmp_path):
        """A stage claiming a million layers fails before the layer plan is built."""
        table = model_to_tensors(small_model)
        table["spec.stages"] = table["spec.stages"].copy()
        table["spec.stages"][1, 0] = 10**6
        path = tmp_path / "huge.vprw"
        path.write_bytes(pack_tensors(table, WEIGHTS_MAGIC))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as refused:
                load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert "'spec.stages'" in str(refused.value)

    def test_failed_save_leaves_the_old_file(self, small_model, tmp_path, monkeypatch):
        """A part that fails mid-write leaves the old file as it was and no temp file beside it."""
        path = tmp_path / "model.vprw"
        save_weights(path, small_model)
        before = path.read_bytes()
        parts = io_store.container_parts
        monkeypatch.setattr(io_store, "container_parts", lambda tensors, magic: [*parts(tensors, magic)[:3], None])
        with pytest.raises(TypeError):
            save_weights(path, small_model.with_fused())
        assert path.read_bytes() == before
        assert list(tmp_path.glob(".model.vprw.*.tmp")) == []

    def test_wrong_file_kind_refused(self, small_model, tmp_path):
        path = tmp_path / "index.vpri"
        save_index(path, DescriptorIndex(entries=()), {})
        with pytest.raises(FormatError):
            load_weights(path)


def sample_index(rng, with_patches=True):
    entries = []
    store = {}
    for i in range(4):
        desc = rng.standard_normal(6).astype(np.float32)
        desc /= np.linalg.norm(desc)
        geotag = GeoTag.utm(float(i), -2.0 * i) if i % 2 == 0 else GeoTag.wgs84(45.0 + i, 7.0 - i)
        entries.append(
            IndexEntry(
                image_id=f"img{i:02d}",
                descriptor=GlobalDescriptor(values=desc, pca_applied=bool(i % 2)),
                geotag=geotag,
            )
        )
        if with_patches and i != 2:
            grid = make_patch_grid(3, 4, 2, 2)
            d = rng.standard_normal((grid.count, 6)).astype(np.float32)
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            store[f"img{i:02d}"] = PatchDescriptorSet(descriptors=d, grid=grid)
    return DescriptorIndex(entries=tuple(entries)), store


class TestIndexFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(SEED + 2)
        index, store = sample_index(rng)
        path = tmp_path / "db.vpri"
        save_index(path, index, store)
        back_index, back_store = load_index(path)
        assert [e.image_id for e in back_index.entries] == [e.image_id for e in index.entries]
        for a, b in zip(back_index.entries, index.entries):
            assert_array_equal(a.descriptor.values, b.descriptor.values)
            assert a.descriptor.pca_applied == b.descriptor.pca_applied
            assert a.geotag.frame == b.geotag.frame
            assert a.geotag.coords == b.geotag.coords
        assert set(back_store) == set(store)
        for key in store:
            assert_array_equal(back_store[key].descriptors, store[key].descriptors)
            assert back_store[key].grid == store[key].grid

    def test_reserialization_identical(self, tmp_path):
        rng = np.random.default_rng(SEED + 3)
        index, store = sample_index(rng)
        p1, p2 = tmp_path / "a.vpri", tmp_path / "b.vpri"
        save_index(p1, index, store)
        save_index(p2, *load_index(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_round_trips_bit_exactly(self, tmp_path):
        index, store = sample_index(np.random.default_rng(SEED + 11))
        record = '{"model_sha256": "5a27", "input_height": 480, "input_width": 640, "seed": 3000000000, "note": "é"}'
        p1, p2 = tmp_path / "a.vpri", tmp_path / "b.vpri"
        save_index(p1, dataclasses.replace(index, record=record), store)
        back, back_store = load_index(p1)
        assert back.record == record
        save_index(p2, back, back_store)
        assert p1.read_bytes() == p2.read_bytes()
        save_index(p2, index, store)
        assert load_index(p2)[0].record == "" and "meta.record" not in index_to_tensors(index, store)

    def test_unknown_patch_id_refused(self, tmp_path):
        rng = np.random.default_rng(SEED + 4)
        index, store = sample_index(rng)
        grid = make_patch_grid(3, 4, 2, 2)
        d = np.ones((grid.count, 6), dtype=np.float32)
        store["stranger"] = PatchDescriptorSet(descriptors=d / np.sqrt(6), grid=grid)
        with pytest.raises(FormatError):
            save_index(tmp_path / "bad.vpri", index, store)

    def patch_heavy_index(self):
        """Four entries of 1131 128-d patches each: 2.3 MB, nearly all payload."""
        rng = np.random.default_rng(SEED + 5)
        grid = make_patch_grid(30, 40, 2, 2)
        entries, store = [], {}
        for i in range(4):
            d = rng.standard_normal((grid.count, 128)).astype(np.float32)
            store[f"img{i}"] = PatchDescriptorSet(descriptors=d / np.linalg.norm(d, axis=1, keepdims=True), grid=grid)
            entries.append(IndexEntry(f"img{i}", GlobalDescriptor(values=d[0]), GeoTag.utm(float(i), 0.0)))
        return DescriptorIndex(entries=tuple(entries)), store

    def test_load_peak_memory_bounded(self, tmp_path):
        """One copy of each tensor: each payload is read straight into its array, not through the file's bytes."""
        path = tmp_path / "big.vpri"
        save_index(path, *self.patch_heavy_index())
        _, peak = traced_peak(lambda: load_index(path))
        assert peak <= 1.05 * path.stat().st_size

    def test_save_copies_no_payload(self, tmp_path):
        index, store = self.patch_heavy_index()
        path = tmp_path / "big.vpri"
        _, peak = traced_peak(lambda: save_index(path, index, store))
        assert peak <= 0.05 * path.stat().st_size

    @pytest.mark.parametrize("field", ["id", "geo.frame"])
    def test_non_utf8_string_names_the_tensor(self, field):
        table = index_to_tensors(*sample_index(np.random.default_rng(SEED + 9)))
        table[f"entry00001.{field}"] = np.array([0xFF, 0xFE], dtype=np.uint8)
        with pytest.raises(FormatError, match=f"'entry00001.{field}' is not UTF-8"):
            index_from_tensors(table)

    @pytest.mark.parametrize(
        "name",
        ["meta.count", "meta.dimension", "entry00000.flags", "entry00000.geo.coords", "entry00000.patches.grid"],
    )
    @pytest.mark.parametrize("change", ["one_short", "one_extra"])
    def test_wrong_length_field_names_the_tensor(self, name, change):
        table = index_to_tensors(*sample_index(np.random.default_rng(SEED + 10)))
        table[name] = resized(table[name], change)
        with pytest.raises(FormatError, match=name):
            index_from_tensors(table)

    def test_empty_index_round_trips(self, tmp_path):
        path = tmp_path / "empty.vpri"
        save_index(path, DescriptorIndex(entries=()), {})
        back, store = load_index(path)
        assert len(back) == 0 and store == {}


class TestManifest:
    def records(self):
        return [
            ManifestRecord("a", "imgs/a.ppm", 100.0, -5.5, "database"),
            ManifestRecord("b", "imgs/b.ppm", 0.125, 1e-3, "query"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        save_manifest(path, self.records())
        back = load_manifest(path)
        assert back == list(self.records()) or back == self.records()

    def test_float_precision_survives(self, tmp_path):
        path = tmp_path / "m.csv"
        precise = [ManifestRecord("a", "x.ppm", 1.0 / 3.0, np.pi, "database")]
        save_manifest(path, precise)
        back = load_manifest(path)
        assert back[0].easting == 1.0 / 3.0
        assert back[0].northing == np.pi

    def test_header_required(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,path,x,y,split\na,x.ppm,0,0,database\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("image_id,path,easting,northing,split\na,x.ppm,oops,0,database\n")
        with pytest.raises(FormatError, match="line 2"):
            load_manifest(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("image_id,path,easting,northing,split\na,x.ppm,0,0\n")
        with pytest.raises(FormatError, match="line 2"):
            load_manifest(path)

    def test_duplicate_ids_refused(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "image_id,path,easting,northing,split\n"
            "a,x.ppm,0,0,database\n"
            "a,y.ppm,1,1,database\n"
        )
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_unknown_split_refused(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("image_id,path,easting,northing,split\na,x.ppm,0,0,train\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"image_id,path,easting,northing,split\na,x.ppm,0,0,database\nb,\xff.ppm,1,1,query\n")
        with pytest.raises(FormatError, match=r"m.csv: line 3: byte 0xff at offset 60 is not UTF-8"):
            load_manifest(path)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(SEED + 5)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        assert_array_equal(parse_ppm(path.read_bytes()), img)

    def test_header_comments_skipped(self):
        body = bytes(range(9)) * 2
        data = b"P6\n# a comment\n3 # inline\n2\n255\n" + body
        img = parse_ppm(data)
        assert img.shape == (2, 3, 3)
        assert_array_equal(img.reshape(-1), np.frombuffer(body, np.uint8))

    def test_wrong_magic_refused(self):
        with pytest.raises(FormatError):
            parse_ppm(b"P5\n2 2\n255\n" + bytes(4))

    def test_wrong_maxval_refused(self):
        with pytest.raises(FormatError):
            parse_ppm(b"P6\n2 2\n65535\n" + bytes(24))

    def test_truncated_pixels_refused(self):
        with pytest.raises(FormatError, match=r"truncated pixel data \(5 of 12 bytes\)"):
            parse_ppm(b"P6\n2 2\n255\n" + bytes(5))


class TestT4:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(SEED + 6)
        x = rng.standard_normal((1, 3, 4, 5)).astype(np.float32)
        path = tmp_path / "x.t4"
        save_t4(path, x)
        assert_array_equal(load_t4(path), x)

    def test_length_mismatch_refused(self, tmp_path):
        path = tmp_path / "x.t4"
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        save_t4(path, x)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_t4(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, tmp_path, bad):
        x = np.zeros((1, 3, 4, 5), dtype=np.float32)
        x[0, 2, 1, 3] = bad
        x[0, 2, 3, 0] = bad
        path = tmp_path / "x.t4"
        save_t4(path, x)
        with pytest.raises(FormatError) as refused:
            load_t4(path)
        message = str(refused.value)
        assert str(path) in message and "2 non-finite" in message and "(0, 2, 1, 3)" in message

    def test_batch_other_than_one_refused(self, tmp_path):
        path = tmp_path / "x.t4"
        save_t4(path, np.zeros((2, 3, 4, 5), dtype=np.float32))
        with pytest.raises(FormatError) as refused:
            load_t4(path)
        assert str(path) in str(refused.value) and "(2, 3, 4, 5)" in str(refused.value)


class TestLoadImage:
    def test_ppm_normalization_formula(self, tmp_path):
        img = np.zeros((16, 16, 3), dtype=np.uint8)
        img[:, :, 0] = 255
        img[:, :, 1] = 128
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        out = load_image(path)
        assert out.shape == (1, 3, 16, 16)
        mean = (0.485, 0.456, 0.406)
        std = (0.229, 0.224, 0.225)
        np.testing.assert_allclose(out[0, 0, 0, 0], (1.0 - mean[0]) / std[0], rtol=1e-6)
        np.testing.assert_allclose(out[0, 1, 0, 0], (128 / 255 - mean[1]) / std[1], rtol=1e-5)
        np.testing.assert_allclose(out[0, 2, 0, 0], (0.0 - mean[2]) / std[2], rtol=1e-6)

    def test_resizes_to_requested_dims(self, tmp_path):
        rng = np.random.default_rng(SEED + 7)
        img = rng.integers(0, 256, size=(20, 30, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        out = load_image(path, input_dims=(16, 24))
        assert out.shape == (1, 3, 16, 24)

    def test_ppm_tensor_is_contiguous(self, tmp_path):
        """The backbone takes the loaded image as it is, with no layout copy; the
        values are those of the strided (H, W, C) transpose it replaced."""
        rng = np.random.default_rng(SEED + 9)
        img = rng.integers(0, 256, size=(12, 20, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        out = load_image(path)
        arr = (img.astype(np.float64) / 255.0 - np.asarray(IMAGE_MEAN)) / np.asarray(IMAGE_STD)
        assert out.flags["C_CONTIGUOUS"]
        assert out.tobytes() == arr.transpose(2, 0, 1)[None, :, :, :].astype(np.float32).tobytes()

    def test_t4_loaded_verbatim(self, tmp_path):
        rng = np.random.default_rng(SEED + 8)
        x = rng.standard_normal((1, 3, 18, 22)).astype(np.float32)
        path = tmp_path / "x.t4"
        save_t4(path, x)
        assert_array_equal(load_image(path), x)

    def test_t4_load_holds_about_one_tensor(self, tmp_path):
        """A 480x640 .t4 is read once, straight into its tensor, and checked for
        non-finite values a block at a time. Read whole to test for the PPM magic,
        then again by load_t4, it traced 3.25x the tensor."""
        x = np.random.default_rng(SEED + 10).standard_normal((1, 3, 480, 640)).astype(np.float32)
        path = tmp_path / "x.t4"
        save_t4(path, x)
        got, peak = traced_peak(lambda: load_image(path))
        assert_array_equal(got, x)
        assert peak <= 1.1 * x.nbytes

    def test_ppm_bytes_are_held_once(self, tmp_path, monkeypatch):
        """Up to parsing, a 480x640 PPM load holds the file's bytes once. Read on
        after its two-byte magic through the same buffered file, they were joined
        to the buffer: 2x the file."""
        path = tmp_path / "x.ppm"
        write_ppm(path, np.random.default_rng(SEED + 11).integers(0, 256, (480, 640, 3), dtype=np.uint8))
        parse, at_parse = io_store.parse_ppm, []

        def recording(data, where):
            at_parse.append(tracemalloc.get_traced_memory()[1])
            return parse(data, where)

        monkeypatch.setattr(io_store, "parse_ppm", recording)
        traced_peak(lambda: load_image(path))
        assert at_parse[0] <= 1.1 * path.stat().st_size

    def test_unknown_format_refused(self, tmp_path):
        path = tmp_path / "x.dat"
        path.write_bytes(b"\x00\x01\x02\x03" * 10)
        with pytest.raises(FormatError):
            load_image(path)
