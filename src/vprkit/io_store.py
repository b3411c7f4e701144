"""Bit-exact persistence: tensor containers, manifests, images.

One binary container format backs both weight files (magic ``VPRW``) and
descriptor index files (magic ``VPRI``): a version word, a tensor table of
(name, dtype code, rank, dims, offset, size), then raw little-endian payload
blobs. Every save/load pair here round-trips bit-exactly, and every writer is
atomic (write to a temp file in the target directory, then rename).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import stat
import struct
import tempfile
from pathlib import Path
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, BinaryIO, Iterable, Mapping, Optional, Sequence

import numpy as np

from .backbone import Backbone, ConvBnBranch, NetworkSpec, RepVggBlock, StageSpec
from .descriptor import GlobalDescriptor, PatchDescriptorSet, PcaModel, VladParams, make_patch_grid
from .errors import FormatError, VprError
from .matcher import AttentionLayer, MatcherParams
from .model import ModelParams
from .retrieval import DescriptorIndex, GeoTag, IndexEntry
from .tensor import BatchNormParams, ConvParams, Tensor4, bilinear_resize

WEIGHTS_MAGIC = b"VPRW"
INDEX_MAGIC = b"VPRI"
FORMAT_VERSION = 1

# Conventional channel statistics applied to 8-bit images after scaling to [0, 1].
IMAGE_MEAN = (0.485, 0.456, 0.406)
IMAGE_STD = (0.229, 0.224, 0.225)

_DTYPE_CODES: dict[int, np.dtype] = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("<i4"),
    3: np.dtype("u1"),
}
_CODE_FOR_KIND = {("f", 4): 0, ("f", 8): 1, ("i", 4): 2, ("u", 1): 3}


def _atomic_write(path: str | Path, parts: Iterable[Any]) -> None:
    """Write the buffers `parts` to `path` in order, through a temp file in its directory
    renamed into place, so a failed write leaves any old file as it was."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent if str(path.parent) else ".", prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Generic tensor container
# ---------------------------------------------------------------------------


def _dtype_code(arr: np.ndarray) -> int:
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _CODE_FOR_KIND:
        raise FormatError(f"dtype {arr.dtype} is not storable (float32/float64/int32/uint8 only)")
    return _CODE_FOR_KIND[key]


def container_parts(tensors: Mapping[str, np.ndarray], magic: bytes) -> list:
    """The container blob of named arrays, in mapping order, as a list of buffers:
    the header and tensor table, then each array's little-endian bytes as a
    uint8 view of the array itself, so listing them copies no payload."""
    if len(magic) != 4:
        raise FormatError(f"magic must be 4 bytes, got {magic!r}")
    table = bytearray(magic + struct.pack("<II", FORMAT_VERSION, len(tensors)))
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        if arr.ndim < 1 or arr.ndim > 8:
            raise FormatError(f"tensor {name!r} has unsupported rank {arr.ndim}")
        code = _dtype_code(arr)
        blob = arr.astype(arr.dtype.newbyteorder("<"), copy=False).reshape(-1).view(np.uint8)
        encoded = name.encode("utf-8")
        table += struct.pack("<I", len(encoded)) + encoded
        table += struct.pack("<BB", code, arr.ndim)
        table += struct.pack(f"<{arr.ndim}I", *arr.shape)
        table += struct.pack("<QQ", offset, blob.nbytes)
        offset += blob.nbytes
        blobs.append(blob)
    return [table, *blobs]


def pack_tensors(tensors: Mapping[str, np.ndarray], magic: bytes) -> bytes:
    """Serialize named arrays into one container blob, in mapping order."""
    return b"".join(container_parts(tensors, magic))


def unpack_tensors(f: BinaryIO, expect_magic: bytes) -> dict[str, np.ndarray]:
    """Read a container from the seekable binary stream `f` into named arrays. The table and
    the payload layout are checked against the stream's size before any payload array exists;
    each payload is then read once, straight into a fresh (so aligned) array."""
    size = f.seek(0, os.SEEK_END)
    f.seek(0)

    def take(fmt: str) -> tuple:
        n, at = struct.calcsize(fmt), f.tell()
        data = f.read(n) if at + n <= size else b""  # a bad length must not size a read
        if len(data) != n:
            raise FormatError(f"truncated container: wanted {n} bytes at offset {at}, have {size}")
        return struct.unpack(fmt, data)

    (magic,) = take("4s")
    if magic != expect_magic:
        raise FormatError(f"bad magic: found {magic!r}, expected {expect_magic!r}")
    version, count = take("<II")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported container version {version} (this build reads version {FORMAT_VERSION})")
    entries: dict[str, tuple[np.dtype, tuple[int, ...], int, int]] = {}
    for _ in range(count):
        at = f.tell()
        (name_len,) = take("<I")
        try:
            name = take(f"{name_len}s")[0].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"tensor name in the table entry at offset {at} is not UTF-8") from None
        code, rank = take("<BB")
        if code not in _DTYPE_CODES:
            raise FormatError(f"tensor {name!r} uses unknown dtype code {code}")
        if rank < 1 or rank > 8:
            raise FormatError(f"tensor {name!r} has unsupported rank {rank}")
        dims = take(f"<{rank}I")
        offset, nbytes = take("<QQ")
        expected = math.prod(dims) * _DTYPE_CODES[code].itemsize
        if expected != nbytes:
            raise FormatError(f"tensor {name!r} declares {nbytes} bytes but dims {dims} require {expected}")
        if name in entries:
            raise FormatError(f"duplicate tensor name {name!r}")
        entries[name] = (_DTYPE_CODES[code], dims, offset, nbytes)
    base = f.tell()  # payload offsets count from here
    # The payloads tile the rest of the file in table order, as container_parts lays them out.
    end, before = base, "the tensor table"
    for name, (_, _, offset, nbytes) in entries.items():
        if base + offset != end:
            raise FormatError(f"tensor {name!r} payload starts at offset {base + offset}, but {before} ends at {end}")
        end += nbytes
        before = f"tensor {name!r} payload"
    if end != size:
        raise FormatError(f"{before} ends at offset {end}, but the file ends at offset {size}")
    out: dict[str, np.ndarray] = {}
    for name, (dtype, dims, offset, nbytes) in entries.items():
        out[name] = np.empty(dims, dtype=dtype)
        if (got := f.readinto(out[name])) != nbytes:
            raise FormatError(f"short read of tensor {name!r} at offset {base + offset}: {got} of {nbytes} bytes")
    return out


def _field(t: Mapping[str, np.ndarray], name: str, shape: tuple[int, ...] = ()) -> Any:
    """Tensor `name` of `t`, read so that a malformed file raises FormatError naming it.

    With `shape` (-1 matches any size) the tensor must have that shape and is
    returned as is; without, its bytes must be UTF-8 and come back decoded. A
    missing tensor raises KeyError.
    """
    arr = t[name]
    if not shape:
        try:
            return bytes(arr).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"tensor {name!r} is not UTF-8 text") from None
    if arr.ndim != len(shape) or any(want not in (-1, got) for want, got in zip(shape, arr.shape)):
        raise FormatError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
    return arr


def _refuse_non_finite(arr: np.ndarray, what: str) -> None:
    """Refuse arr, naming how many of its values are NaN or infinite and the first.
    It is checked 2**16 values at a time, so the check's one mask stays small
    beside the tensor."""
    flat = arr.reshape(-1)
    mask = np.empty(min(len(flat), 1 << 16), dtype=bool)
    count, first = 0, None
    for lo in range(0, len(flat), 1 << 16):
        block = flat[lo : lo + (1 << 16)]
        finite = np.isfinite(block, out=mask[: len(block)])
        bad = finite.size - int(np.count_nonzero(finite))
        if bad and first is None:
            first = tuple(int(i) for i in np.unravel_index(lo + int(np.flatnonzero(~finite)[0]), arr.shape))
        count += bad
    if count:
        raise FormatError(f"{what}: {count} non-finite values, the first at {first}")


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def _bn_tensors(prefix: str, bn: BatchNormParams, out: dict[str, np.ndarray]) -> None:
    out[prefix + "gamma"] = bn.gamma
    out[prefix + "beta"] = bn.beta
    out[prefix + "mean"] = bn.running_mean
    out[prefix + "var"] = bn.running_var
    out[prefix + "eps"] = np.array([bn.eps], dtype=np.float64)


def _bn_from(prefix: str, t: Mapping[str, np.ndarray]) -> BatchNormParams:
    return BatchNormParams(
        gamma=t[prefix + "gamma"],
        beta=t[prefix + "beta"],
        running_mean=t[prefix + "mean"],
        running_var=t[prefix + "var"],
        eps=float(_field(t, prefix + "eps", (1,))[0]),
    )


def model_to_tensors(model: ModelParams) -> dict[str, np.ndarray]:
    t: dict[str, np.ndarray] = {}
    spec = model.backbone.spec
    t["spec.stages"] = np.array(
        [[s.layer_count, s.out_channels, s.first_stride] for s in spec.stages], dtype=np.int32
    ).reshape(len(spec.stages), 3)
    t["spec.input_dims"] = np.array(spec.input_dims, dtype=np.int32)
    t["spec.in_channels"] = np.array([spec.in_channels], dtype=np.int32)
    t["form.multibranch"] = np.array([int(model.backbone.blocks is not None)], dtype=np.int32)
    t["form.fused"] = np.array([int(model.backbone.fused is not None)], dtype=np.int32)
    if model.backbone.blocks is not None:
        for i, block in enumerate(model.backbone.blocks):
            pre = f"block{i:02d}."
            t[pre + "conv3x3.weight"] = block.conv3x3.conv.weight
            t[pre + "conv3x3.bias"] = block.conv3x3.conv.bias
            _bn_tensors(pre + "conv3x3.bn.", block.conv3x3.bn, t)
            if block.conv1x1 is not None:
                t[pre + "conv1x1.weight"] = block.conv1x1.conv.weight
                t[pre + "conv1x1.bias"] = block.conv1x1.conv.bias
                _bn_tensors(pre + "conv1x1.bn.", block.conv1x1.bn, t)
            if block.identity_bn is not None:
                _bn_tensors(pre + "identity.bn.", block.identity_bn, t)
    if model.backbone.fused is not None:
        for i, conv in enumerate(model.backbone.fused):
            t[f"fused{i:02d}.weight"] = conv.weight
            t[f"fused{i:02d}.bias"] = conv.bias
    t["vlad.centers"] = model.vlad.centers
    t["vlad.assign_weight"] = model.vlad.assign_weight
    t["vlad.assign_bias"] = model.vlad.assign_bias
    if model.pca is not None:
        t["pca.projection"] = model.pca.projection
        t["pca.mean"] = model.pca.mean
    t["matcher.modes"] = np.array(
        [0 if layer.mode == "self" else 1 for layer in model.matcher.layers], dtype=np.int32
    )
    for i, layer in enumerate(model.matcher.layers):
        t[f"matcher.layer{i:02d}.w_f"] = layer.w_f
        t[f"matcher.layer{i:02d}.w_g"] = layer.w_g
        t[f"matcher.layer{i:02d}.w_h"] = layer.w_h
    t["matcher.dustbin"] = np.array([model.matcher.dustbin_score], dtype=np.float64)
    return t


def model_from_tensors(t: Mapping[str, np.ndarray]) -> ModelParams:
    for name, arr in t.items():
        _refuse_non_finite(arr, f"tensor {name!r}")
    try:
        table = _field(t, "spec.stages", (-1, 3))
        # Every layer stores at least one tensor, so a layout is checked before its plan is built.
        layers = table[:, 0].astype(np.int64)
        if (layers < 0).any() or layers.sum() > len(t):
            raise FormatError(
                f"tensor 'spec.stages' declares layer counts summing to {layers.sum()}; each must be >= 0 and the "
                f"sum at most the {len(t)} tensors in the file"
            )
        stages = tuple(StageSpec(int(r[0]), int(r[1]), int(r[2])) for r in table)
        input_dims = _field(t, "spec.input_dims", (2,))
        spec = NetworkSpec(
            stages=stages,
            input_dims=(int(input_dims[0]), int(input_dims[1])),
            in_channels=int(_field(t, "spec.in_channels", (1,))[0]),
        )
        plan = spec.layer_plan()
        blocks = None
        if int(_field(t, "form.multibranch", (1,))[0]):
            built = []
            for i, (_, _, stride, _) in enumerate(plan):
                pre = f"block{i:02d}."
                conv3 = ConvParams(
                    weight=t[pre + "conv3x3.weight"], bias=t[pre + "conv3x3.bias"], stride=stride, padding=1
                )
                branch3 = ConvBnBranch(conv3, _bn_from(pre + "conv3x3.bn.", t))
                branch1 = None
                if pre + "conv1x1.weight" in t:
                    conv1 = ConvParams(
                        weight=t[pre + "conv1x1.weight"], bias=t[pre + "conv1x1.bias"], stride=stride, padding=0
                    )
                    branch1 = ConvBnBranch(conv1, _bn_from(pre + "conv1x1.bn.", t))
                identity = _bn_from(pre + "identity.bn.", t) if pre + "identity.bn.gamma" in t else None
                built.append(RepVggBlock(conv3x3=branch3, conv1x1=branch1, identity_bn=identity, stride=stride))
            blocks = tuple(built)
        fused = None
        if int(_field(t, "form.fused", (1,))[0]):
            fused = tuple(
                ConvParams(weight=t[f"fused{i:02d}.weight"], bias=t[f"fused{i:02d}.bias"], stride=stride, padding=1)
                for i, (_, _, stride, _) in enumerate(plan)
            )
        vlad = VladParams(
            centers=t["vlad.centers"], assign_weight=t["vlad.assign_weight"], assign_bias=t["vlad.assign_bias"]
        )
        # Older files also carry the PCA fit's metadata as two more pca.* tensors; they are not read.
        pca = None
        if "pca.projection" in t:
            pca = PcaModel(projection=t["pca.projection"], mean=t["pca.mean"])
        modes = _field(t, "matcher.modes", (-1,))
        for mode in modes:
            if mode not in (0, 1):
                raise FormatError(f"tensor 'matcher.modes' holds {mode}, expected 0 (self) or 1 (cross)")
        layers = tuple(
            AttentionLayer(
                w_f=t[f"matcher.layer{i:02d}.w_f"],
                w_g=t[f"matcher.layer{i:02d}.w_g"],
                w_h=t[f"matcher.layer{i:02d}.w_h"],
                mode="self" if mode == 0 else "cross",
            )
            for i, mode in enumerate(modes)
        )
        matcher = MatcherParams(layers=layers, dustbin_score=float(_field(t, "matcher.dustbin", (1,))[0]))
    except KeyError as missing:
        raise FormatError(f"weights file is missing tensor {missing}") from None
    return ModelParams(backbone=Backbone(spec=spec, blocks=blocks, fused=fused), vlad=vlad, pca=pca, matcher=matcher)


def save_weights(path: str | Path, model: ModelParams) -> None:
    """Write the full parameter bundle; load_weights(save_weights(m)) == m bit-exactly."""
    _atomic_write(path, container_parts(model_to_tensors(model), WEIGHTS_MAGIC))


def _open_container(path: str | Path) -> BinaryIO:
    """path opened for reading, refused unless it is a regular file: a load seeks, and
    opening a FIFO for reading would block until a writer appeared."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise FormatError(f"{path}: not a regular file; a container must be read from one")
    return open(path, "rb")


def load_weights(path: str | Path) -> ModelParams:
    with _open_container(path) as f:
        return model_from_tensors(unpack_tensors(f, WEIGHTS_MAGIC))


# ---------------------------------------------------------------------------
# Descriptor index
# ---------------------------------------------------------------------------


def index_to_tensors(index: DescriptorIndex, patch_store: Mapping[str, PatchDescriptorSet]) -> dict[str, np.ndarray]:
    t: dict[str, np.ndarray] = {
        "meta.count": np.array([len(index)], dtype=np.int32),
        "meta.dimension": np.array([index.dimension if len(index) else 0], dtype=np.int32),
    }
    if index.record:
        t["meta.record"] = np.frombuffer(index.record.encode("utf-8"), dtype=np.uint8).copy()
    unknown = sorted(set(patch_store) - {e.image_id for e in index.entries})
    if unknown:
        raise FormatError(f"patch store carries ids missing from the index: {unknown}")
    for i, entry in enumerate(index.entries):
        pre = f"entry{i:05d}."
        t[pre + "id"] = np.frombuffer(entry.image_id.encode("utf-8"), dtype=np.uint8).copy()
        t[pre + "descriptor"] = entry.descriptor.values
        t[pre + "flags"] = np.array([int(entry.descriptor.pca_applied)], dtype=np.int32)
        t[pre + "geo.frame"] = np.frombuffer(entry.geotag.frame.encode("utf-8"), dtype=np.uint8).copy()
        t[pre + "geo.coords"] = np.array(entry.geotag.coords, dtype=np.float64)
        patches = patch_store.get(entry.image_id)
        if patches is not None:
            grid = patches.grid
            t[pre + "patches.descriptors"] = patches.descriptors
            t[pre + "patches.grid"] = np.array(
                [grid.d_x, grid.d_y, grid.stride, grid.height, grid.width], dtype=np.int32
            )
    return t


def index_from_tensors(t: Mapping[str, np.ndarray]) -> tuple[DescriptorIndex, dict[str, PatchDescriptorSet]]:
    try:
        count = int(_field(t, "meta.count", (1,))[0])
        dim = int(_field(t, "meta.dimension", (1,))[0])
        entries = []
        patch_store: dict[str, PatchDescriptorSet] = {}
        for i in range(count):
            pre = f"entry{i:05d}."
            image_id = _field(t, pre + "id")
            values = t[pre + "descriptor"]
            if values.shape != (dim,):
                raise FormatError(
                    f"entry {image_id!r} has descriptor shape {values.shape} but the index declares dimension {dim}"
                )
            descriptor = GlobalDescriptor(values=values, pca_applied=bool(int(_field(t, pre + "flags", (1,))[0])))
            frame = _field(t, pre + "geo.frame")
            coords = _field(t, pre + "geo.coords", (2,))
            entries.append(
                IndexEntry(
                    image_id=image_id,
                    descriptor=descriptor,
                    geotag=GeoTag(frame=frame, coords=(float(coords[0]), float(coords[1]))),  # type: ignore[arg-type]
                )
            )
            if pre + "patches.descriptors" in t:
                g = _field(t, pre + "patches.grid", (5,))
                grid = make_patch_grid(
                    height=int(g[3]), width=int(g[4]), d_x=int(g[0]), d_y=int(g[1]), stride=int(g[2])
                )
                patch_store[image_id] = PatchDescriptorSet(descriptors=t[pre + "patches.descriptors"], grid=grid)
    except KeyError as missing:
        raise FormatError(f"index file is missing tensor {missing}") from None
    record = _field(t, "meta.record") if "meta.record" in t else ""
    return DescriptorIndex(entries=tuple(entries), record=record), patch_store


def save_index(path: str | Path, index: DescriptorIndex, patch_store: Mapping[str, PatchDescriptorSet]) -> None:
    _atomic_write(path, container_parts(index_to_tensors(index, patch_store), INDEX_MAGIC))


def load_index(path: str | Path) -> tuple[DescriptorIndex, dict[str, PatchDescriptorSet]]:
    with _open_container(path) as f:
        return index_from_tensors(unpack_tensors(f, INDEX_MAGIC))


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def read_utf8(path: str | Path, error: type[VprError] = FormatError) -> str:
    """The text of a UTF-8 file; otherwise `error` naming the line that holds the first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as bad:
        line = data.count(b"\n", 0, bad.start) + 1
        raise error(f"{path}: line {line}: byte 0x{data[bad.start]:02x} at offset {bad.start} is not UTF-8") from None


MANIFEST_HEADER = ["image_id", "path", "easting", "northing", "split"]
_SPLITS = ("query", "database")


@dataclass(frozen=True)
class ManifestRecord:
    image_id: str
    path: str
    easting: float
    northing: float
    split: str


def load_manifest(path: str | Path) -> list[ManifestRecord]:
    """Parse the dataset manifest CSV, reporting the offending line on errors.

    Expected header: image_id,path,easting,northing,split with split one of
    query|database, coordinates finite decimals, image ids unique.
    """
    records: list[ManifestRecord] = []
    seen: dict[str, int] = {}
    with io.StringIO(read_utf8(path), newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty manifest (missing header)") from None
        if header != MANIFEST_HEADER:
            raise FormatError(f"{path}: line 1: header {header!r} does not match {MANIFEST_HEADER!r}")
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 5:
                raise FormatError(f"{path}: line {line}: expected 5 fields, got {len(row)}")
            image_id, img_path, easting_s, northing_s, split = row
            if not image_id:
                raise FormatError(f"{path}: line {line}: empty image_id")
            if image_id in seen:
                raise FormatError(f"{path}: line {line}: duplicate image_id {image_id!r} (first at line {seen[image_id]})")
            try:
                easting = float(easting_s)
                northing = float(northing_s)
            except ValueError:
                raise FormatError(f"{path}: line {line}: non-numeric coordinate in {row[2:4]!r}") from None
            if not (math.isfinite(easting) and math.isfinite(northing)):
                raise FormatError(f"{path}: line {line}: coordinates must be finite")
            if split not in _SPLITS:
                raise FormatError(f"{path}: line {line}: split must be one of {_SPLITS}, got {split!r}")
            seen[image_id] = line
            records.append(ManifestRecord(image_id, img_path, easting, northing, split))
    return records


def save_manifest(path: str | Path, records: Sequence[ManifestRecord]) -> None:
    """Write records back in the canonical format (repr floats, LF line ends)."""
    # writerow returns what its target's write returns: here each line's UTF-8 bytes, written as it is made.
    line = csv.writer(SimpleNamespace(write=lambda text: text.encode("utf-8")), lineterminator="\n").writerow
    rows = ([r.image_id, r.path, repr(r.easting), repr(r.northing), r.split] for r in records)
    _atomic_write(path, map(line, itertools.chain([MANIFEST_HEADER], rows)))


# ---------------------------------------------------------------------------
# Images
# ---------------------------------------------------------------------------


def _ppm_token(data: bytes, pos: int, path: str | Path) -> tuple[bytes, int]:
    while pos < len(data):
        c = data[pos : pos + 1]
        if c in (b" ", b"\t", b"\r", b"\n"):
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\r", b"\n"):
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos : pos + 1] not in (b" ", b"\t", b"\r", b"\n"):
        pos += 1
    if start == pos:
        raise FormatError(f"{path}: truncated image header")
    return data[start:pos], pos


def parse_ppm(data: bytes, path: str | Path = "<bytes>") -> np.ndarray:
    """Binary 8-bit P6 -> (height, width, 3) uint8."""
    if not data.startswith(b"P6"):
        raise FormatError(f"{path}: not a binary PPM (magic {data[:2]!r})")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _ppm_token(data, pos, path)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"{path}: non-numeric header token {token!r}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit images supported (maxval 255), got {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad image dims {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    need = width * height * 3
    if len(data) - pos < need:
        raise FormatError(f"{path}: truncated pixel data ({max(len(data) - pos, 0)} of {need} bytes)")
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(height, width, 3).copy()


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise FormatError(f"write_ppm wants (H, W, 3) uint8, got {image.shape} {image.dtype}")
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    _atomic_write(path, [header, np.ascontiguousarray(image)])


def load_t4(path: str | Path) -> Tensor4:
    """A .t4 image tensor, refused unless it is one (1, C, H, W) item of finite values.
    The payload size is checked against the file's before the tensor is
    allocated, and the payload is read once, straight into it."""
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise FormatError(f"{path}: truncated tensor header")
        dims = struct.unpack("<4I", header)
        need = math.prod(dims) * 4
        size = os.fstat(f.fileno()).st_size - 16
        if size != need:
            raise FormatError(f"{path}: payload is {size} bytes but dims {dims} require {need}")
        if dims[0] != 1:
            raise FormatError(f"{path}: dims {dims} hold a batch of {dims[0]} images; an image tensor holds one")
        tensor = np.empty(dims, dtype="<f4")
        if (got := f.readinto(tensor)) != need:
            raise FormatError(f"{path}: short read of the payload: {got} of {need} bytes")
    _refuse_non_finite(tensor, str(path))
    return tensor


def load_image(path: str | Path, input_dims: Optional[tuple[int, int]] = None) -> Tensor4:
    """Load one image as a (1, 3, H, W) tensor ready for the backbone.

    PPM files are scaled to [0, 1], normalized per channel with (x - mean)/std,
    then bilinearly resized to input_dims (height, width) when given. A .t4
    sidecar is treated as already preprocessed: loaded bit-exactly and only
    resized if its spatial dims disagree with input_dims. The first two bytes
    pick the format: a PPM's magic, else a .t4 name.
    """
    p = Path(path)
    with open(p, "rb") as f:
        magic = f.read(2)
    if magic == b"P6":
        # Read afresh: a buffered f.read() after the magic joins its buffer to the
        # rest of the file, holding the file's bytes twice.
        data = p.read_bytes()
        rgb = parse_ppm(data, path)
        del data
        arr = rgb.astype(np.float64)  # normalized in place: one float64 image, not one per step
        del rgb
        arr /= 255.0
        arr -= np.asarray(IMAGE_MEAN, dtype=np.float64)
        arr /= np.asarray(IMAGE_STD, dtype=np.float64)
        tensor = np.ascontiguousarray(arr.transpose(2, 0, 1)[None, :, :, :], dtype=np.float32)
    elif p.suffix == ".t4":
        tensor = load_t4(path)
    else:
        raise FormatError(f"{path}: unsupported image format (binary PPM or .t4 tensor expected)")
    if input_dims is not None and tensor.shape[2:] != tuple(input_dims):
        tensor = bilinear_resize(tensor, input_dims[0], input_dims[1])
    return tensor
