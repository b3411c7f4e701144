"""Glue between the model and datasets: per-image extraction, index building."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .backbone import backbone_forward
from .descriptor import (
    GlobalDescriptor,
    PatchDescriptorSet,
    extract_patch_descriptors,
    global_descriptor,
    make_patch_grid,
)
from .errors import FormatError
from .io_store import ManifestRecord, load_image
from .model import ModelParams
from .retrieval import DescriptorIndex, GeoTag, IndexEntry
from .tensor import Tensor4


@dataclass(frozen=True)
class ExtractionSettings:
    """The run-time knobs extraction needs beyond the weights themselves."""

    patch_size: int = 2
    patch_stride: int = 1
    input_dims: Optional[tuple[int, int]] = None
    fused: bool = False
    strict_dims: bool = False


def extract_from_tensor(
    image: Tensor4, model: ModelParams, settings: ExtractionSettings
) -> tuple[GlobalDescriptor, PatchDescriptorSet]:
    """Backbone forward, then global and patch descriptors off the same feature map."""
    fmap = backbone_forward(image, model.backbone, fused=settings.fused, strict_dims=settings.strict_dims)
    h, w = fmap.shape[2], fmap.shape[3]
    grid = make_patch_grid(h, w, settings.patch_size, settings.patch_size, settings.patch_stride)
    desc = global_descriptor(fmap, model.vlad, model.pca)
    patches = extract_patch_descriptors(fmap, grid, model.vlad, model.pca)
    return desc, patches


def extract_image(
    path: str, model: ModelParams, settings: ExtractionSettings
) -> tuple[GlobalDescriptor, PatchDescriptorSet]:
    image = load_image(path, input_dims=settings.input_dims)
    return extract_from_tensor(image, model, settings)


def extract_images(
    paths: Sequence[str], model: ModelParams, settings: ExtractionSettings, threads: int = 1
) -> list[tuple[GlobalDescriptor, PatchDescriptorSet]]:
    """extract_image over each path, results in input order; a worker pool runs
    them only when threads > 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda path: extract_image(path, model, settings), paths))
    return [extract_image(path, model, settings) for path in paths]


def extract_index(
    records: Sequence[ManifestRecord],
    model: ModelParams,
    settings: ExtractionSettings,
    threads: int = 1,
) -> tuple[DescriptorIndex, dict[str, PatchDescriptorSet]]:
    """Build a searchable index over database records.

    Entries are ordered by image_id no matter the manifest order or how the
    worker pool schedules, so the same inputs always produce the same bytes.
    """
    rows = sorted((r for r in records if r.split == "database"), key=lambda r: r.image_id)
    if not rows:
        raise FormatError("manifest contains no database records")
    results = extract_images([r.path for r in rows], model, settings, threads=threads)
    return assemble_index([(r.image_id, GeoTag.utm(r.easting, r.northing)) for r in rows], results)


def assemble_index(
    places: Sequence[tuple[str, GeoTag]], extracted: Sequence[tuple[GlobalDescriptor, PatchDescriptorSet]]
) -> tuple[DescriptorIndex, dict[str, PatchDescriptorSet]]:
    """The index and patch store over extracted (descriptor, patches) pairs,
    one entry per (image_id, geotag) in places, in their order."""
    pairs = list(zip(places, extracted, strict=True))
    entries = tuple(IndexEntry(image_id=i, descriptor=desc, geotag=g) for (i, g), (desc, _) in pairs)
    return DescriptorIndex(entries=entries), {i: patches for (i, _), (_, patches) in pairs}
