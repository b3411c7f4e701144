"""Two-stage retrieval: exhaustive inner-product search, then patch re-ranking.

Stage one ranks the whole index by descriptor inner product. Stage two
re-scores the survivors with the patch matcher and reorders them. Recall@K
counts a query as correct when any of its top K candidates lies within the
localization radius of the query's own position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Mapping, Sequence

import numpy as np

from .descriptor import GlobalDescriptor, PatchDescriptorSet
from .errors import DegenerateInputError, FrameMismatchError, ShapeError
from .matcher import MatcherParams, match_pair

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class GeoTag:
    """A position in either a metric "utm" frame (easting, northing) or a
    geodetic "wgs84" frame (latitude, longitude in degrees)."""

    frame: Literal["utm", "wgs84"]
    coords: tuple[float, float]

    def __post_init__(self) -> None:
        if self.frame not in ("utm", "wgs84"):
            raise ShapeError(f"unknown geotag frame {self.frame!r}")
        if len(self.coords) != 2 or not all(np.isfinite(c) for c in self.coords):
            raise ShapeError(f"geotag coordinates must be two finite numbers, got {self.coords!r}")
        object.__setattr__(self, "coords", (float(self.coords[0]), float(self.coords[1])))

    @classmethod
    def utm(cls, easting: float, northing: float) -> "GeoTag":
        return cls(frame="utm", coords=(easting, northing))

    @classmethod
    def wgs84(cls, lat: float, lon: float) -> "GeoTag":
        return cls(frame="wgs84", coords=(lat, lon))


def geo_distance(a: GeoTag, b: GeoTag) -> float:
    """Meters between two tags: Euclidean in a metric frame, haversine on wgs84."""
    if a.frame != b.frame:
        raise FrameMismatchError(f"cannot measure between frames {a.frame!r} and {b.frame!r}")
    if a.frame == "utm":
        dx = a.coords[0] - b.coords[0]
        dy = a.coords[1] - b.coords[1]
        return float(np.hypot(dx, dy))
    lat1, lon1, lat2, lon2 = map(np.radians, (*a.coords, *b.coords))
    h = np.sin((lat2 - lat1) / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    return float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h)))


@dataclass(frozen=True)
class IndexEntry:
    image_id: str
    descriptor: GlobalDescriptor
    geotag: GeoTag


@dataclass(frozen=True)
class DescriptorIndex:
    """Searchable set of database entries sharing one descriptor dimension."""

    entries: tuple[IndexEntry, ...]
    record: str = ""  # JSON text of what built the entries, as `vprkit extract` writes it; empty when unknown

    def __post_init__(self) -> None:
        ids = [e.image_id for e in self.entries]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ShapeError(f"duplicate image ids in index: {dupes}")
        dims = {e.descriptor.dim for e in self.entries}
        if len(dims) > 1:
            raise ShapeError(f"index entries disagree on descriptor dim: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        if not self.entries:
            raise DegenerateInputError("index is empty")
        return self.entries[0].descriptor.dim

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _matrix(self) -> np.ndarray:
        stacked = np.stack([e.descriptor.values for e in self.entries]).astype(np.float64)
        stacked.flags.writeable = False
        return stacked

    def matrix(self) -> np.ndarray:
        """The (N, D) float64 descriptor rows, stacked on first use and shared, read-only, after."""
        return self._matrix

    def geotags(self) -> dict[str, GeoTag]:
        return {e.image_id: e.geotag for e in self.entries}


@dataclass(frozen=True)
class CandidateList:
    """Ranked (image_id, score) pairs for one query, from stage-one search or from re-ranking.

    After re-ranking, transport holds (image_id, iterations, converged) for each
    matched candidate, in stage-one order.
    """

    query_id: str
    ranked: tuple[tuple[str, float], ...]
    missing_patches: tuple[str, ...] = ()
    transport: tuple[tuple[str, int, bool], ...] = ()

    def __post_init__(self) -> None:
        ids = [i for i, _ in self.ranked]
        if len(set(ids)) != len(ids):
            raise ShapeError("candidate list repeats an image id")
        scores = [s for _, s in self.ranked]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ShapeError("candidate scores must be non-increasing")

    def ids(self) -> list[str]:
        return [i for i, _ in self.ranked]

    @property
    def unconverged(self) -> tuple[str, ...]:
        """The matched candidates whose transport did not converge, in stage-one order."""
        return tuple(image_id for image_id, _, converged in self.transport if not converged)


def global_retrieve(query: GlobalDescriptor, index: DescriptorIndex, query_id: str, k: int) -> CandidateList:
    """Exhaustive top-k by inner product; score ties break toward the lower image id."""
    if len(index) == 0:
        raise DegenerateInputError("cannot retrieve from an empty index")
    if k < 1:
        raise ShapeError(f"k must be >= 1, got {k}")
    if query.dim != index.dimension:
        raise ShapeError(f"query dim {query.dim} does not match index dim {index.dimension}")
    scores = index.matrix() @ query.values.astype(np.float64)
    order = sorted(range(len(index)), key=lambda i: (-scores[i], index.entries[i].image_id))
    top = order[: min(k, len(index))]
    ranked = tuple((index.entries[i].image_id, float(scores[i])) for i in top)
    return CandidateList(query_id=query_id, ranked=ranked)


def rerank(
    query_patches: PatchDescriptorSet,
    candidates: CandidateList,
    patch_store: Mapping[str, PatchDescriptorSet],
    params: MatcherParams,
    reg: float = 1.0,
    tol: float = 1e-6,
    max_iters: int = 100,
) -> CandidateList:
    """Re-score candidates with the patch matcher and sort by match score.

    Candidates without stored patch descriptors keep their stage-one score and
    are listed in missing_patches; every other candidate's transport outcome
    (its iterations and whether it met tol within max_iters) is listed in
    transport, in stage-one order. Ties keep the stage-one order.
    """
    rescored: list[tuple[str, float]] = []
    missing: list[str] = []
    transport: list[tuple[str, int, bool]] = []
    for image_id, score in candidates.ranked:
        patches = patch_store.get(image_id)
        if patches is None:
            missing.append(image_id)
            rescored.append((image_id, float(score)))
        else:
            value = match_pair(
                query_patches.descriptors,
                patches.descriptors,
                params,
                reg=reg,
                tol=tol,
                max_iters=max_iters,
            )
            transport.append((image_id, value.iterations, value.converged))
            rescored.append((image_id, float(value)))
    order = sorted(range(len(rescored)), key=lambda i: (-rescored[i][1], i))  # stable in initial rank
    ranked = tuple(rescored[i] for i in order)
    return CandidateList(candidates.query_id, ranked, missing_patches=tuple(missing), transport=tuple(transport))


def recall_at_k(
    results: Sequence[CandidateList],
    query_geotags: Mapping[str, GeoTag],
    db_geotags: Mapping[str, GeoTag],
    k: int,
    radius_m: float,
) -> float:
    """Fraction of queries with at least one top-k candidate inside radius_m."""
    if not results:
        raise DegenerateInputError("recall over zero queries is undefined")
    if k < 1:
        raise ShapeError(f"k must be >= 1, got {k}")
    if radius_m < 0:
        raise ShapeError(f"radius must be >= 0, got {radius_m}")
    hits = 0
    for result in results:
        q = query_geotags[result.query_id]
        for image_id in result.ids()[:k]:
            if geo_distance(q, db_geotags[image_id]) <= radius_m:
                hits += 1
                break
    return hits / len(results)
