"""The full parameter bundle: backbone plus descriptor and matcher heads."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .backbone import DEFAULT_SPEC, Backbone, NetworkSpec, random_backbone, reparameterize_backbone
from .descriptor import PcaModel, VladParams, random_projection, random_vlad_params
from .errors import ShapeError
from .matcher import MatcherParams, random_matcher_params


@dataclass(frozen=True)
class ModelParams:
    """Everything the extraction and matching pipeline needs, minus run settings."""

    backbone: Backbone
    vlad: VladParams
    pca: Optional[PcaModel]
    matcher: MatcherParams

    def __post_init__(self) -> None:
        feature_dim = self.backbone.spec.stages[-1].out_channels if self.backbone.spec.stages else 0
        if self.vlad.dim != feature_dim:
            raise ShapeError(
                f"vlad expects {self.vlad.dim}-dim local descriptors but the backbone emits {feature_dim} channels"
            )
        if self.pca is not None and self.pca.in_dim != self.vlad.dim * self.vlad.cluster_count:
            raise ShapeError(
                f"projection input dim {self.pca.in_dim} does not match aggregated dim "
                f"{self.vlad.dim * self.vlad.cluster_count}"
            )
        dim = self.descriptor_dim
        if self.matcher.dim is not None and self.matcher.dim != dim:
            raise ShapeError(f"matcher operates on {self.matcher.dim}-dim descriptors, pipeline emits {dim}")

    @property
    def descriptor_dim(self) -> int:
        return self.pca.out_dim if self.pca is not None else self.vlad.dim * self.vlad.cluster_count

    def with_fused(self) -> "ModelParams":
        """The deploy model: the backbone's fused form alone, derived from its multibranch form when it carries one.
        To compare the two forms, fuse the backbone with reparameterize_backbone instead, which keeps both."""
        return replace(self, backbone=replace(reparameterize_backbone(self.backbone), blocks=None))


def random_model(
    seed: int,
    spec: NetworkSpec = DEFAULT_SPEC,
    clusters: int = 64,
    pca_dim: int = 512,
    attention_rounds: int = 2,
    dustbin_score: float = 0.9,
) -> ModelParams:
    """Deterministic seeded model with a random orthonormal projection standing
    in for a fitted one. Identical arguments always produce identical arrays."""
    rng = np.random.default_rng(seed)
    net = random_backbone(spec, rng, bn="neutral")
    dim = spec.stages[-1].out_channels
    vlad = random_vlad_params(dim, clusters, rng)
    pca = random_projection(dim * clusters, pca_dim, rng)
    matcher = random_matcher_params(pca_dim, rng, rounds=attention_rounds, dustbin_score=dustbin_score)
    return ModelParams(backbone=net, vlad=vlad, pca=pca, matcher=matcher)
