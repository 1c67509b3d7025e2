"""Synthetic allocation instances: fixed agents, per-round random items,
a hidden utility function (linear or squared projection) and Gaussian
observation noise.

Item and agent features are drawn uniformly from (0, 10) per coordinate
and concatenated into per-agent contexts of length d = item_dim +
agent_dim. The hidden parameter vector is drawn the same way and then
normalized to unit length, so true utilities stay positive and bounded
by 10*sqrt(d) for both utility kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LINEAR = "linear"
SQUARE = "square"
UTILITY_KINDS = (LINEAR, SQUARE)

FEATURE_HIGH = 10.0


@dataclass(frozen=True)
class ProblemInstance:
    n_agents: int
    item_dim: int
    agent_dim: int
    agent_features: np.ndarray
    theta_star: np.ndarray
    utility_kind: str
    noise_r: float

    def __post_init__(self) -> None:
        if self.n_agents < 1 or self.item_dim < 1 or self.agent_dim < 1:
            raise ValueError("n_agents, item_dim and agent_dim must be >= 1")
        if self.utility_kind not in UTILITY_KINDS:
            raise ValueError(f"utility_kind must be one of {UTILITY_KINDS}")
        if not np.isfinite(self.noise_r) or self.noise_r < 0.0:
            raise ValueError(f"noise_r must be >= 0, got {self.noise_r!r}")
        if self.agent_features.shape != (self.n_agents, self.agent_dim):
            raise ValueError("agent_features must have shape (n_agents, agent_dim)")
        if np.any(self.agent_features <= 0.0) or np.any(self.agent_features >= FEATURE_HIGH):
            raise ValueError(f"agent features must lie in (0, {FEATURE_HIGH})")
        if self.theta_star.shape != (self.dim,):
            raise ValueError(f"theta_star must have shape ({self.dim},)")
        if abs(float(np.linalg.norm(self.theta_star)) - 1.0) > 1e-12:
            raise ValueError("theta_star must have unit norm")

    @property
    def dim(self) -> int:
        return self.item_dim + self.agent_dim


def generate_instance(
    n_agents: int,
    item_dim: int,
    agent_dim: int,
    utility_kind: str,
    noise_r: float,
    rng: np.random.Generator,
) -> ProblemInstance:
    """Draw agents and the hidden parameter for one problem instance."""
    dim = item_dim + agent_dim
    agent_features = rng.uniform(0.0, FEATURE_HIGH, size=(n_agents, agent_dim))
    raw = rng.uniform(0.0, FEATURE_HIGH, size=dim)
    theta = raw / np.linalg.norm(raw)
    return ProblemInstance(
        n_agents=n_agents,
        item_dim=item_dim,
        agent_dim=agent_dim,
        agent_features=agent_features,
        theta_star=theta,
        utility_kind=utility_kind,
        noise_r=float(noise_r),
    )


def draw_item(instance: ProblemInstance, rng: np.random.Generator) -> np.ndarray:
    """Sample one item and return the (n_agents, dim) context matrix:
    row n is the item's features followed by agent n's."""
    item = rng.uniform(0.0, FEATURE_HIGH, size=instance.item_dim)
    per_agent = np.empty((instance.n_agents, instance.dim))
    per_agent[:, : instance.item_dim] = item
    per_agent[:, instance.item_dim :] = instance.agent_features
    return per_agent


def true_utilities(instance: ProblemInstance, xs: np.ndarray) -> np.ndarray:
    """Hidden utility for each context row.

    linear: the projection x.theta_star; square: the squared projection
    rescaled so both kinds share the (0, 10*sqrt(d)) range.
    """
    proj = xs @ instance.theta_star
    if instance.utility_kind == LINEAR:
        return proj
    return proj**2 / (FEATURE_HIGH * math.sqrt(instance.dim))
