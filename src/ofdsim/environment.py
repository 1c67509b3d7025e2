"""Synthetic allocation instances: fixed agents, per-round random items
and a hidden utility function (linear or squared projection). The
simulator adds the Gaussian observation noise.

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
    """One drawn instance. Only :func:`generate_instance` builds one, from
    the sizes and utility kind that RunConfig has checked. The sizes are
    its arrays' shapes: agent_features is (n_agents, agent_dim) and
    theta_star (dim,), where dim = item_dim + agent_dim."""

    agent_features: np.ndarray
    theta_star: np.ndarray
    utility_kind: str


def generate_instance(
    n_agents: int,
    item_dim: int,
    agent_dim: int,
    utility_kind: str,
    rng: np.random.Generator,
) -> ProblemInstance:
    """Draw agents and the hidden parameter for one problem instance."""
    dim = item_dim + agent_dim
    agent_features = rng.uniform(0.0, FEATURE_HIGH, size=(n_agents, agent_dim))
    raw = rng.uniform(0.0, FEATURE_HIGH, size=dim)
    theta = raw / np.linalg.norm(raw)
    return ProblemInstance(agent_features=agent_features, theta_star=theta,
                           utility_kind=utility_kind)


def draw_item(instance: ProblemInstance, rng: np.random.Generator, rounds: int) -> np.ndarray:
    """Sample one item for each of ``rounds`` rounds and return their
    (rounds, n_agents, dim) context matrices: row n of a round is its
    item's features followed by agent n's. The draws are those of
    ``rounds`` one-item calls in turn, so a run's items do not depend on
    how its rounds are blocked."""
    n_agents, agent_dim = instance.agent_features.shape
    item_dim = instance.theta_star.size - agent_dim
    item = rng.uniform(0.0, FEATURE_HIGH, size=(rounds, item_dim))
    per_agent = np.empty((rounds, n_agents, item_dim + agent_dim))
    per_agent[:, :, :item_dim] = item[:, None, :]
    per_agent[:, :, item_dim:] = instance.agent_features
    return per_agent


def true_utilities(instance: ProblemInstance, xs: np.ndarray) -> np.ndarray:
    """Hidden utility for each row of xs, a stack of (n_agents, dim)
    context matrices; each matrix takes the same arithmetic alone or in a
    stack.

    linear: the projection x.theta_star; square: the squared projection
    rescaled so both kinds share the (0, 10*sqrt(d)) range.
    """
    proj = xs @ instance.theta_star
    if instance.utility_kind == LINEAR:
        return proj
    return proj**2 / (FEATURE_HIGH * math.sqrt(instance.theta_star.size))
