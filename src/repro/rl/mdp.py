"""The weight-setting MDP (Section IV-A) wired around a WSD run.

One *episode* plays a whole training stream through WSD. At every
insertion t_k the agent observes the state s_k (Eqs. 19–22), emits an
action a_k = the weight of the arriving edge (Eq. 23), and — when the
next insertion arrives — receives the reward

    r_k = ε(t_k) − ε(t_{k+1}),   ε(t) = |c(t) − |J(t)||      (Eqs. 24–25)

where the ground truth |J(t)| comes from an exact incremental counter
running alongside. Rewards telescope to −ε(t_N), so maximising return is
exactly minimising the final estimation error (Eq. 26). Deletion events
advance the environment but do not generate decisions, matching the
paper's "WSD proceeds ... until a new edge insertion arrives".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.stream import EdgeStream
from repro.patterns.base import Pattern
from repro.patterns.exact import ExactCounter
from repro.rl.ddpg import DDPGAgent
from repro.samplers.wsd import WSD
from repro.weights.base import WeightContext, WeightFunction
from repro.weights.features import state_vector

__all__ = ["AgentWeight", "EpisodeStats", "SamplingEpisode"]

REWARD_SCALES = ("relative", "absolute")


class AgentWeight(WeightFunction):
    """Weight function that queries the agent and records (state, action).

    WSD calls this once per insertion; the episode driver then reads
    :attr:`last_state` / :attr:`last_action` to assemble transitions.
    """

    name = "agent"

    def __init__(
        self,
        agent: DDPGAgent,
        temporal_aggregation: str = "max",
        normalize: bool = True,
        explore: bool = True,
    ) -> None:
        self.agent = agent
        self.temporal_aggregation = temporal_aggregation
        self.normalize = normalize
        self.explore = explore
        self.last_state: np.ndarray | None = None
        self.last_action: float | None = None

    def __call__(self, ctx: WeightContext) -> float:
        state = state_vector(
            ctx,
            temporal_aggregation=self.temporal_aggregation,
            normalize=self.normalize,
        )
        action = self.agent.act(state, explore=self.explore)
        self.last_state = state
        self.last_action = action
        return action

    def reset(self) -> None:
        self.last_state = None
        self.last_action = None


@dataclass
class EpisodeStats:
    """Summary of one training episode."""

    transitions: int = 0
    updates: int = 0
    total_reward: float = 0.0
    final_error: float = 0.0
    critic_losses: list[float] = field(default_factory=list)

    @property
    def mean_critic_loss(self) -> float:
        if not self.critic_losses:
            return float("nan")
        return float(np.mean(self.critic_losses))


class SamplingEpisode:
    """Plays one stream through WSD while training a DDPG agent."""

    def __init__(
        self,
        agent: DDPGAgent,
        pattern: str | Pattern,
        budget: int,
        temporal_aggregation: str = "max",
        normalize: bool = True,
        reward_scale: str = "relative",
        rank_fn: str = "inverse-uniform",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if reward_scale not in REWARD_SCALES:
            raise ConfigurationError(
                f"reward_scale must be one of {REWARD_SCALES}, got "
                f"{reward_scale!r}"
            )
        self.agent = agent
        self.pattern = pattern
        self.budget = budget
        self.temporal_aggregation = temporal_aggregation
        self.normalize = normalize
        self.reward_scale = reward_scale
        self.rank_fn = rank_fn
        self.rng = rng

    def _error(self, estimate: float, truth: int) -> float:
        eps = abs(estimate - truth)
        if self.reward_scale == "relative":
            return eps / max(1.0, float(truth))
        return eps

    def run(
        self,
        stream: EdgeStream,
        explore: bool = True,
        learn: bool = True,
        update_every: int = 1,
        max_updates: int | None = None,
    ) -> EpisodeStats:
        """Play ``stream``; optionally train the agent as it goes.

        ``update_every`` gradient updates happen once per that many
        transitions (after the replay warmup); ``max_updates`` caps the
        number of updates in this episode (for budgeted training runs).
        """
        weight_fn = AgentWeight(
            self.agent,
            temporal_aggregation=self.temporal_aggregation,
            normalize=self.normalize,
            explore=explore,
        )
        sampler = WSD(
            self.pattern,
            self.budget,
            weight_fn,
            rank_fn=self.rank_fn,
            rng=self.rng,
        )
        exact = ExactCounter(self.pattern)
        stats = EpisodeStats()
        self.agent.noise.reset()

        prev_state: np.ndarray | None = None
        prev_action: float | None = None
        prev_error: float | None = None
        since_update = 0

        # Per-event on purpose: each insertion is one MDP step with its own context.
        for event in stream:
            sampler.process(event)
            exact.process(event)
            if not event.is_insertion:
                continue
            error = self._error(sampler.estimate, exact.count)
            state = weight_fn.last_state
            action = weight_fn.last_action
            if prev_state is not None and state is not None:
                reward = prev_error - error
                self.agent.observe(prev_state, prev_action, reward, state)
                stats.transitions += 1
                stats.total_reward += reward
                since_update += 1
                can_update = (
                    learn
                    and self.agent.ready
                    and since_update >= update_every
                    and (max_updates is None or stats.updates < max_updates)
                )
                if can_update:
                    critic_loss, _ = self.agent.update()
                    stats.critic_losses.append(critic_loss)
                    stats.updates += 1
                    since_update = 0
            prev_state, prev_action, prev_error = state, action, error

        stats.final_error = prev_error if prev_error is not None else 0.0
        return stats
