"""Non-cooperative power control (NPC) baselines.

The baseline is the U-BeAS follower game with no leader: x is None, so no
satisfaction price is charged, and the same three follower performance terms
are maximized over the same feasible set (the target-SINR floor is kept,
otherwise the casual baseline is degenerate: its utility is constant in its
own power).  It runs on the stage engine of ``game``; only the planning
powers that set each stage's interference differ.

With ``npc_rerandomize`` on (the default) the planning powers are redrawn
uniformly from the action set every stage, so players keep optimizing against
action-set-level interference; switched off, players iterate best responses
against the previously chosen powers and reach a fixed point on a frozen
channel.
"""

from __future__ import annotations

import numpy as np

from .config import BehaviorClass, GameConfig
from .game import (
    FollowerAgent,
    StageRecord,
    Trajectory,
    play_repetition,
    play_stage,
)
# Not called here: bench/tracing.py looks these names up in this module as well
# as in game, whose stage engine calls all of them but class_means.
from .channel import gain_matrix, generate_topology  # noqa: F401
from .game import class_means, maximize_concave, measure_followers  # noqa: F401


def planning_powers(agents: list[FollowerAgent], t: int, rng: np.random.Generator,
                    cfg: GameConfig) -> np.ndarray:
    """Powers whose interference each player answers at stage t.

    Stage 1 answers the initial powers; later stages answer a fresh uniform
    draw from the action set, or the previous stage's choices when
    ``npc_rerandomize`` is off.
    """
    if t == 1 or not cfg.npc_rerandomize:
        return np.array([agent.power for agent in agents])
    return rng.uniform(cfg.p_min, cfg.p_max, size=len(agents))


def run_npc_stage(agents: list[FollowerAgent], planning: np.ndarray, gains: np.ndarray, t: int,
                  cfg: GameConfig, memo: list | None = None) -> StageRecord:
    """One baseline stage: maximize each price-free utility, then measure; memo is play_stage's."""
    return play_stage(agents, None, planning, gains, t, cfg, memo)


def run_npc_game(cfg: GameConfig, repetition: int = 0,
                 behaviors: list[BehaviorClass] | None = None) -> Trajectory:
    """Simulate one repetition of the baseline with the class mixture of the main game.

    Shares the topology and fading substreams with the main game, so a run
    with the same seed is a paired comparison over the identical channel.
    """
    return play_repetition(
        cfg, repetition, behaviors,
        lambda agents, gains, t, rng, memo: run_npc_stage(
            agents, planning_powers(agents, t, rng, cfg), gains, t, cfg, memo))
