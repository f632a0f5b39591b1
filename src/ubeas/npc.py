"""Non-cooperative power control (NPC) baselines.

The baseline is the U-BeAS follower game with no leader: x is None, so no
satisfaction price is charged, and the same three follower performance terms
are maximized over the same feasible set (the target-SINR floor is kept,
otherwise the casual baseline is degenerate: its utility is constant in its
own power).  It runs on the stage engine of ``game``; only the planning
powers whose interference each stage answers differ.

Stage 1 answers the initial powers.  With ``npc_rerandomize`` on (the
default) every later stage answers a fresh uniform draw from the action set,
so players keep optimizing against action-set-level interference; switched
off, players iterate best responses against the previously chosen powers and
reach a fixed point on a frozen channel.
"""

from __future__ import annotations

import numpy as np

from .config import BehaviorClass, GameConfig
from .game import Trajectory, play_repetition, play_stage
# Not called here: bench/tracing.py looks these names up in this module as well
# as in game, whose stage engine calls all of them but class_means.
from .channel import gain_matrix, generate_topology  # noqa: F401
from .game import class_means, maximize_concave, measure_followers  # noqa: F401


def run_npc_stage(behaviors: tuple[BehaviorClass, ...], targets: list[float],
                  powers: np.ndarray, gains: np.ndarray, t: int, rng: np.random.Generator,
                  cfg: GameConfig, memo: list | None = None) -> np.recarray:
    """One baseline stage: draw the planning powers, maximize each price-free
    utility against them, then measure; memo is play_stage's."""
    if t > 1 and cfg.npc_rerandomize:
        powers = rng.uniform(cfg.p_min, cfg.p_max, size=len(behaviors))
    return play_stage(behaviors, targets, None, powers, gains, cfg, memo)


def run_npc_game(cfg: GameConfig, repetition: int = 0,
                 behaviors: list[BehaviorClass] | None = None) -> Trajectory:
    """Simulate one repetition of the baseline with the class mixture of the main game.

    Shares the topology and fading substreams with the main game, so a run
    with the same seed is a paired comparison over the identical channel.
    """
    return play_repetition(
        cfg, repetition, behaviors,
        lambda pairs, targets, _x, powers, gains, t, rng, memo: (None, run_npc_stage(
            pairs, targets, powers, gains, t, rng, cfg, memo)))
