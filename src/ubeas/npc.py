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
from .game import Trajectory, play_repetitions, play_stages
# Not called here: bench/tracing.py looks these names up in this module as well
# as in game, whose stage engine calls all of them but class_means and
# maximize_concave.
from .channel import gain_matrix, generate_topology  # noqa: F401
from .game import class_means, maximize_concave, measure_followers  # noqa: F401


def run_npc_stage(behaviors: tuple[BehaviorClass, ...], targets: list[float],
                  powers: np.ndarray, gains: np.ndarray, t: int,
                  rngs: list[np.random.Generator], cfg: GameConfig,
                  memos: list[list] | None = None) -> np.ndarray:
    """One baseline stage for a block: draw each row's planning powers from its
    repetition's powers stream, in repetition order, maximize each price-free
    utility against them, then measure the (B, M) rows; memos is play_stages'."""
    if t > 1 and cfg.npc_rerandomize:
        powers = np.array([rng.uniform(cfg.p_min, cfg.p_max, size=len(behaviors)) for rng in rngs])
    return play_stages(behaviors, targets, None, powers, gains, cfg, memos)


def run_npc_games(cfg: GameConfig, repetitions: range,
                  behaviors: list[BehaviorClass] | None = None) -> list[Trajectory]:
    """Simulate a block of repetitions of the baseline with the class mixture
    of the main game, in lockstep.

    Shares the topology and fading substreams with the main game, so a run
    with the same seed is a paired comparison over the identical channel.
    """
    return play_repetitions(
        cfg, repetitions, behaviors,
        lambda pairs, targets, _x, powers, gains, t, rngs, memos: (None, run_npc_stage(
            pairs, targets, powers, gains, t, rngs, cfg, memos)))


def run_npc_game(cfg: GameConfig, repetition: int = 0,
                 behaviors: list[BehaviorClass] | None = None) -> Trajectory:
    """Simulate one repetition of the baseline."""
    return run_npc_games(cfg, range(repetition, repetition + 1), behaviors)[0]
