"""Non-cooperative power control (NPC) baselines.

The baseline is the U-BeAS follower game with no leader: x is None, so no
satisfaction price is charged, and the same three follower performance terms
are maximized over the same feasible set (the target-SINR floor is kept,
otherwise the casual baseline is degenerate: its utility is constant in its
own power).  It runs on the one stage loop of ``game``, play_repetitions,
with no leader path; only the planning powers whose interference each stage
answers differ, and the loop draws them.

Stage 1 answers the initial powers.  With ``npc_rerandomize`` on (the
default) every later stage answers a fresh uniform draw from the action set,
so players keep optimizing against action-set-level interference; switched
off, players iterate best responses against the previously chosen powers and
reach a fixed point on a frozen channel.
"""

from __future__ import annotations

from .config import GameConfig
from .game import Trajectory, play_repetitions
# Not called here: bench/tracing.py looks these names up in this module as well
# as in game.  The one stage loop calls game.run_stage for both games, so the
# run_npc_stage alias is never called.
from .channel import gain_matrix, generate_topology  # noqa: F401
from .game import class_means, maximize_concave, measure_followers  # noqa: F401
from .game import run_stage as run_npc_stage  # noqa: F401


def run_npc_games(cfg: GameConfig, repetitions: range) -> list[Trajectory]:
    """Simulate a block of repetitions of the baseline with the class mixture
    of the main game, in lockstep.

    Shares the topology and fading substreams with the main game, so a run
    with the same seed is a paired comparison over the identical channel.
    """
    return play_repetitions(cfg, repetitions, None)


def run_npc_game(cfg: GameConfig, repetition: int = 0) -> Trajectory:
    """Simulate one repetition of the baseline."""
    return run_npc_games(cfg, range(repetition, repetition + 1))[0]
