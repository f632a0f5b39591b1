"""Seeded simulator of a user-behavior-aware Stackelberg power-control game
for D2D pairs overlaying a cellular cell, with non-cooperative baselines and
a Monte Carlo experiment harness."""

from .config import (
    BehaviorClass,
    ClassProfile,
    ConfigError,
    GameConfig,
    assign_behavior_classes,
    dbm_to_watts,
    load_config,
    load_config_file,
    watts_to_dbm,
)
from .channel import CellTopology, FadingState, gain_matrix, generate_topology
from .game import (
    LeaderState,
    StageRecord,
    Trajectory,
    follower_best_response,
    follower_utility,
    follower_utility_gradient,
    leader_best_satisfaction,
    leader_utility,
    run_game,
    run_stage,
    satisfaction_price,
)
from .harness import (
    ExperimentSummary,
    check_epsilon_nash,
    check_pareto_convergence,
    emit_outputs,
    run_experiment,
    summarize,
)
from .link import MODULATIONS, ModulationParams, fit_pdr_params, pdr_from_sinr, target_sinr
from .npc import run_npc_game

__version__ = "0.1.0"
