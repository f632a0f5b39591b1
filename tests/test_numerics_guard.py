"""The code whose values reach the CSVs keeps math's scalar transcendentals and
left-to-right sums.

numpy's exp, log, log10 and power differ from math's in the last bit on part
of their inputs, and np.sum / np.mean / ndarray.sum() / .mean() add pairwise
where the per-sample loops add left to right (builtin sum() compensates from
Python 3.12).  Any of them in the best response, the stage measurement, the
aggregation or the CSV writer changes the output bytes, so this walks the syntax of those
functions, and of every function of the same module they call or pass on (the
kernels receive their exp, log and pow as arguments), and names each use.
"""

import ast
import inspect

from ubeas import game, harness, link, npc

# The roots of the stage loop, its leader path and stage step, the solver and
# the one-row stage, and both games.
CSV_PATH = {game: ("measure_followers", "play_stage", "play_stages", "leader_path", "run_stage",
                   "play_repetitions", "run_games"),
            npc: ("run_npc_games",),
            link: ("interference_all", "pdr_from_sinr"),
            harness: ("summarize", "emit_outputs", "run_experiment")}
NUMPY_FORBIDDEN = {"exp", "log", "log2", "log10", "power", "float_power", "expm1", "log1p",
                   "sum", "mean", "nansum", "nanmean", "average"}
METHODS_FORBIDDEN = {"sum", "mean"}


def _is_numpy(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def functions(source: str) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def reachable(defs: dict[str, ast.FunctionDef], roots) -> list[str]:
    """The roots plus every function of defs they name, called or passed on, transitively."""
    seen, todo = [], list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.append(name)
        todo.extend(node.id for node in ast.walk(defs[name])
                    if isinstance(node, ast.Name) and node.id in defs)
    return seen


def violations(source: str, roots) -> list[str]:
    defs = functions(source)
    found = []
    for name in reachable(defs, roots):
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and _is_numpy(node.value) \
                    and node.attr in NUMPY_FORBIDDEN:
                found.append(f"{name}: np.{node.attr}")
            elif isinstance(node, ast.Attribute) and node.attr == "reduce" \
                    and isinstance(node.value, ast.Attribute) and _is_numpy(node.value.value):
                found.append(f"{name}: np.{node.value.attr}.reduce")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and not _is_numpy(node.func.value) and node.func.attr in METHODS_FORBIDDEN:
                found.append(f"{name}: .{node.func.attr}()")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "sum":
                found.append(f"{name}: sum()")
    return found


def test_csv_path_uses_no_numpy_transcendental_or_pairwise_reduction():
    for module, roots in CSV_PATH.items():
        assert violations(inspect.getsource(module), roots) == [], module.__name__


def test_guard_reaches_the_best_response_gradient():
    source = inspect.getsource(game)
    assert "_gradient_fn" in reachable(functions(source), CSV_PATH[game])
    assert source.count("hvab * gamma_b * math.exp(exponent)") == 1
    planted = source.replace("hvab * gamma_b * math.exp(exponent)",
                             "hvab * gamma_b * np.exp(exponent)")
    assert violations(planted, CSV_PATH[game]) == ["_gradient_fn: np.exp"]


def test_guard_reaches_the_block_engines_array_kernels():
    source = inspect.getsource(game)
    assert {"play_stages", "_best_responses", "_gradients", "_price_log_yz", "_libm",
            "_performance", "_exp_capped"} <= set(reachable(functions(source), CSV_PATH[game]))
    assert source.count("_libm(math.exp, exponent[~fade]) / ps") == 1
    planted = source.replace("_libm(math.exp, exponent[~fade]) / ps",
                             "np.exp(exponent[~fade]) / ps")
    assert violations(planted, CSV_PATH[game]) == ["_gradients: np.exp"]


def test_guard_follows_the_primitives_passed_to_the_performance_term():
    # measure_followers hands its exp to _performance; the numpy capped exp
    # in its place reaches the CSVs without a call in measure_followers itself.
    source = inspect.getsource(game)
    assert source.count("partial(_libm, _exp_capped)") == 1
    planted = source.replace("partial(_libm, _exp_capped)", "_np_exp_capped")
    assert violations(planted, CSV_PATH[game]) == ["_np_exp_capped: np.exp"]
    assert source.count("_price_log_yz(powers, cfg, partial(_libm, math.log))") == 1
    planted = source.replace("_price_log_yz(powers, cfg, partial(_libm, math.log))",
                             "_price_log_yz(powers, cfg, np.log)")
    assert violations(planted, CSV_PATH[game]) == ["measure_followers: np.log"]


def test_guard_reaches_the_link_formulas():
    source = inspect.getsource(link)
    assert source.count("math.exp(mod.a * gamma ** mod.b)") == 1
    planted = source.replace("math.exp(mod.a * gamma ** mod.b)", "np.exp(mod.a * gamma ** mod.b)")
    assert violations(planted, CSV_PATH[link]) == ["pdr_from_sinr: np.exp"]


def test_guard_reaches_the_trajectory_formatter():
    source = inspect.getsource(harness)
    assert "_trajectory_blocks" in reachable(functions(source), CSV_PATH[harness])
    assert source.count("_cells(block[name])") == 1
    planted = source.replace("_cells(block[name])", "_cells(np.log(block[name]))")
    assert violations(planted, CSV_PATH[harness]) == ["_trajectory_blocks: np.log"]


def test_guard_catches_planted_uses():
    source = inspect.getsource(harness)
    assert "map(math.log10," in source
    planted = source.replace("map(math.log10,", "map(np.log10,")
    assert violations(planted, CSV_PATH[harness]) == ["_dbm: np.log10"]
    helper = (
        "def emit_outputs(p):\n    return helper(p)\n\n\n"
        "def helper(p):\n    return p.mean() + np.sum(p) + np.add.reduce(p) + sum(p)\n"
    )
    assert sorted(violations(helper, ["emit_outputs"])) == [
        "helper: .mean()", "helper: np.add.reduce", "helper: np.sum", "helper: sum()"]
