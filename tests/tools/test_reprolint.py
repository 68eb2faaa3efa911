"""Tests for the reprolint static-analysis pass.

Every rule gets at least one fixture that must flag and one that must pass,
plus the keystone test: the repository's own ``src/`` tree lints clean.
"""

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

from reprolint import lint_paths, lint_source  # noqa: E402
from reprolint.cli import main  # noqa: E402


def lint(code, path="src/repro/example.py", rules=None):
    return lint_source(textwrap.dedent(code), path=path, rules=rules)


def rule_ids(diagnostics):
    return [d.rule for d in diagnostics]


# --------------------------------------------------------------------- #
# R1 — raw-random
# --------------------------------------------------------------------- #
class TestRawRandom:
    def test_flags_stdlib_random_import(self):
        diags = lint("import random\n", rules=["R1"])
        assert rule_ids(diags) == ["R1"]

    def test_flags_from_random_import(self):
        diags = lint("from random import shuffle\n", rules=["R1"])
        assert rule_ids(diags) == ["R1"]

    def test_flags_default_rng(self):
        code = """
            import numpy as np
            rng = np.random.default_rng(7)
        """
        diags = lint(code, rules=["R1"])
        assert rule_ids(diags) == ["R1"]
        assert "default_rng" in diags[0].message

    def test_flags_np_random_seed_and_legacy_draws(self):
        code = """
            import numpy as np
            np.random.seed(0)
            x = np.random.uniform(0, 1)
        """
        assert rule_ids(lint(code, rules=["R1"])) == ["R1", "R1"]

    def test_flags_stdlib_random_usage(self):
        code = """
            import random as rnd
            x = rnd.random()
        """
        diags = lint(code, rules=["R1"])
        assert len(diags) == 2  # the import and the draw

    def test_rng_module_is_exempt(self):
        code = """
            import numpy as np
            def as_rng(source):
                return np.random.default_rng(source)
        """
        assert lint(code, path="src/repro/utils/rng.py", rules=["R1"]) == []

    def test_generator_and_seedsequence_types_allowed(self):
        code = """
            import numpy as np
            def spawn_key(seed: int) -> int:
                ss = np.random.SeedSequence(seed, spawn_key=(1,))
                return int(ss.generate_state(1)[0])
            def annotated(rng: np.random.Generator) -> None:
                pass
        """
        assert lint(code, rules=["R1"]) == []


# --------------------------------------------------------------------- #
# R2 — capacity-epsilon
# --------------------------------------------------------------------- #
class TestCapacityEpsilon:
    def test_flags_bare_le_on_capacity(self):
        code = """
            def fits(load, demand, capacity):
                return load + demand <= capacity
        """
        diags = lint(code, rules=["R2"])
        assert rule_ids(diags) == ["R2"]
        assert "CAPACITY_EPS" in diags[0].message

    def test_flags_exact_cost_equality(self):
        code = """
            def same(cost_a, cost_b):
                return cost_a == cost_b
        """
        assert rule_ids(lint(code, rules=["R2"])) == ["R2"]

    def test_eps_slack_passes(self):
        code = """
            CAPACITY_EPS = 1e-9
            def fits(load, demand, capacity):
                return load + demand <= capacity + CAPACITY_EPS
        """
        assert lint(code, rules=["R2"]) == []

    def test_isclose_passes(self):
        code = """
            import math
            def same(cost_a, cost_b):
                return math.isclose(cost_a, cost_b)
        """
        assert lint(code, rules=["R2"]) == []

    def test_unrelated_names_pass(self):
        code = """
            def cmp(a, b):
                return a <= b
        """
        assert lint(code, rules=["R2"]) == []

    def test_test_file_asserts_exempt(self):
        code = """
            def test_feasible(load, capacity):
                assert load <= capacity
        """
        assert lint(code, path="tests/test_x.py", rules=["R2"]) == []

    def test_test_file_non_assert_still_flagged(self):
        code = """
            def helper(load, capacity):
                return load <= capacity
        """
        assert rule_ids(lint(code, path="tests/test_x.py", rules=["R2"])) == ["R2"]

    def test_flags_strict_gt_with_raw_epsilon(self):
        code = """
            def overloaded(load, demand, capacity):
                return load + demand > capacity + 1e-9
        """
        diags = lint(code, rules=["R2"])
        assert rule_ids(diags) == ["R2"]
        assert "raw epsilon" in diags[0].message

    def test_flags_strict_lt_with_raw_epsilon(self):
        code = """
            def has_headroom(capacity, used):
                return 1e-9 < capacity - used
        """
        assert rule_ids(lint(code, rules=["R2"])) == ["R2"]

    def test_strict_ordering_without_epsilon_passes(self):
        code = """
            def cheaper(cost_a, cost_b):
                return cost_a < cost_b
        """
        assert lint(code, rules=["R2"]) == []

    def test_strict_gt_against_named_eps_passes(self):
        code = """
            CAPACITY_EPS = 1e-9
            def has_headroom(capacity, used):
                return capacity - used > CAPACITY_EPS
        """
        assert lint(code, rules=["R2"]) == []


# --------------------------------------------------------------------- #
# R3 — sweep-pickle
# --------------------------------------------------------------------- #
class TestSweepPickle:
    def test_flags_lambda_builder_keyword(self):
        code = """
            def drive(sweep):
                return sweep(make_market=lambda x, seed: x)
        """
        diags = lint(code, rules=["R3"])
        assert rule_ids(diags) == ["R3"]
        assert "pickle" in diags[0].message

    def test_flags_local_function_passed_to_runner(self):
        code = """
            def drive(runner):
                def closure_market(x, seed):
                    return x
                return runner.run(closure_market)
        """
        assert rule_ids(lint(code, rules=["R3"])) == ["R3"]

    def test_flags_lambda_to_map_tasks(self):
        code = """
            from repro.experiments.parallel import map_tasks
            def drive(tasks):
                return map_tasks(lambda t: t, tasks, workers=2)
        """
        assert rule_ids(lint(code, rules=["R3"])) == ["R3"]

    def test_module_level_function_passes(self):
        code = """
            def build_market(x, seed):
                return x
            def drive(runner):
                return runner.run(build_market)
        """
        assert lint(code, rules=["R3"]) == []

    def test_unrelated_lambda_passes(self):
        code = """
            def pick(items):
                return sorted(items, key=lambda i: i.cost_value)
        """
        assert lint(code, rules=["R3"]) == []


# --------------------------------------------------------------------- #
# R4 — stable-order
# --------------------------------------------------------------------- #
class TestStableOrder:
    def test_flags_mutable_default(self):
        code = """
            def accumulate(x, acc=[]):
                acc.append(x)
                return acc
        """
        diags = lint(code, rules=["R4"])
        assert rule_ids(diags) == ["R4"]
        assert "mutable default" in diags[0].message

    def test_flags_dict_call_default(self):
        code = """
            def f(options=dict()):
                return options
        """
        assert rule_ids(lint(code, rules=["R4"])) == ["R4"]

    def test_none_default_passes(self):
        code = """
            def accumulate(x, acc=None):
                acc = [] if acc is None else acc
                return acc
        """
        assert lint(code, rules=["R4"]) == []

    def test_flags_set_iteration_over_players(self):
        code = """
            def visit(players):
                for p in set(players):
                    yield p
        """
        diags = lint(code, rules=["R4"])
        assert rule_ids(diags) == ["R4"]
        assert "unstable order" in diags[0].message

    def test_flags_set_comprehension_over_cloudlets(self):
        code = """
            def nodes(cloudlets):
                return [c for c in {c.node for c in cloudlets}]
        """
        assert rule_ids(lint(code, rules=["R4"])) == ["R4"]

    def test_sorted_set_passes(self):
        code = """
            def visit(players):
                for p in sorted(set(players)):
                    yield p
        """
        assert lint(code, rules=["R4"]) == []

    def test_membership_test_passes(self):
        code = """
            def movable(players, allowed):
                allowed_set = set(allowed)
                return [p for p in players if p in allowed_set]
        """
        assert lint(code, rules=["R4"]) == []

    def test_set_of_unrelated_names_passes(self):
        code = """
            def dedupe(words):
                for w in set(words):
                    yield w
        """
        assert lint(code, rules=["R4"]) == []


# --------------------------------------------------------------------- #
# R5 — rng-plumbing
# --------------------------------------------------------------------- #
class TestRngPlumbing:
    def test_flags_public_api_without_rng_param(self):
        code = """
            from repro.utils.rng import as_rng
            def generate_market(n):
                rng = as_rng(7)
                return rng.uniform(0, 1, size=n)
        """
        diags = lint(code, rules=["R5"])
        assert rule_ids(diags) == ["R5"]
        assert "generate_market" in diags[0].message

    def test_flags_draws_on_unplumbed_rng(self):
        code = """
            def jitter(values, rng):
                return [v + rng.normal() for v in values]
            def wrapper(values):
                return jitter(values, rng.normal())
        """
        # `wrapper` references a free `rng` and draws from it: flagged.
        assert "R5" in rule_ids(lint(code, rules=["R5"]))

    def test_rng_parameter_passes(self):
        code = """
            from repro.utils.rng import as_rng
            def generate_market(n, rng=None):
                rng = as_rng(rng)
                return rng.uniform(0, 1, size=n)
        """
        assert lint(code, rules=["R5"]) == []

    def test_seed_parameter_passes(self):
        code = """
            from repro.utils.rng import as_rng
            def generate_market(n, seed=0):
                rng = as_rng(seed)
                return rng.uniform(0, 1, size=n)
        """
        assert lint(code, rules=["R5"]) == []

    def test_private_helper_exempt(self):
        code = """
            from repro.utils.rng import as_rng
            def _fixed_topology():
                rng = as_rng(1755)
                return rng.integers(0, 10)
        """
        assert lint(code, rules=["R5"]) == []

    def test_test_files_exempt(self):
        code = """
            from repro.utils.rng import as_rng
            def test_draws():
                rng = as_rng(3)
                assert rng.uniform(0, 1) >= 0
        """
        assert lint(code, path="tests/test_x.py", rules=["R5"]) == []


# --------------------------------------------------------------------- #
# R6 — market-mutation
# --------------------------------------------------------------------- #
class TestMarketMutation:
    def test_flags_direct_market_attribute_write(self):
        code = """
            def reprice(market):
                market.providers = []
        """
        diags = lint(code, rules=["R6"])
        assert rule_ids(diags) == ["R6"]
        assert "MarketDelta" in diags[0].message

    def test_flags_write_through_nested_market_path(self):
        code = """
            class Sim:
                def tweak(self):
                    self.market.cost_model.remote_premium = 3.0
        """
        assert rule_ids(lint(code, rules=["R6"])) == ["R6"]

    def test_flags_cloudlet_capacity_augassign(self):
        code = """
            def scale(cl):
                cl.compute_capacity *= 2.0
        """
        diags = lint(code, rules=["R6"])
        assert rule_ids(diags) == ["R6"]
        assert "capacity_changes" in diags[0].message

    def test_flags_cloudlet_price_write(self):
        code = """
            def reprice(cloudlet):
                cloudlet.alpha = 0.5
        """
        assert rule_ids(lint(code, rules=["R6"])) == ["R6"]

    def test_rebinding_a_market_variable_passes(self):
        code = """
            class Sim:
                def reset(self, build):
                    self.market = build()
        """
        assert lint(code, rules=["R6"]) == []

    def test_unrelated_attribute_writes_pass(self):
        code = """
            def track(self, record):
                self.counter += 1
                record.capacity = 3.0
        """
        assert lint(code, rules=["R6"]) == []

    def test_market_package_exempt(self):
        code = """
            def apply(market, providers):
                market.providers = providers
        """
        assert lint(code, path="src/repro/market/market.py", rules=["R6"]) == []

    def test_test_files_exempt(self):
        code = """
            def test_mutation(market):
                market.providers = []
        """
        assert lint(code, path="tests/test_x.py", rules=["R6"]) == []

    def test_escape_hatch_silences(self):
        code = """
            def bookkeeping(market):
                market.epoch_label = "t3"  # reprolint: ok[R6] transient display tag
        """
        assert lint(code, rules=["R6"]) == []


# --------------------------------------------------------------------- #
# R7 — swallowed-error
# --------------------------------------------------------------------- #
class TestSwallowedError:
    def test_flags_broad_except_continue(self):
        code = """
            def scan(items):
                for item in items:
                    try:
                        item.check()
                    except Exception:
                        continue
        """
        diags = lint(code, rules=["R7"])
        assert rule_ids(diags) == ["R7"]
        assert "swallows" in diags[0].message

    def test_flags_bare_except_pass(self):
        code = """
            def best_effort(fn):
                try:
                    fn()
                except:
                    pass
        """
        diags = lint(code, rules=["R7"])
        assert rule_ids(diags) == ["R7"]
        assert "bare except" in diags[0].message

    def test_flags_broad_except_in_tuple(self):
        code = """
            def best_effort(fn):
                try:
                    fn()
                except (ValueError, Exception):
                    return None
        """
        assert rule_ids(lint(code, rules=["R7"])) == ["R7"]

    def test_narrow_except_passes(self):
        code = """
            from repro.exceptions import InfeasibleError
            def scan(items):
                for item in items:
                    try:
                        item.check()
                    except InfeasibleError:
                        continue
        """
        assert lint(code, rules=["R7"]) == []

    def test_reraise_passes(self):
        code = """
            def wrap(fn):
                try:
                    fn()
                except Exception:
                    raise RuntimeError("wrapped")
        """
        assert lint(code, rules=["R7"]) == []

    def test_using_bound_exception_passes(self):
        code = """
            def report(fn, failures):
                try:
                    fn()
                except Exception as exc:
                    failures.append(str(exc))
        """
        assert lint(code, rules=["R7"]) == []

    def test_logging_passes(self):
        code = """
            def tolerate(fn, logger):
                try:
                    fn()
                except Exception:
                    logger.warning("fn failed; continuing")
        """
        assert lint(code, rules=["R7"]) == []

    def test_test_files_exempt(self):
        code = """
            def test_teardown(resource):
                try:
                    resource.close()
                except Exception:
                    pass
        """
        assert lint(code, path="tests/test_x.py", rules=["R7"]) == []

    def test_escape_hatch_silences(self):
        code = """
            def cleanup(path):
                try:
                    path.unlink()
                except Exception:  # reprolint: ok[R7] best-effort temp cleanup
                    pass
        """
        assert lint(code, rules=["R7"]) == []


# --------------------------------------------------------------------- #
# Suppressions (escape hatch + R0 hygiene)
# --------------------------------------------------------------------- #
class TestSuppressions:
    def test_justified_suppression_silences(self):
        code = """
            def fits(occ, capacity):
                return occ <= capacity  # reprolint: ok[R2] integer occupancy slots
        """
        assert lint(code) == []

    def test_rule_scoped_suppression_only_covers_named_rule(self):
        code = """
            import random  # reprolint: ok[R2] wrong rule named on purpose
        """
        assert rule_ids(lint(code, rules=["R1"])) == ["R1"]

    def test_bare_suppression_reported_as_r0(self):
        # The marker is assembled at runtime so that linting THIS file does
        # not see an unjustified escape hatch in the fixture text.
        marker = "# " + "reprolint" + ": ok"
        code = f"""
            def fits(occ, capacity):
                return occ <= capacity  {marker}
        """
        ids = rule_ids(lint(code))
        assert "R0" in ids  # unjustified escape hatch
        assert "R2" not in ids  # ...but it does suppress

    def test_standalone_comment_covers_next_line(self):
        code = """
            def fits(occ, capacity):
                # reprolint: ok[R2] integer occupancy slots
                return occ <= capacity
        """
        assert lint(code) == []


# --------------------------------------------------------------------- #
# Engine + CLI + the keystone: our own tree lints clean
# --------------------------------------------------------------------- #
class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def broken(:\n", path="x.py")
        assert rule_ids(diags) == ["E0"]

    def test_diagnostics_sorted_by_location(self):
        code = """
            import random
            import numpy as np
            np.random.seed(0)
        """
        diags = lint(textwrap.dedent(code))
        assert [d.line for d in diags] == sorted(d.line for d in diags)

    def test_batch_kernel_module_lints_clean(self):
        # The batch best-response kernel is pure deterministic numpy: no
        # raw randomness (R1), no bare epsilon compares (R2 — every
        # comparison goes through IMPROVEMENT_EPS / CAPACITY_EPS), and no
        # unplumbed stochastic API (R5).
        target = REPO_ROOT / "src" / "repro" / "game" / "batch.py"
        assert target.exists()
        diags = lint_paths([str(target)], rules=["R1", "R2", "R5"])
        assert diags == [], "\n".join(d.format() for d in diags)

    def test_src_tree_lints_clean(self):
        diags = lint_paths([str(REPO_ROOT / "src")])
        assert diags == [], "\n".join(d.format() for d in diags)

    def test_tests_tree_lints_clean(self):
        diags = lint_paths([str(REPO_ROOT / "tests")])
        assert diags == [], "\n".join(d.format() for d in diags)


class TestCli:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R1" in out and "1 finding" in out

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("X = 1\n")
        assert main([str(good)]) == 0
        assert capsys.readouterr().out == ""

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R0"):
            assert rule in out

    def test_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main(["--select", "R2", str(bad)]) == 0


# --------------------------------------------------------------------- #
# R8 — worker-purity (single-file shapes; cross-module in test_callgraph)
# --------------------------------------------------------------------- #
class TestWorkerPurity:
    def test_flags_global_mutation_in_task(self):
        code = """
            _CACHE = {}

            def task(point):
                global _CACHE
                _CACHE = dict(point)
                return point

            def run(points):
                return map_tasks(task, points)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "global" in diags[0].message

    def test_flags_nonlocal_mutation_reachable_from_task(self):
        code = """
            def task(point):
                return helper(point)

            def helper(point):
                total = 0
                def bump(v):
                    nonlocal total
                    total += v
                bump(point)
                return total

            def run(points):
                return map_tasks(task, points)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "nonlocal" in diags[0].message

    def test_flags_module_level_rng_draw(self):
        code = """
            from repro.utils.rng import as_rng

            _rng = as_rng(7)

            def task(point):
                return _rng.normal()

            def run(points):
                return map_tasks(task, points)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "_rng" in diags[0].message

    def test_flags_legacy_global_stream_in_closure(self):
        code = """
            import numpy as np

            def task(point):
                return np.random.uniform()

            def run(points):
                return map_tasks(task, points)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "np.random" in diags[0].message

    def test_flags_lambda_dispatch(self):
        code = """
            def run(points, pool):
                return pool.map(lambda p: p * 2, points)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "lambda" in diags[0].message

    def test_flags_nested_task_function_and_unpicklable_capture(self):
        code = """
            from threading import Lock

            def run(points):
                guard = Lock()
                def task(point):
                    with guard:
                        return point
                return map_tasks(task, points)
        """
        diags = lint(code, rules=["R8"])
        assert len(diags) == 2
        messages = " | ".join(d.message for d in diags)
        assert "module level" in messages
        assert "guard" in messages

    def test_clean_pure_module_level_task(self):
        code = """
            def task(point, rng):
                return rng.normal() + point

            def run(points):
                return map_tasks(task, points)
        """
        assert lint(code, rules=["R8"]) == []

    def test_builder_keyword_roots_the_graph(self):
        code = """
            COUNTER = [0]

            def make_market(seed):
                global COUNTER
                COUNTER = [seed]
                return seed

            def run(runner):
                return runner.submit_sweep(task_fn=make_market)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]

    def test_local_rng_parameter_is_not_module_stream(self):
        code = """
            def task(point, rng):
                rng = rng.spawn(1)[0]
                return rng.normal()

            def run(points):
                return map_tasks(task, points)
        """
        assert lint(code, rules=["R8"]) == []

    def test_suppression_covers_r8(self):
        code = """
            _rng = object()

            def task(point):
                return _rng.normal()  # reprolint: ok[R8] deliberately shared fixture stream

            def run(points):
                return map_tasks(task, points)
        """
        assert lint(code, rules=["R8"]) == []

    def test_runtime_run_roots_the_graph(self):
        code = """
            _SEEN = {}

            def task(point):
                global _SEEN
                _SEEN = dict(point)
                return point

            def drive(runtime, points):
                return runtime.run(task, points)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "global" in diags[0].message

    def test_runtime_map_roots_the_graph(self):
        code = """
            import numpy as np

            def task(point):
                return np.random.uniform()

            def drive(runtime, points):
                return runtime.map(task, points)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "np.random" in diags[0].message

    def test_supervise_call_roots_the_graph(self):
        code = """
            _TALLY = 0

            def task(point):
                global _TALLY
                _TALLY = point
                return point

            def drive(transport, points):
                return supervise(task, points, transport=transport)
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]

    def test_clean_runtime_run_dispatch(self):
        code = """
            def task(point):
                return point * 2

            def drive(runtime, points):
                return runtime.run(task, points)
        """
        assert lint(code, rules=["R8"]) == []

    def test_run_on_non_pool_receiver_is_not_dispatch(self):
        code = """
            _STATE = {}

            def task(point):
                global _STATE
                _STATE = dict(point)
                return point

            def drive(simulation, points):
                return simulation.run(task, points)
        """
        assert lint(code, rules=["R8"]) == []


class TestAgentEntryPointRoots:
    """R8 roots the purity walk at ``repro host`` agent entry points:
    ``run_host_agent`` is worker execution reached by the CLI, not by any
    statically visible dispatch call."""

    def test_agent_body_is_rooted_without_a_dispatch_site(self):
        code = """
            _EXECUTED = 0

            def _bump():
                global _EXECUTED
                _EXECUTED += 1

            def run_host_agent(spool):
                _bump()
                return _EXECUTED
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "repro host agent" in diags[0].message
        assert "_EXECUTED" in diags[0].message

    def test_module_level_rng_in_agent_closure_flagged(self):
        code = """
            import numpy as np

            _jitter_rng = np.random.default_rng(0)

            def _backoff():
                return _jitter_rng.uniform(0.0, 0.1)

            def run_host_agent(spool):
                return _backoff()
        """
        diags = lint(code, rules=["R8"])
        assert rule_ids(diags) == ["R8"]
        assert "module-level RNG" in diags[0].message

    def test_pure_agent_passes(self):
        code = """
            def _claim(spool):
                return sorted(spool)

            def run_host_agent(spool):
                return _claim(spool)
        """
        assert lint(code, rules=["R8"]) == []

    def test_agent_defined_in_test_file_is_not_rooted(self):
        code = """
            _EXECUTED = 0

            def run_host_agent(spool):
                global _EXECUTED
                _EXECUTED += 1
        """
        assert lint(code, path="tests/test_agent.py", rules=["R8"]) == []


# --------------------------------------------------------------------- #
# R9 — array-mutation escape
# --------------------------------------------------------------------- #
class TestArrayEscape:
    def test_flags_subscript_store_through_compiled_attr(self):
        code = """
            def hack(cm):
                cm.capacity[3] = 0.0
        """
        diags = lint(code, rules=["R9"])
        assert rule_ids(diags) == ["R9"]
        assert "capacity" in diags[0].message

    def test_flags_aug_assign_through_alias(self):
        code = """
            def hack(cm):
                cap = cm.capacity
                cap[0] += 1.0
        """
        diags = lint(code, rules=["R9"])
        assert rule_ids(diags) == ["R9"]

    def test_flags_whole_array_aug_assign_alias(self):
        code = """
            def hack(market):
                cm = market.compiled()
                tbl = cm.fixed
                tbl += 1.0
        """
        diags = lint(code, rules=["R9"])
        assert rule_ids(diags) == ["R9"]
        assert "alias" in diags[0].message

    def test_flags_mutating_method(self):
        code = """
            def hack(compiled_market):
                compiled_market.fixed.sort()
        """
        diags = lint(code, rules=["R9"])
        assert rule_ids(diags) == ["R9"]
        assert ".sort()" in diags[0].message

    def test_flags_out_kwarg(self):
        code = """
            import numpy as np

            def hack(cm, a, b):
                np.add(a, b, out=cm.shared)
        """
        diags = lint(code, rules=["R9"])
        assert rule_ids(diags) == ["R9"]
        assert "out=" in diags[0].message

    def test_flags_leaky_accessor(self):
        code = """
            class CompiledThing:
                def capacity_view(self):
                    return self.capacity
        """
        diags = lint(code, rules=["R9"])
        assert rule_ids(diags) == ["R9"]
        assert "accessor" in diags[0].message

    def test_accessor_with_readonly_view_is_clean(self):
        code = """
            class CompiledThing:
                def capacity_view(self):
                    view = self.capacity
                    view.flags.writeable = False
                    return self.capacity
        """
        assert lint(code, rules=["R9"]) == []

    def test_copy_then_write_is_clean(self):
        code = """
            def tweak(cm):
                cap = cm.capacity.copy()
                cap[0] = 99.0
                return cap
        """
        assert lint(code, rules=["R9"]) == []

    def test_sanctioned_methods_write_freely(self):
        code = """
            import numpy as np

            class CompiledMarket:
                def __init__(self, n, m):
                    self.fixed = np.zeros((n, m))
                    self.fixed[0, 0] = 1.0

                def apply_delta(self, delta):
                    self.fixed[1, :] = np.inf

                def _grow(self):
                    self.capacity[0] = 0.0
        """
        assert lint(code, rules=["R9"]) == []

    def test_public_method_writing_self_table_is_flagged(self):
        code = """
            class CompiledMarket:
                def zero_out(self, j):
                    self.capacity[j] = 0.0
        """
        diags = lint(code, rules=["R9"])
        assert rule_ids(diags) == ["R9"]

    def test_suppression_covers_r9(self):
        code = """
            def hack(cm):
                cm.capacity[3] = 0.0  # reprolint: ok[R9] scratch copy owned by this test harness
        """
        assert lint(code, rules=["R9"]) == []


# --------------------------------------------------------------------- #
# R10 — delta-atomicity
# --------------------------------------------------------------------- #
class TestDeltaAtomicity:
    def test_flags_write_before_raise(self):
        code = """
            class ServiceMarket:
                def apply(self, delta):
                    self.epoch = delta.epoch
                    if delta.bad:
                        raise ValueError("rejected")
        """
        diags = lint(code, rules=["R10"])
        assert rule_ids(diags) == ["R10"]
        assert "half-applied" in diags[0].message

    def test_flags_subscript_write_before_validator_call(self):
        code = """
            class CompiledMarket:
                def apply_delta(self, delta, market):
                    self.capacity[0, 0] = delta.cpu
                    self._check_delta(delta)
        """
        diags = lint(code, rules=["R10"])
        assert rule_ids(diags) == ["R10"]

    def test_flags_container_mutation_before_raise(self):
        code = """
            class ServiceMarket:
                def apply(self, delta):
                    self._free_rows.append(delta.row)
                    for pid in delta.departures:
                        if pid not in self.index:
                            raise KeyError(pid)
        """
        diags = lint(code, rules=["R10"])
        assert rule_ids(diags) == ["R10"]

    def test_flags_del_before_raise(self):
        code = """
            class ServiceMarket:
                def apply(self, delta):
                    del self._by_id[delta.pid]
                    if delta.bad:
                        raise ValueError("rejected")
        """
        diags = lint(code, rules=["R10"])
        assert rule_ids(diags) == ["R10"]

    def test_validate_then_mutate_is_clean(self):
        code = """
            class ServiceMarket:
                def apply(self, delta):
                    if delta.bad:
                        raise ValueError("rejected")
                    self.epoch = delta.epoch
                    self._by_id[delta.pid] = delta
        """
        assert lint(code, rules=["R10"]) == []

    def test_post_commit_verify_does_not_retro_flag(self):
        code = """
            class CompiledMarket:
                def apply_delta(self, delta, market):
                    if delta.bad:
                        raise ValueError("rejected")
                    self.capacity[0, 0] = delta.cpu
                    self.verify_against(market)
        """
        assert lint(code, rules=["R10"]) == []

    def test_non_market_class_apply_is_ignored(self):
        code = """
            class Widget:
                def apply(self, patch):
                    self.state = patch.state
                    if patch.bad:
                        raise ValueError("rejected")
        """
        assert lint(code, rules=["R10"]) == []

    def test_suppression_covers_r10(self):
        code = """
            class ServiceMarket:
                def apply(self, delta):
                    self.epoch = delta.epoch  # reprolint: ok[R10] rollback write, restored in except
                    if delta.bad:
                        raise ValueError("rejected")
        """
        assert lint(code, rules=["R10"]) == []


# --------------------------------------------------------------------- #
# R0 hygiene over the new rules
# --------------------------------------------------------------------- #
class TestSuppressionHygieneNewRules:
    # Markers are assembled at runtime so that linting THIS file does not
    # see an unjustified escape hatch in the fixture text.
    @staticmethod
    def _marker(rule):
        return "# " + "reprolint" + f": ok[{rule}]"

    def test_unjustified_r8_suppression_is_flagged(self):
        code = f"""
            _rng = object()

            def task(point):
                return _rng.normal()  {self._marker('R8')}

            def run(points):
                return map_tasks(task, points)
        """
        ids = rule_ids(lint(code))
        assert "R0" in ids
        assert "R8" not in ids  # ...but it does suppress

    def test_unjustified_r9_suppression_is_flagged(self):
        code = f"""
            def hack(cm):
                cm.capacity[3] = 0.0  {self._marker('R9')}
        """
        ids = rule_ids(lint(code))
        assert "R0" in ids
        assert "R9" not in ids

    def test_unjustified_r10_suppression_is_flagged(self):
        code = f"""
            class ServiceMarket:
                def apply(self, delta):
                    self.epoch = delta.epoch  {self._marker('R10')}
                    if delta.bad:
                        raise ValueError("no")
        """
        ids = rule_ids(lint(code))
        assert "R0" in ids
        assert "R10" not in ids


# --------------------------------------------------------------------- #
# CLI formats and exit codes
# --------------------------------------------------------------------- #
class TestCliFormats:
    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main(["--format", "json", str(bad)]) == 1
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["rule"] == "R1"
        assert payload[0]["line"] == 1

    def test_sarif_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main(["--format", "sarif", str(bad)]) == 1
        import json

        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        results = run["results"]
        assert results and results[0]["ruleId"] == "R1"
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] == 1

    def test_sarif_clean_run_has_empty_results(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("X = 1\n")
        assert main(["--format", "sarif", str(good)]) == 0
        import json

        sarif = json.loads(capsys.readouterr().out)
        assert sarif["runs"][0]["results"] == []

    def test_output_file(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        dest = tmp_path / "report.json"
        assert main(["--format", "json", "--output", str(dest), str(bad)]) == 1
        import json

        assert json.loads(dest.read_text())[0]["rule"] == "R1"

    def test_crash_exits_three(self, tmp_path, monkeypatch, capsys):
        import reprolint.cli as cli_mod

        def boom(paths, rules=None):
            raise RuntimeError("analyzer bug")

        monkeypatch.setattr(cli_mod, "lint_paths", boom)
        assert main([str(tmp_path)]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_exit_codes_are_distinct(self):
        from reprolint.cli import EXIT_CLEAN, EXIT_CRASH, EXIT_FINDINGS, EXIT_USAGE

        assert len({EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, EXIT_CRASH}) == 4
