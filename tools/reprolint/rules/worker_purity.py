"""R8 (worker-purity): the transitive closure shipped to workers must be pure.

The parallel sweep harness promises two things about worker execution:
results are bit-identical to a serial run, and a cell can be retried or
replayed from a checkpoint at any time.  Both die the moment anything in
the *reachable closure* of a dispatched task function touches shared
mutable state: a mutated module global makes results depend on which
worker ran which cells in what order; a module-level RNG stream makes
them depend on scheduling; a non-module-level task function does not even
survive pickling into the pool.

R3 (sweep-pickle) checks the *argument* at the dispatch site.  R8 is its
flow-aware big sibling: it roots a call-graph walk (see
:mod:`reprolint.project`) at every worker-dispatch site —

* ``map_tasks(fn, ...)`` / ``supervise(fn, ...)``,
* ``pool.map`` / ``imap`` / ``imap_unordered`` / ``starmap`` /
  ``submit`` / ``apply_async`` / ``run`` on pool/executor/runtime-named
  receivers (``runtime.run(fn, tasks)`` and ``runtime.map(fn, tasks)``
  are the :class:`repro.runtime.Runtime` dispatch surface),
* builder keywords (``make_market=``, ``make_algorithms=``,
  ``seed_fn=``, ``task_fn=``, ``builder=``) on any call,
* and — with no call site at all — every module-level definition of a
  ``repro host`` agent entry point (``run_host_agent``): the agent body
  *is* worker execution on a remote machine, reached by the ``repro
  host`` CLI rather than by any statically visible dispatch call, so its
  whole closure gets the same purity walk —

and flags, anywhere in the reachable closure:

* **global mutation** — a function that declares ``global x`` and
  assigns it;
* **nonlocal mutation** — closed-over state shared between calls;
* **module-level RNG use** — draws on a module-scope rng-named object,
  or legacy ``np.random.<draw>`` / ``np.random.seed`` module-stream use;
* and at the dispatch site itself: **non-module-level task functions**
  (lambdas, nested defs — unpicklable) and **closure capture of
  unpicklable objects** (file handles, locks, pools) by a nested task.

``utils/rng.py`` is exempt from the closure checks — it is the
sanctioned wrapper, and a worker calling ``as_rng(seed)`` is exactly the
discipline the rule exists to protect.  Test files do not dispatch real
workers' closures and are skipped as dispatch roots.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from reprolint.diagnostics import Diagnostic
from reprolint.rules.pickling import _BUILDER_KEYWORDS
from reprolint.rules.rng import _DRAW_METHODS

if TYPE_CHECKING:  # imported lazily at runtime: rules/__init__ loads before project
    from reprolint.project import FunctionRef, ModuleInfo, ProjectContext

#: Direct callee names that dispatch their first argument to workers.
_DISPATCH_FUNCS: Set[str] = {
    "map_tasks", "supervise", "run_sweep", "submit_sweep",
}

#: Pool/executor methods whose first argument crosses the pool boundary
#: (``run`` covers ``Runtime.run``; a same-named method on a non-pool
#: receiver is filtered by the receiver-name check below).
_POOL_METHODS: Set[str] = {
    "map", "imap", "imap_unordered", "starmap", "apply_async", "submit", "run",
}

#: Receiver-name fragments that mark a call as pool dispatch.
_POOL_RECEIVERS = ("pool", "executor", "runner", "sweep", "runtime", "transport")

#: Module-level receiver names treated as RNG streams when drawn from.
_RNG_NAME_FRAGMENTS = ("rng", "random", "gen")

#: Constructors whose results cannot cross a pickle boundary.
_UNPICKLABLE_FACTORIES: Set[str] = {
    "open",
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
    "Thread",
    "Pool",
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
    "socket",
    "create_connection",
}

#: Module-level function names that are worker execution in their own
#: right: a ``repro host`` agent's body runs on the remote machine, so it
#: roots the purity walk with no dispatch call site required.
_AGENT_ENTRY_POINTS: Set[str] = {"run_host_agent"}

#: Call-graph breadth bound (paranoia cap; real closures are tiny).
_MAX_CLOSURE = 500


class _DispatchSite:
    """One worker-dispatch call site with its task-callable expression."""

    def __init__(
        self, module: ModuleInfo, call: ast.Call, task_expr: ast.expr,
        local_defs: Dict[str, ast.FunctionDef],
        unpicklable_locals: Dict[str, str],
    ) -> None:
        self.module = module
        self.call = call
        self.task_expr = task_expr
        self.local_defs = local_defs
        self.unpicklable_locals = unpicklable_locals


def _is_dispatch_call(node: ast.Call) -> bool:
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id in _DISPATCH_FUNCS
    if isinstance(fn, ast.Attribute):
        if fn.attr in _DISPATCH_FUNCS:
            return True
        if fn.attr in _POOL_METHODS and isinstance(fn.value, ast.Name):
            recv = fn.value.id.lower()
            return any(frag in recv for frag in _POOL_RECEIVERS)
    return False


class _SiteScanner(ast.NodeVisitor):
    """Collects dispatch sites in one module, tracking enclosing-function
    local defs and known-unpicklable local bindings for capture checks."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.sites: List[_DispatchSite] = []
        #: Stack of (local function defs, unpicklable local bindings).
        self._scopes: List[Tuple[Dict[str, ast.FunctionDef], Dict[str, str]]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._scopes:
            self._scopes[-1][0][node.name] = node
        self._scopes.append(({}, {}))
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._scopes and isinstance(node.value, ast.Call):
            fn = node.value.func
            name = (
                fn.id if isinstance(fn, ast.Name)
                else fn.attr if isinstance(fn, ast.Attribute)
                else None
            )
            if name in _UNPICKLABLE_FACTORIES:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        self._scopes[-1][1][tgt.id] = f"{name}(...)"
        self.generic_visit(node)

    def _local_defs(self) -> Dict[str, ast.FunctionDef]:
        merged: Dict[str, ast.FunctionDef] = {}
        for defs, _ in self._scopes:
            merged.update(defs)
        return merged

    def _unpicklable_locals(self) -> Dict[str, str]:
        merged: Dict[str, str] = {}
        for _, bindings in self._scopes:
            merged.update(bindings)
        return merged

    def visit_Call(self, node: ast.Call) -> None:
        task_exprs: List[ast.expr] = []
        if _is_dispatch_call(node) and node.args:
            task_exprs.append(node.args[0])
        task_exprs.extend(
            kw.value for kw in node.keywords if kw.arg in _BUILDER_KEYWORDS
        )
        for expr in task_exprs:
            self.sites.append(
                _DispatchSite(
                    self.module, node, expr,
                    self._local_defs(), self._unpicklable_locals(),
                )
            )
        self.generic_visit(node)


def _free_names(fn: ast.FunctionDef) -> Set[str]:
    """Names a function loads but does not bind (approximate closure set)."""
    bound: Set[str] = {a.arg for a in _all_args(fn)}
    loaded: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            else:
                bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
    return loaded - bound


def _all_args(fn: ast.FunctionDef) -> Iterator[ast.arg]:
    args = fn.args
    yield from args.posonlyargs
    yield from args.args
    yield from args.kwonlyargs
    if args.vararg:
        yield args.vararg
    if args.kwarg:
        yield args.kwarg


def _assigned_names(fn: ast.FunctionDef) -> Set[str]:
    """Names stored to anywhere in the function body (locals, mostly)."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


class WorkerPurityRule:
    """R8: the closure reachable from worker dispatch must be pure."""

    rule_id = "R8"
    symbol = "worker-purity"

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.diagnostics: List[Diagnostic] = []

    def report(self, module: ModuleInfo, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                path=module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.rule_id,
                symbol=self.symbol,
                message=message,
            )
        )

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self) -> List[Diagnostic]:
        roots: Dict[Tuple[str, int], Tuple[FunctionRef, str]] = {}
        for module in self.project.modules:
            if module.ctx.is_test_file:
                continue
            scanner = _SiteScanner(module)
            scanner.visit(module.tree)
            for site in scanner.sites:
                self._check_site(site, roots)
            # Agent entry points root the walk without a dispatch site:
            # the ``repro host`` CLI reaches them, not a visible call.
            for name, fn in module.functions.items():
                if name in _AGENT_ENTRY_POINTS:
                    roots.setdefault(
                        (module.path, fn.lineno),
                        ((module, fn), f"{name} (repro host agent)"),
                    )

        closure = self._closure(list(roots.values()))
        for (mod, fn), root_name in closure:
            if mod.ctx.is_rng_module or mod.ctx.is_test_file:
                continue
            self._check_purity(mod, fn, root_name)

        # A function reachable from several roots is checked once per root;
        # identical findings collapse here.
        unique = {
            (d.path, d.line, d.col, d.message): d for d in self.diagnostics
        }
        return list(unique.values())

    # ------------------------------------------------------------------ #
    # Dispatch sites
    # ------------------------------------------------------------------ #
    def _check_site(
        self,
        site: _DispatchSite,
        roots: Dict[Tuple[str, int], Tuple[FunctionRef, str]],
    ) -> None:
        from reprolint.project import unwrap_partial

        expr = unwrap_partial(site.task_expr)
        if isinstance(expr, ast.Lambda):
            self.report(
                site.module, expr,
                "lambda dispatched to workers is not a module-level function "
                "and cannot be pickled; define the task at module scope",
            )
            return
        if isinstance(expr, ast.Name) and expr.id in site.local_defs:
            nested = site.local_defs[expr.id]
            self.report(
                site.module, site.task_expr,
                f"task function '{expr.id}' is defined inside another "
                f"function; workers unpickle tasks by qualified name, so "
                f"task functions must live at module level",
            )
            captured = _free_names(nested) & set(site.unpicklable_locals)
            for name in sorted(captured):
                self.report(
                    site.module, nested,
                    f"task function '{nested.name}' captures unpicklable "
                    f"object '{name}' ({site.unpicklable_locals[name]}) from "
                    f"its enclosing scope; pass picklable data instead",
                )
            return
        ref = self.project.resolve_callable(site.module, site.task_expr)
        if ref is not None:
            mod, fn = ref
            roots.setdefault((mod.path, fn.lineno), (ref, fn.name))

    # ------------------------------------------------------------------ #
    # Call-graph closure
    # ------------------------------------------------------------------ #
    def _closure(
        self, roots: List[Tuple[FunctionRef, str]]
    ) -> List[Tuple[FunctionRef, str]]:
        seen: Set[Tuple[str, int]] = set()
        out: List[Tuple[FunctionRef, str]] = []
        stack = list(roots)
        while stack and len(out) < _MAX_CLOSURE:
            (mod, fn), root_name = stack.pop()
            key = (mod.path, fn.lineno)
            if key in seen:
                continue
            seen.add(key)
            out.append(((mod, fn), root_name))
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                ref = self.project.resolve_call(mod, call)
                if ref is not None:
                    stack.append((ref, root_name))
        return out

    # ------------------------------------------------------------------ #
    # Purity checks on one reachable function
    # ------------------------------------------------------------------ #
    def _check_purity(self, mod: ModuleInfo, fn: ast.FunctionDef, root: str) -> None:
        where = f"'{fn.name}' is reachable from worker dispatch (task root '{root}')"

        global_decls: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)
            elif isinstance(node, ast.Nonlocal):
                self.report(
                    mod, node,
                    f"{where} and mutates closed-over state via nonlocal "
                    f"{', '.join(node.names)}; workers must not share "
                    f"mutable state across calls",
                )
        if global_decls:
            stored = _assigned_names(fn) & global_decls
            for name in sorted(stored):
                self.report(
                    mod, fn,
                    f"{where} and mutates module-level global '{name}'; "
                    f"per-process globals silently diverge between workers "
                    f"and serial runs",
                )

        local_names = _assigned_names(fn) | {a.arg for a in _all_args(fn)}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if not isinstance(callee, ast.Attribute):
                continue
            # Legacy module-stream use: np.random.<draw> / np.random.seed.
            if mod.ctx.is_numpy_random_expr(callee.value):
                if callee.attr in _DRAW_METHODS or callee.attr == "seed":
                    self.report(
                        mod, node,
                        f"{where} and draws from the numpy global stream "
                        f"(np.random.{callee.attr}); workers must take an "
                        f"explicit seeded Generator",
                    )
                continue
            # Draws on a module-level rng-named stream.
            if (
                callee.attr in _DRAW_METHODS
                and isinstance(callee.value, ast.Name)
                and callee.value.id in mod.module_level_names
                and callee.value.id not in local_names
                and any(
                    frag in callee.value.id.lower()
                    for frag in _RNG_NAME_FRAGMENTS
                )
            ):
                self.report(
                    mod, node,
                    f"{where} and draws from module-level RNG "
                    f"'{callee.value.id}'; a shared stream makes results "
                    f"depend on worker scheduling — plumb a per-task "
                    f"Generator instead",
                )


__all__ = ["WorkerPurityRule"]
