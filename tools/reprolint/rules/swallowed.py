"""R7 (swallowed-error): broad exception handlers must not drop errors.

A reproduction pipeline lives and dies by its error surface.  A handler
that catches ``Exception`` (or worse) and silently continues converts a
programming bug — an index error in a cost table, a shape mismatch in a
compiled blob — into a *quietly wrong number* in a figure.  The library's
own error hierarchy (:class:`~repro.exceptions.ReproError`) exists exactly
so expected failures (infeasible profiles, solver timeouts) can be caught
narrowly while genuine bugs propagate.

A handler is flagged when all of the following hold:

* it catches broadly — a bare ``except:``, ``except Exception``, or
  ``except BaseException`` (narrow catches such as ``except
  InfeasibleError: continue`` are legitimate control flow and never
  flagged);
* its body neither re-raises (no ``raise``) nor uses the bound exception
  object (``except Exception as exc: ... str(exc) ...`` is structured
  handling, e.g. wrapping the error into a report);
* its body does not hand the error to a logger (``log``/``warning``/
  ``error``/``exception``/``debug``/``info``/``print``).

Deliberate broad swallows (e.g. best-effort cleanup in a ``finally``
replacement) carry the usual escape hatch: ``# reprolint: ok[R7] reason``.
Test files are exempt — teardown code may legitimately ignore everything.
"""

from __future__ import annotations

import ast
from typing import Iterator

from reprolint.rules.base import Rule

#: Exception names considered "broad": catching one of these catches bugs.
_BROAD_NAMES = {"Exception", "BaseException"}

#: Called names that count as routing the error somewhere visible.
_LOGGING_CALLS = {
    "log",
    "debug",
    "info",
    "warning",
    "warn",
    "error",
    "exception",
    "critical",
    "print",
}


def _caught_names(type_node: ast.expr) -> Iterator[str]:
    """The exception class names a handler's ``type`` expression mentions."""
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


class SwallowedErrorRule(Rule):
    """R7: a broad ``except`` must re-raise, log, or use the exception."""

    rule_id = "R7"
    symbol = "swallowed-error"

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        return any(n in _BROAD_NAMES for n in _caught_names(handler.type))

    def _body_handles(self, handler: ast.ExceptHandler) -> bool:
        bound = handler.name  # the ``as exc`` name, if any
        for stmt in handler.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    return True
                if (
                    bound is not None
                    and isinstance(sub, ast.Name)
                    and sub.id == bound
                ):
                    return True
                if isinstance(sub, ast.Call):
                    fn = sub.func
                    name = (
                        fn.id
                        if isinstance(fn, ast.Name)
                        else fn.attr if isinstance(fn, ast.Attribute) else None
                    )
                    if name in _LOGGING_CALLS:
                        return True
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if (
            not self.ctx.is_test_file
            and self._is_broad(node)
            and not self._body_handles(node)
        ):
            caught = (
                "bare except"
                if node.type is None
                else f"except {ast.unparse(node.type)}"
            )
            self.report(
                node,
                f"{caught!s} swallows the error without re-raising, logging, "
                "or using it; catch a narrow repro.exceptions type, or mark "
                "a deliberate best-effort swallow with '# reprolint: ok[R7] ...'",
            )
        self.generic_visit(node)


__all__ = ["SwallowedErrorRule"]
