"""audit-on-deny: every deny/degrade path must leave an audit trace.

The paper's monitor is only as good as its audit log: a denial that is
not chained (or at least counted) is indistinguishable from a command
that never happened, which defeats both forensics and the conformance
explorer's denial-accounting oracle.  This rule pins the property to
the four files that can say "no":

* ``core/monitor.py`` — reference-monitor denials,
* ``vtpm/manager.py`` — frames for an unknown instance, degraded faults,
* ``resilience/admission.py`` — load-shed / degraded verdicts,
* ``resilience/breaker.py`` — breaker state transitions.

A **deny site** is a syntactic construct that produces a negative
outcome: an ``AuthorizationResult`` whose reason code is not one of the
two allowing codes (``Reason.GRANTED`` / ``Reason.UNCHECKED``), a
pre-built shed response (``build_response(…)``), or a breaker transition appended to
``self.events``.  Any function containing a deny site must *also*
contain an **emission** on the same function body: an append to an
``audit`` log (``…audit.append*``), a counter write (``inc`` / ``add``
/ ``obs_counters.inc``), or a ``set_gauge``.  The check is function-
local — the repository's idiom funnels every deny through a small
helper (``_deny`` / ``_shed`` / ``_enter``), so requiring the emission
in the same function keeps the deny and its evidence on the same path.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import Finding, ModuleSource, Rule, register

SCOPE_FILES = (
    "repro/core/monitor.py",
    "repro/vtpm/manager.py",
    "repro/resilience/admission.py",
    "repro/resilience/breaker.py",
)

EMISSION_ATTRS = frozenset({"inc", "add", "set_gauge"})

#: the ``Reason`` members that let a command through
ALLOWING_CODES = frozenset({"GRANTED", "UNCHECKED"})


def _is_allowing(expr: ast.AST | None) -> bool:
    """``Reason.GRANTED``, ``Reason.UNCHECKED`` or a conditional choosing
    between them; anything else (a variable, a missing reason) may deny."""
    if isinstance(expr, ast.IfExp):
        return _is_allowing(expr.body) and _is_allowing(expr.orelse)
    return isinstance(expr, ast.Attribute) and expr.attr in ALLOWING_CODES


def _is_deny_site(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if name == "build_response":
        return "pre-built shed/degrade response"
    if name == "AuthorizationResult":
        reason = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "reason"), None
        )
        if not _is_allowing(reason):
            return "AuthorizationResult(<deny reason>)"
    if (
        name == "append"
        and isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "events"
    ):
        return "breaker state transition (events.append)"
    return None


def _is_emission(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("inc", "set_gauge")
    if isinstance(func, ast.Attribute):
        if func.attr in EMISSION_ATTRS:
            return True
        # …audit.append / …audit.append_buffered
        if func.attr.startswith("append") and isinstance(
            func.value, ast.Attribute
        ) and func.value.attr == "audit":
            return True
    return False


@register
class AuditOnDenyRule(Rule):
    id = "audit-on-deny"
    title = "deny/degrade paths must audit or count on the same path"
    description = (
        "In core/monitor.py, vtpm/manager.py, resilience/admission.py and "
        "resilience/breaker.py, any function that constructs a denial "
        "(AuthorizationResult with a deny code, build_response shed frame, "
        "breaker events.append) must also emit evidence in the same "
        "function: an audit append, a counter inc/add, or a gauge."
    )
    example_violation = (
        "repro/resilience/admission.py",
        "def shed_quietly(wire):\n"
        "    return build_response(0x9)\n",
    )

    def check(self, module: ModuleSource) -> List[Finding]:
        if module.relpath not in SCOPE_FILES:
            return []
        findings: List[Finding] = []
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            deny_sites = []
            emits = False
            for node in ast.walk(fn):
                kind = _is_deny_site(node)
                if kind is not None:
                    deny_sites.append((node.lineno, kind))
                if _is_emission(node):
                    emits = True
            if deny_sites and not emits:
                for lineno, kind in deny_sites:
                    findings.append(self.finding(
                        module, lineno,
                        f"{kind} in {fn.name}() with no audit append or "
                        "counter emission on the same path",
                    ))
        return findings
