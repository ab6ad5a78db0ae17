"""determinism: ban ambient nondeterminism everywhere in the package.

Every oracle in this repository — byte-identical chaos digests, replay-
identical breaker schedules, the conformance explorer's schedule cache —
rests on the simulation being a pure function of its seed.  One stray
host-clock read or ``random.random()`` breaks all of them at once, and
does so silently: the run still "works", it just stops being evidence.

Banned everywhere in ``repro/``:

* stdlib ``random`` and ``secrets`` (any import): entropy must come from
  the seeded, forkable :class:`repro.crypto.random_source.RandomSource`;
* ``os.urandom`` calls;
* ``datetime.now`` / ``utcnow`` / ``today`` and ``uuid.uuid4`` calls;
* iterating a set expression (``for x in {…}`` / ``set(…)`` /
  comprehension generators): set order is salted per process, so the
  iteration order — and anything derived from it — varies between runs;
  iterate ``sorted(…)`` instead;
* host-clock reads — ``time``'s ``time``, ``perf_counter``,
  ``monotonic`` and ``process_time`` and their ``_ns`` twins, called as
  attributes or imported by name.  No file is exempt: spans carry
  virtual time only, and wall time is measured from outside the package
  (``bench/``, ``benchmarks/``).
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    dotted_name,
    register,
)

#: host-clock readers of the stdlib ``time`` module
WALL_CLOCKS = frozenset(
    f"{clock}{suffix}"
    for clock in ("time", "perf_counter", "monotonic", "process_time")
    for suffix in ("", "_ns")
)
WALL_READS = frozenset(f"time.{clock}" for clock in WALL_CLOCKS)

BANNED_CALLS = {
    "os.urandom": "use the platform's seeded RandomSource",
    "datetime.now": "use the virtual clock (sim.timing.get_context)",
    "datetime.utcnow": "use the virtual clock (sim.timing.get_context)",
    "datetime.today": "use the virtual clock (sim.timing.get_context)",
    "datetime.datetime.now": "use the virtual clock",
    "datetime.datetime.utcnow": "use the virtual clock",
    "uuid.uuid4": "derive ids from the seeded RandomSource",
}

BANNED_MODULES = {
    "random": "stdlib random is unseeded ambient state; use "
              "repro.crypto.random_source.RandomSource",
    "secrets": "secrets reads os.urandom; use the seeded RandomSource",
}


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class DeterminismRule(Rule):
    id = "determinism"
    title = "no ambient nondeterminism (wall clocks, entropy, set order)"
    description = (
        "Bans host-clock reads, random/os.urandom/datetime.now/uuid4 and "
        "iteration over set expressions in every file of repro/."
    )
    example_violation = (
        "repro/sim/_injected_determinism.py",
        "from datetime import datetime\n"
        "def stamp(record):\n"
        "    record.t = datetime.now()\n",
    )

    def check(self, module: ModuleSource) -> List[Finding]:
        findings: List[Finding] = []

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        findings.append(self.finding(
                            module, node.lineno,
                            f"import of {root!r}: {BANNED_MODULES[root]}",
                        ))
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in BANNED_MODULES:
                    findings.append(self.finding(
                        module, node.lineno,
                        f"import from {root!r}: {BANNED_MODULES[root]}",
                    ))
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in WALL_CLOCKS:
                            findings.append(self.finding(
                                module, node.lineno,
                                f"import of wall clock time.{alias.name}: "
                                "use the virtual clock",
                            ))
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name in WALL_READS:
                    findings.append(self.finding(
                        module, node.lineno,
                        f"wall-clock read {name}(): use the virtual clock",
                    ))
                elif name in BANNED_CALLS:
                    findings.append(self.finding(
                        module, node.lineno,
                        f"nondeterministic call {name}(): "
                        f"{BANNED_CALLS[name]}",
                    ))

            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                       ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    findings.append(self.finding(
                        module, it.lineno,
                        "iteration over a set expression: set order is "
                        "salted per process; iterate sorted(…) instead",
                    ))
        return findings
