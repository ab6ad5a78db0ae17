#!/usr/bin/env python3
"""Chaos recovery: a seeded fault storm with zero vTPM state loss.

Three runs of the same 1000-command workload (two guests, periodic
checkpoints, one live migration, one hard manager crash):

1. a fault-free control run,
2. the same run under the default chaos plan — ring stalls, dropped
   event-channel kicks, torn state writes, a full disk, corrupt recovery
   reads, transient device errors, and a migration that is first cut on
   the wire and then lands on a crashing destination,
3. the chaotic run again, to show the same seed reproduces the identical
   fault sequence.

The demo then checks the robustness claims: every guest's PCR/NV state
after recovery is byte-identical to the control run, at least four fault
kinds actually fired, every fault is on the audit hash chain, and the two
chaotic runs injected byte-identical fault sequences.

Usage:  python examples/chaos_recovery.py [seed]
"""

import sys

from repro.harness.chaos import ChaosScenario
from repro.harness.scenario import run_demo


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2026
    scenario = ChaosScenario(seed=seed)
    plan = scenario.default_plan()
    print(f"chaos plan: {plan.name!r}, {len(plan)} specs, "
          f"{len(plan.kinds())} fault kinds, seed {seed}")
    print("running control + chaos + replay (3 x 1000 commands)...\n")

    result = run_demo(scenario, plan)
    clean, chaotic, replay = result

    print("== chaotic run ==")
    for line in chaotic.summary_lines():
        print(f"  {line}")

    print("\n== robustness claims ==")
    print(f"  state preserved : {chaotic.digests == clean.digests}  "
          "(post-recovery PCR/NV == fault-free run)")
    print(f"  deterministic   : "
          f"{chaotic.event_signature == replay.event_signature}  "
          "(same seed twice → same fault sequence)")
    print(f"  fault coverage  : {len(chaotic.fault_counts)} kinds "
          f"({', '.join(sorted(chaotic.fault_counts))})")
    print(f"  observable      : {chaotic.audit_fault_records} audit records, "
          f"{sum(chaotic.fault_counts.values())} faults counted by kind")
    print(f"  recovery cost   : mean {chaotic.mean_recovery_us / 1000.0:.2f} ms "
          f"of virtual time per recovery "
          f"({chaotic.recoveries} recoveries, {chaotic.retries} retries)")


if __name__ == "__main__":
    main()
