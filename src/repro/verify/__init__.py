"""Conformance verification subsystem.

Three cooperating pieces (see ARCHITECTURE.md, "Verification"):

* :mod:`repro.verify.model` — an executable reference model of the
  authz-relevant state that predicts each command's reason code;
* :mod:`repro.verify.explorer` — a deterministic schedule explorer that
  drives guest command streams under many distinct interleavings and
  checks the model oracle, audit-chain integrity and zero-silent-drop;
* :mod:`repro.verify.shrink` — a ddmin counterexample minimizer that
  turns a failing schedule into a minimal replayable JSON repro.

Plus :mod:`repro.verify.oracle`, a charge-free adapter over the model
that piggybacks on chaos/cluster harness runs behind a flag.
"""

from repro.verify.explorer import (
    BUDGETS,
    Budget,
    ExplorationReport,
    FailingRun,
    ScheduleRunner,
    Step,
    Violation,
    explore,
)
from repro.verify.model import Prediction, ReferenceModel
from repro.verify.oracle import (
    MonitorConformanceOracle,
    attach_oracle,
    settle_oracles,
)
from repro.verify.shrink import (
    REPRO_FORMAT,
    Repro,
    ddmin,
    load_repro,
    replay,
    replay_repro,
    save_repro,
    shrink_failure,
)

__all__ = [
    "BUDGETS",
    "REPRO_FORMAT",
    "Budget",
    "ExplorationReport",
    "FailingRun",
    "MonitorConformanceOracle",
    "Prediction",
    "ReferenceModel",
    "Repro",
    "ScheduleRunner",
    "Step",
    "Violation",
    "attach_oracle",
    "ddmin",
    "explore",
    "load_repro",
    "replay",
    "replay_repro",
    "save_repro",
    "settle_oracles",
    "shrink_failure",
]
