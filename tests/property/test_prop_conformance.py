"""Stateful conformance property: pipeline == reference model, always.

A Hypothesis :class:`RuleBasedStateMachine` interleaves policy edits,
identity churn, live migration, manager restarts and TPM commands
against one real platform, and after every command checks the pipeline's
verdict against the :mod:`repro.verify.model` prediction — the same
oracle the schedule explorer uses, here driven by Hypothesis's own
schedule search and shrinker instead of seeded interleavings.

One test *method* is many examples, so the machine builds a fresh
platform (and timing context) per example in ``__init__`` — never at
module scope.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.tpm.client import TpmClient
from repro.verify.explorer import PCR_RANGE, ScheduleRunner, Step
from repro.vtpm.backend import VtpmBackend
from repro.vtpm.frontend import VtpmFrontend

GUESTS = 2

_guest = st.integers(min_value=0, max_value=GUESTS - 1)
_arg = st.integers(min_value=0, max_value=PCR_RANGE - 1)


class ConformanceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # ScheduleRunner installs a fresh timing context when it builds
        # its own platform, so each example starts at t=0.
        self.runner = ScheduleRunner(guests=GUESTS, seed=2010)
        self.runner.sync_model()
        self.index = 0
        self.migrations = 0

    def _step(self, step: Step) -> None:
        violation = self.runner._execute_step(self.index, step)
        self.index += 1
        assert violation is None, violation.describe()

    # -- commands ---------------------------------------------------------------

    @rule(guest=_guest, arg=_arg)
    def extend(self, guest, arg):
        self._step(Step(guest, "extend", arg))

    @rule(guest=_guest, arg=_arg)
    def pcr_read(self, guest, arg):
        self._step(Step(guest, "pcr_read", arg))

    @rule(guest=_guest)
    def get_random(self, guest):
        self._step(Step(guest, "get_random"))

    @rule(guest=_guest, arg=_arg)
    def cross_read(self, guest, arg):
        self._step(Step(guest, "cross_read", arg))

    # -- policy edits -----------------------------------------------------------

    @rule(guest=_guest, arg=_arg)
    def grant(self, guest, arg):
        self._step(Step(guest, "grant", arg))

    @rule(guest=_guest, arg=_arg)
    def revoke(self, guest, arg):
        self._step(Step(guest, "revoke", arg))

    # -- identity churn ---------------------------------------------------------

    @rule(guest=_guest)
    def forget(self, guest):
        self._step(Step(guest, "forget"))

    @rule(guest=_guest)
    def reregister(self, guest):
        self._step(Step(guest, "reregister"))

    # -- manager restart --------------------------------------------------------

    @rule()
    def restart(self):
        self._step(Step(0, "restart"))

    # -- live migration ---------------------------------------------------------

    @rule(guest=_guest)
    def migrate(self, guest):
        """Plaintext-migrate one guest to a fresh domain on the same
        platform: instance state moves, the new instance gets the full
        owner grant on its new id (the model's ``on_migrated`` contract).
        """
        runner = self.runner
        platform = runner.platform
        old = runner.handles[guest]
        name = f"g{guest}"
        txn = platform.migration.begin_export_plaintext(old.domain.uuid)
        self.migrations += 1
        target_vm = platform.xen.create_domain(
            f"{name}-m{self.migrations}",
            kernel_image=old.domain.kernel_image,
            config=dict(old.domain.config),
        )
        instance = platform.migration.import_plaintext(txn.package, target_vm)
        platform.migration.commit_export(txn)
        frontend = VtpmFrontend(platform.xen, target_vm, backend_domid=0)
        backend = VtpmBackend(
            platform.xen, platform.manager, frontend, instance.instance_id
        )
        handle = type(old)(
            domain=target_vm,
            frontend=frontend,
            backend=backend,
            client=TpmClient(
                frontend.transport,
                platform.rng.fork(f"client-{target_vm.name}"),
            ),
            instance_id=instance.instance_id,
        )
        runner.handles[guest] = handle
        # Keep the platform's own book coherent so restart_manager
        # rebinds the new back-end.
        platform.guests[name] = handle
        runner.model.on_migrated(name)

    # -- end-of-example checks --------------------------------------------------

    @invariant()
    def shadow_pcrs_match_live(self):
        violations = self.runner._end_of_run_checks(self.index)
        assert violations == [], violations[0].describe()


TestConformance = ConformanceMachine.TestCase
TestConformance.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None,
)
