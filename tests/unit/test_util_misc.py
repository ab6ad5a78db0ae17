"""Unit tests for small utility modules and cross-cutting invariants."""

from repro.util.errors import (
    AccessDenied,
    PageFault,
    ReproError,
    TpmError,
    XenError,
)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(TpmError, ReproError)
        assert issubclass(PageFault, XenError)
        assert issubclass(XenError, ReproError)

    def test_tpm_error_carries_code(self):
        err = TpmError(0x18, "pcr mismatch")
        assert err.code == 0x18
        assert "pcr mismatch" in str(err)

    def test_tpm_error_default_message(self):
        assert "0x18" in str(TpmError(0x18))

    def test_access_denied_fields(self):
        err = AccessDenied("subj", "TPM_Quote", "no rule")
        assert err.subject == "subj"
        assert err.operation == "TPM_Quote"
        assert "no rule" in err.reason


class TestCrossCuttingInvariants:
    def test_every_ordinal_documented_count(self):
        """docs/TPM_COMMANDS.md advertises the implemented ordinal count."""
        from repro.tpm import registered_ordinals

        assert len(registered_ordinals()) == 39

    def test_every_ordinal_has_a_name(self):
        from repro.tpm import registered_ordinals
        from repro.tpm.constants import ordinal_name

        for ordinal in registered_ordinals():
            assert not ordinal_name(ordinal).startswith("TPM_ORD_0x"), hex(ordinal)

    def test_every_ordinal_has_a_policy_class(self):
        from repro.core.policy import CommandClass, classify_ordinal
        from repro.tpm import registered_ordinals

        for ordinal in registered_ordinals():
            assert classify_ordinal(ordinal) is not CommandClass.UNKNOWN, hex(ordinal)

    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_cost_model_covers_all_charged_ops(self):
        """Grep the source for charge("...") and ensure the model knows
        every operation name — an unknown op would crash at runtime."""
        import pathlib
        import re

        from repro.sim.timing import CostModel

        known = CostModel().known_ops()
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        pattern = re.compile(r"""charge\(\s*['"]([a-z0-9_.]+)['"]""")
        charged = set()
        for path in src.rglob("*.py"):
            charged.update(pattern.findall(path.read_text()))
        # Dynamic f-string charges (rsa.*) are covered separately.
        missing = {op for op in charged if op not in known}
        assert not missing, f"charged ops missing from the cost model: {missing}"

    def test_rsa_dynamic_charges_known(self):
        from repro.sim.timing import CostModel

        known = CostModel().known_ops()
        for op in ("rsa.sign.1024", "rsa.sign.2048", "rsa.verify.1024",
                   "rsa.verify.2048", "rsa.keygen.2048"):
            assert op in known
