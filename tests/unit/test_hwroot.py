"""Unit tests for the platform's hardware root."""

import ast
import hashlib
from pathlib import Path

import pytest

import repro
from repro.core import hwroot
from repro.core.hwroot import HardwareRoot


@pytest.fixture
def hw(rng):
    return HardwareRoot(rng.fork("hw"))


class TestMeasurement:
    def test_composite_reads_each_boot_pcr_on_every_call(self, hw,
                                                          monkeypatch):
        reads = []
        read = hw.client.pcr_read
        monkeypatch.setattr(
            hw.client, "pcr_read", lambda index: reads.append(index) or read(index)
        )
        assert hw.composite() == hw.composite()
        assert reads == [0, 1, 2, 0, 1, 2]

    def test_composite_follows_the_boot_pcrs_only(self, hw):
        before = hw.composite()
        hw.client.extend(12, hashlib.sha1(b"guest-app").digest())
        assert hw.composite() == before
        hw.client.extend(2, hashlib.sha1(b"other-dom0").digest())
        assert hw.composite() != before


class TestOneOwner:
    """The platform's authorizations and boot PCRs are named in one
    module."""

    PRIVATE = {"_OWNER_AUTH", "_SRK_AUTH", "_PLATFORM_PCRS", "PLATFORM_PCRS"}

    def _mentions(self):
        secrets = {hwroot._OWNER_AUTH, hwroot._SRK_AUTH}
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                named = (
                    isinstance(node, ast.Name) and node.id in self.PRIVATE
                    or isinstance(node, ast.Attribute)
                    and node.attr in self.PRIVATE
                    or isinstance(node, ast.alias) and node.name in self.PRIVATE
                    or isinstance(node, ast.Constant) and node.value in secrets
                )
                if named:
                    yield path.relative_to(root.parent).as_posix()

    def test_only_the_root_names_them(self):
        assert set(self._mentions()) == {"repro/core/hwroot.py"}
