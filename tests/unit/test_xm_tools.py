"""Unit tests for the xm-style admin tooling and new CLI subcommands."""

import pytest

from repro.core.config import AccessMode
from repro.harness.builder import build_platform
from repro.xen import tools
from repro.util.errors import XenError


class TestXmTools:
    def test_xm_list_shows_all_domains(self, baseline_platform):
        baseline_platform.add_guest("alpha")
        baseline_platform.add_guest("beta")
        out = tools.xm_list(baseline_platform.dom0_hypercalls())
        assert "Domain-0" in out and "alpha" in out and "beta" in out

    def test_xm_list_requires_privilege(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        hc = baseline_platform.hypercalls_for(guest.domain.domid)
        with pytest.raises(XenError):
            tools.xm_list(hc)

    def test_xm_info_counts(self, baseline_platform):
        baseline_platform.add_guest("g")
        out = tools.xm_info(baseline_platform.dom0_hypercalls())
        assert "live_domains" in out and "active_grants" in out

    def test_xm_vcpu_list(self, baseline_platform):
        guest = baseline_platform.add_guest("g")
        out = tools.xm_vcpu_list(
            baseline_platform.dom0_hypercalls(), guest.domain.domid
        )
        assert "rax" in out and "rip" in out

    def test_dump_core_baseline_vs_improved(self):
        """The headline difference, through the actual admin tool."""
        for mode, expect_leak in (
            (AccessMode.BASELINE, True),
            (AccessMode.IMPROVED, False),
        ):
            platform = build_platform(mode, seed=46)
            guest = platform.add_guest("victim")
            ek = guest.client.read_pubek()
            guest.client.take_ownership(b"O" * 20, b"S" * 20, ek)
            instance = platform.manager.instance(guest.instance_id)
            secrets = instance.device.state.secret_material()
            image = tools.xm_dump_core(
                platform.dom0_hypercalls(), platform.manager.manager_domid
            )
            leaked = any(s in image for s in secrets if len(s) >= 16)
            assert leaked == expect_leak, mode

    def test_xm_destroy(self, baseline_platform):
        guest = baseline_platform.add_guest("doomed")
        tools.xm_destroy(baseline_platform.dom0_hypercalls(), guest.domain.domid)
        assert not guest.domain.is_alive

    def test_xenstore_ls_recursive(self, baseline_platform):
        baseline_platform.add_guest("g")
        paths = tools.xenstore_ls(baseline_platform.dom0_hypercalls())
        assert any(p.endswith("/ring-ref") for p in paths)
        assert any("/vtpm/" in p for p in paths)


class TestNewCliCommands:
    def test_xm_list_cli(self, capsys):
        from repro.cli import main

        assert main(["xm", "list", "--guests", "1", "--mode", "baseline"]) == 0
        assert "Domain-0" in capsys.readouterr().out

    def test_xm_dump_core_cli(self, capsys):
        from repro.cli import main

        assert main(["xm", "dump-core", "--domid", "0",
                     "--mode", "baseline"]) == 0
        assert "dumped" in capsys.readouterr().out

    def test_replay_trace_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--guests", "2", "--rate", "30",
                     "--duration", "0.1"]) == 0
        trace_text = capsys.readouterr().out
        path = tmp_path / "t.trace"
        path.write_text(trace_text)
        assert main(["replay-trace", str(path), "--mode", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "trace replay" in out

    @pytest.mark.parametrize("text, error", [
        ("# guests=2 duration_us=1000.0\n10.0\t-1\tpcr_read\n",
         "guest -1 outside 0..1"),
        ("# guests=2 duration_us=1000.0\n10.0\t5\tpcr_read\n",
         "guest 5 outside 0..1"),
        ("# guests=2\n10.0\t0\tpcr_read\n", "lacks duration_us"),
        ("# guests=2 duration_us=1000.0\n10.0\t0\n",
         "expected 3 tab-separated fields, got 2"),
        ("# guests=2 duration_us=1000.0\n10.0\tone\tpcr_read\n",
         "non-numeric time or guest"),
    ], ids=["negative-guest", "guest-out-of-range", "missing-duration",
            "two-fields", "non-numeric-guest"])
    def test_replay_trace_rejects_malformed_input(self, tmp_path, capsys,
                                                   text, error):
        from repro.cli import main

        path = tmp_path / "bad.trace"
        path.write_text(text)
        assert main(["replay-trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert error in captured.err
