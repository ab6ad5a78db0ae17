"""Unit-level tests for attack toolkit internals and report plumbing."""

import pytest

from repro.attacks.memdump import MIN_SECRET_LEN, secrets_found
from repro.attacks.scenarios import AttackOutcome, AttackReport, matrix_rows
from repro.core.config import AccessMode


class TestSecretScanner:
    def test_finds_embedded_secret(self):
        secret = b"S" * 32
        image = b"\x00" * 100 + secret + b"\xff" * 100
        assert secrets_found(image, [secret]) == [secret]

    def test_ignores_short_strings(self):
        short = b"tiny"
        image = b"prefix" + short + b"suffix"
        assert len(short) < MIN_SECRET_LEN
        assert secrets_found(image, [short]) == []

    def test_partial_match_is_no_match(self):
        secret = b"A" * 32
        image = secret[:-1]  # one byte short
        assert secrets_found(image, [secret]) == []

    def test_multiple_hits_reported(self):
        a, b, c = b"A" * 20, b"B" * 20, b"C" * 20
        image = a + b
        assert secrets_found(image, [a, b, c]) == [a, b]

    def test_empty_inputs(self):
        assert secrets_found(b"", [b"X" * 20]) == []
        assert secrets_found(b"data", []) == []


class TestReports:
    def _report(self, attack, mode, outcome):
        return AttackReport(
            attack=attack, description="d", mode=mode,
            outcome=outcome, detail="detail",
        )

    def test_succeeded_property(self):
        ok = self._report("a", AccessMode.BASELINE, AttackOutcome.SUCCEEDED)
        blocked = self._report("a", AccessMode.IMPROVED, AttackOutcome.BLOCKED)
        assert ok.succeeded and not blocked.succeeded

    def test_matrix_rows_pairs_by_name(self):
        baseline = [
            self._report("x", AccessMode.BASELINE, AttackOutcome.SUCCEEDED),
            self._report("y", AccessMode.BASELINE, AttackOutcome.BLOCKED),
        ]
        improved = [
            self._report("x", AccessMode.IMPROVED, AttackOutcome.BLOCKED),
        ]
        rows = dict(
            (name, (b, i)) for name, b, i in matrix_rows(baseline, improved)
        )
        assert rows["x"] == ("succeeded", "blocked")
        assert rows["y"] == ("blocked", "?")


class TestTable:
    """The one result type of the evaluation runners."""

    def test_render_is_format_table(self):
        from repro.metrics.tables import Table, format_table

        table = Table("Table 9 — t", ["a", "b (ms)"], [("x", 1.0), ("y", 1234.5)])
        assert table.render() == format_table(
            ["a", "b (ms)"], [("x", 1.0), ("y", 1234.5)], title="Table 9 — t"
        )
        assert table.render().splitlines()[0] == "Table 9 — t"
        assert "1,234.5" in table.render()

    def test_appendix_renders_below_after_a_blank_line(self):
        from repro.metrics.tables import Table

        appendix = Table("Breakdown", ["op", "us"], [("ac.audit.append", 1.0)])
        table = Table("Table 4", ["config", "us"], [("all-off", 1.0)],
                      appendix=appendix)
        first = Table("Table 4", ["config", "us"], [("all-off", 1.0)])
        assert table.render() == first.render() + "\n\n" + appendix.render()


class TestPivot:
    def test_baseline_then_improved_per_x(self):
        from repro.metrics.tables import pivot

        points = [(1, "baseline", 10.0), (2, "baseline", 20.0),
                  (1, "improved", 11.0), (2, "improved", 22.0)]
        assert pivot(points) == [(1, 10.0, 11.0), (2, 20.0, 22.0)]

    def test_rows_follow_first_appearance(self):
        from repro.metrics.tables import pivot

        points = [("pcr_read", "baseline", 2.0), ("extend", "baseline", 1.0),
                  ("extend", "improved", 1.5), ("pcr_read", "improved", 2.5)]
        assert [row[0] for row in pivot(points)] == ["pcr_read", "extend"]

    def test_several_values_group_by_value_then_mode(self):
        from repro.metrics.tables import pivot

        points = [(5000, "baseline", 25.0, 27.0),
                  (5000, "improved", 28.0, 30.0)]
        # (x, baseline mean, improved mean, baseline p95, improved p95)
        assert pivot(points) == [(5000, 25.0, 28.0, 27.0, 30.0)]

    def test_custom_columns(self):
        from repro.metrics.tables import pivot

        points = [(1, 1, 9.0), (1, 4, 5.0), (2, 4, 5.5), (2, 1, 9.5)]
        assert pivot(points, columns=[1, 4]) == [(1, 9.0, 5.0), (2, 9.5, 5.5)]

    def test_missing_regime_is_an_error_not_a_zero(self):
        from repro.metrics.tables import pivot

        with pytest.raises(KeyError):
            pivot([(1, "baseline", 1.0)])
