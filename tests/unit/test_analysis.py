"""Unit tests for the static-analysis framework and every domain rule.

Each rule gets a fixture trio: a **positive** snippet that must fire, a
**suppressed** variant (pragma with reason) that must not, and an
**allowlisted** / negative variant the rule must leave alone.  The
framework tests cover the walker, the pragma grammar (same-line and
previous-line, mandatory reason, staleness) and the baseline diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Analyzer,
    ModuleSource,
    RULES,
    check_against_baseline,
    injected_module,
    load_baseline,
    render_baseline,
    render_json,
    render_text,
)
from repro.analysis.core import META_MALFORMED, META_UNUSED, Finding
from repro.analysis.rules.counter_registry import (
    COUNTER_NAMESPACES,
    collect_metric_literals,
)


def run_rule(rule_id: str, relpath: str, source: str):
    """One rule over one in-memory module (no suppression layer)."""
    return RULES[rule_id].check(ModuleSource(relpath, source))


def analyze_tree(tmp_path, files, rule_ids=None):
    """Full Analyzer run over a synthetic package tree."""
    root = tmp_path / "repro"
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return Analyzer(package_root=root, rule_ids=rule_ids).run()


# -- fail-closed ------------------------------------------------------------------


class TestFailClosed:
    def test_positive_silent_pass(self):
        findings = run_rule(
            "fail-closed",
            "repro/core/x.py",
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n",
        )
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "swallows" in findings[0].message

    def test_positive_rename_only(self):
        findings = run_rule(
            "fail-closed",
            "repro/vtpm/x.py",
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError as exc:\n"
            "        last = exc\n",
        )
        assert len(findings) == 1

    @pytest.mark.parametrize("body", ["raise", "return None", "handle()"])
    def test_negative_handler_acts(self, body):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            f"        {body}\n"
        )
        assert run_rule("fail-closed", "repro/cluster/x.py", src) == []

    def test_negative_handler_continue(self):
        src = (
            "def f():\n"
            "    for _ in range(1):\n"
            "        try:\n"
            "            g()\n"
            "        except ValueError:\n"
            "            continue\n"
        )
        assert run_rule("fail-closed", "repro/cluster/x.py", src) == []

    def test_out_of_scope_package_ignored(self):
        src = "try:\n    g()\nexcept ValueError:\n    pass\n"
        assert run_rule("fail-closed", "repro/metrics/x.py", src) == []
        assert run_rule("fail-closed", "repro/attacks/x.py", src) != []

    def test_suppressed_with_reason(self, tmp_path):
        result = analyze_tree(
            tmp_path,
            {
                "repro/core/x.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    # repro: allow[fail-closed] -- deliberate probe\n"
                    "    except ValueError:\n"
                    "        pass\n"
                )
            },
            rule_ids=["fail-closed"],
        )
        assert result.findings == []
        assert len(result.suppressed) == 1
        assert result.suppressed[0][1].reason == "deliberate probe"


# -- determinism ------------------------------------------------------------------


class TestDeterminism:
    def test_positive_wall_read(self):
        findings = run_rule(
            "determinism",
            "repro/sim/x.py",
            "import time\n\ndef f():\n    return time.time()\n",
        )
        assert len(findings) == 1
        assert "wall-clock read" in findings[0].message

    def test_positive_random_import(self):
        findings = run_rule(
            "determinism", "repro/util/x.py", "import random\n"
        )
        assert len(findings) == 1
        assert "random" in findings[0].message

    def test_positive_urandom_and_uuid4(self):
        src = (
            "import os, uuid\n"
            "def f():\n"
            "    return os.urandom(8), uuid.uuid4()\n"
        )
        assert len(run_rule("determinism", "repro/tpm/x.py", src)) == 2

    def test_positive_set_iteration(self):
        findings = run_rule(
            "determinism",
            "repro/xen/x.py",
            "def f(xs):\n    return [x for x in set(xs)]\n",
        )
        assert len(findings) == 1
        assert "set" in findings[0].message

    def test_negative_sorted_set(self):
        src = "def f(xs):\n    return [x for x in sorted(set(xs))]\n"
        assert run_rule("determinism", "repro/xen/x.py", src) == []

    def test_positive_wall_clock_imported_by_name(self):
        findings = run_rule(
            "determinism",
            "repro/sim/x.py",
            "from time import monotonic_ns, sleep\n",
        )
        assert len(findings) == 1
        assert "time.monotonic_ns" in findings[0].message

    def test_wall_read_in_trace_module_is_flagged(self, tmp_path):
        # No file is exempt: the span module is policed like any other.
        result = analyze_tree(tmp_path, {
            "repro/obs/trace.py":
                "import time\n\ndef f():\n    return time.perf_counter_ns()\n",
        })
        assert [(f.rule, f.line) for f in result.findings] == [
            ("determinism", 4)
        ]


# -- secret-flow ------------------------------------------------------------------


class TestSecretFlow:
    def test_positive_param_to_exception(self):
        findings = run_rule(
            "secret-flow",
            "repro/tpm/x.py",
            "def f(owner_auth):\n"
            "    raise ValueError(f'bad {owner_auth!r}')\n",
        )
        assert len(findings) == 1
        assert "exception message" in findings[0].message

    def test_positive_attr_to_log(self):
        findings = run_rule(
            "secret-flow",
            "repro/tpm/x.py",
            "def f(key):\n"
            "    log.info('auth=%s', key.usage_auth)\n",
        )
        assert len(findings) == 1
        assert "log" in findings[0].message

    def test_positive_secret_material_to_span(self):
        findings = run_rule(
            "secret-flow",
            "repro/vtpm/x.py",
            "def f(state, span):\n"
            "    span.set('secrets', state.secret_material())\n",
        )
        assert len(findings) == 1

    def test_positive_taint_through_rewrap(self):
        findings = run_rule(
            "secret-flow",
            "repro/tpm/x.py",
            "def f(key):\n"
            "    shown = key.usage_auth.hex()\n"
            "    print(shown)\n",
        )
        assert len(findings) == 1

    def test_negative_derived_value(self):
        # taint does not survive a non-wrapping call: an HMAC over the
        # secret is a derived value, not the secret
        src = (
            "def f(key):\n"
            "    mac = hmac_sha1(key.usage_auth, b'x')\n"
            "    raise ValueError(f'mac mismatch: {mac.hex()}')\n"
        )
        assert run_rule("secret-flow", "repro/tpm/x.py", src) == []

    def test_negative_untainted(self):
        src = "def f(count):\n    print(count)\n"
        assert run_rule("secret-flow", "repro/tpm/x.py", src) == []

    def test_suppressed(self, tmp_path):
        result = analyze_tree(
            tmp_path,
            {
                "repro/tpm/x.py": (
                    "def f(owner_auth):\n"
                    "    # repro: allow[secret-flow] -- test vector, not a real secret\n"
                    "    raise ValueError(f'bad {owner_auth!r}')\n"
                )
            },
            rule_ids=["secret-flow"],
        )
        assert result.findings == []
        assert len(result.suppressed) == 1


# -- audit-on-deny ----------------------------------------------------------------


class TestAuditOnDeny:
    SCOPE = "repro/resilience/admission.py"

    def test_positive_shed_without_emission(self):
        findings = run_rule(
            "audit-on-deny",
            self.SCOPE,
            "def shed(wire):\n    return build_response(0x9)\n",
        )
        assert len(findings) == 1
        assert "no audit append or counter" in findings[0].message

    def test_negative_shed_with_counter(self):
        src = (
            "def shed(self, wire):\n"
            "    inc('resilience.shed', reason='depth')\n"
            "    return build_response(0x9)\n"
        )
        assert run_rule("audit-on-deny", self.SCOPE, src) == []

    def test_negative_deny_with_audit(self):
        src = (
            "def deny(self, subject):\n"
            "    self.audit.append_buffered(subject, 0, 'op', False, 'r')\n"
            "    return AuthorizationResult(allowed=False, subject=subject)\n"
        )
        assert run_rule(
            "audit-on-deny", "repro/core/monitor.py", src
        ) == []

    def test_positive_deny_code_without_emission(self):
        findings = run_rule(
            "audit-on-deny",
            "repro/core/monitor.py",
            "def _deny(self, reason, parsed):\n"
            "    return AuthorizationResult(reason, parsed)\n",
        )
        assert len(findings) == 1
        assert "deny reason" in findings[0].message

    def test_negative_allowing_codes_need_no_emission(self):
        src = (
            "def allow(self, rule_id, parsed):\n"
            "    if rule_id is None:\n"
            "        return AuthorizationResult(Reason.UNCHECKED)\n"
            "    return AuthorizationResult(\n"
            "        Reason.GRANTED if rule_id else Reason.UNCHECKED, parsed\n"
            "    )\n"
        )
        assert run_rule(
            "audit-on-deny", "repro/core/monitor.py", src
        ) == []

    def test_positive_breaker_transition(self):
        findings = run_rule(
            "audit-on-deny",
            "repro/resilience/breaker.py",
            "def _enter(self, state):\n"
            "    self.events.append((state, 0.0))\n",
        )
        assert len(findings) == 1

    def test_positive_manager_deny_without_emission(self):
        """The manager's unknown-instance denial must leave evidence."""
        findings = run_rule(
            "audit-on-deny",
            "repro/vtpm/manager.py",
            "def _dispatch_frame(self, instance_id):\n"
            "    if instance_id not in self._instances:\n"
            "        self.commands_denied += 1\n"
            "        return marshal.build_response(TPM_AUTHFAIL)\n",
        )
        assert len(findings) == 1

    def test_live_manager_is_in_scope_and_clean(self):
        import repro.vtpm.manager as manager_mod

        source = Path(manager_mod.__file__).read_text()
        assert run_rule("audit-on-deny", "repro/vtpm/manager.py", source) == []
        stripped = source.replace("_VTPM_UNKNOWN_INSTANCE.inc()", "pass")
        assert run_rule("audit-on-deny", "repro/vtpm/manager.py", stripped)

    def test_out_of_scope_file_ignored(self):
        src = "def shed(wire):\n    return build_response(0x9)\n"
        assert run_rule(
            "audit-on-deny", "repro/resilience/health.py", src
        ) == []


# -- counter-registry -------------------------------------------------------------


class TestCounterRegistry:
    def test_positive_typo_namespace(self):
        findings = run_rule(
            "counter-registry",
            "repro/vtpm/x.py",
            "def f():\n    inc('vtmp.hotplug.error')\n",
        )
        assert len(findings) == 1
        assert "undeclared namespace 'vtmp'" in findings[0].message

    def test_positive_bad_grammar(self):
        findings = run_rule(
            "counter-registry",
            "repro/vtpm/x.py",
            "def f():\n    counter('Vtpm.Errors')\n",
        )
        assert len(findings) == 1
        assert "grammar" in findings[0].message

    def test_positive_span_root(self):
        findings = run_rule(
            "counter-registry",
            "repro/vtpm/x.py",
            "def f(tracer):\n    tracer.start_span('weird.op')\n",
        )
        assert len(findings) == 1

    def test_negative_declared_names(self):
        src = (
            "def f(tracer):\n"
            "    inc('vtpm.hotplug.error', op='disconnect')\n"
            "    counter('ac.decisions', outcome='allow')\n"
            "    set_gauge('resilience.depth', 3)\n"
            "    tracer.start_span('manager.dispatch')\n"
        )
        assert run_rule("counter-registry", "repro/vtpm/x.py", src) == []

    def test_non_name_calls_ignored(self):
        # first args that are not string literals never trip the rule
        src = "def f(n):\n    inc(n)\n    slots.inc(3)\n"
        assert run_rule("counter-registry", "repro/tpm/x.py", src) == []

    def test_collect_metric_literals(self):
        module = ModuleSource(
            "repro/vtpm/x.py",
            "def f(tracer):\n"
            "    inc('vtpm.a')\n"
            "    counter('ac.b', cls='x')\n"
            "    tracer.start_span('authz')\n",
        )
        literals = collect_metric_literals([module])
        assert literals["counter"] == {"vtpm.a", "ac.b"}
        assert literals["span"] == {"authz"}


# -- framework: pragmas, walker, baseline ----------------------------------------


class TestPragmas:
    BAD = (
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError:\n"
        "        pass\n"
    )

    def test_same_line_pragma(self, tmp_path):
        src = self.BAD.replace(
            "except ValueError:",
            "except ValueError:  # repro: allow[fail-closed] -- why not",
        )
        result = analyze_tree(
            tmp_path, {"repro/core/x.py": src}, rule_ids=["fail-closed"]
        )
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_pragma_without_reason_is_reported(self, tmp_path):
        src = self.BAD.replace(
            "except ValueError:",
            "except ValueError:  # repro: allow[fail-closed]",
        )
        result = analyze_tree(
            tmp_path, {"repro/core/x.py": src}, rule_ids=["fail-closed"]
        )
        assert [f.rule for f in result.findings] == [META_MALFORMED]

    def test_unused_pragma_is_reported(self, tmp_path):
        src = "X = 1  # repro: allow[fail-closed] -- nothing here\n"
        result = analyze_tree(
            tmp_path, {"repro/core/x.py": src}, rule_ids=["fail-closed"]
        )
        assert [f.rule for f in result.findings] == [META_UNUSED]

    def test_unused_pragma_for_unrun_rule_not_reported(self, tmp_path):
        src = "X = 1  # repro: allow[secret-flow] -- other rule\n"
        result = analyze_tree(
            tmp_path, {"repro/core/x.py": src}, rule_ids=["fail-closed"]
        )
        assert result.findings == []

    def test_pragma_only_suppresses_its_rule(self, tmp_path):
        src = self.BAD.replace(
            "except ValueError:",
            "except ValueError:  # repro: allow[determinism] -- wrong id",
        )
        result = analyze_tree(
            tmp_path, {"repro/core/x.py": src},
            rule_ids=["fail-closed"],
        )
        assert [f.rule for f in result.findings] == ["fail-closed"]


class TestAnalyzer:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            Analyzer(rule_ids=["no-such-rule"])

    def test_walker_skips_pycache(self, tmp_path):
        root = tmp_path / "repro"
        (root / "core").mkdir(parents=True)
        (root / "core" / "x.py").write_text("X = 1\n")
        pycache = root / "core" / "__pycache__"
        pycache.mkdir()
        (pycache / "x.py").write_text("import random\n")
        result = Analyzer(package_root=root).run()
        assert result.files == 1
        assert result.findings == []

    def test_findings_sorted_and_fingerprint_stable(self, tmp_path):
        result = analyze_tree(
            tmp_path,
            {
                "repro/core/b.py": "import random\n",
                "repro/core/a.py": "import random\n",
            },
            rule_ids=["determinism"],
        )
        assert [f.path for f in result.findings] == [
            "repro/core/a.py", "repro/core/b.py",
        ]
        finding = result.findings[0]
        assert finding.fingerprint == (
            f"determinism:{finding.path}:{finding.message}"
        )

    @pytest.mark.parametrize("rule_id", sorted(RULES))
    def test_every_rule_example_violation_fires(self, rule_id):
        module = injected_module(rule_id)
        findings = RULES[rule_id].check(module)
        assert findings, f"{rule_id} example violation did not fire"
        assert all(f.rule == rule_id for f in findings)
        assert module.display_path.endswith("::injected")


class TestBaseline:
    def _finding(self, message="m"):
        return Finding(
            rule="determinism", path="repro/core/a.py", line=1,
            message=message,
        )

    def test_clean_against_empty_baseline(self, tmp_path):
        result = analyze_tree(
            tmp_path, {"repro/core/a.py": "X = 1\n"},
            rule_ids=["determinism"],
        )
        outcome = check_against_baseline(result, [])
        assert outcome.clean

    def test_new_finding_fails(self, tmp_path):
        result = analyze_tree(
            tmp_path, {"repro/core/a.py": "import random\n"},
            rule_ids=["determinism"],
        )
        outcome = check_against_baseline(result, [])
        assert not outcome.clean
        assert len(outcome.new) == 1

    def test_baselined_finding_tolerated_and_stale_detected(self, tmp_path):
        result = analyze_tree(
            tmp_path, {"repro/core/a.py": "import random\n"},
            rule_ids=["determinism"],
        )
        fp = result.findings[0].fingerprint
        baseline = [
            {"fingerprint": fp},
            {"fingerprint": "determinism:repro/core/gone.py:old debt"},
        ]
        outcome = check_against_baseline(result, baseline)
        assert not outcome.clean  # stale entry must be deleted
        assert outcome.new == []
        assert len(outcome.tolerated) == 1
        assert len(outcome.stale) == 1

    def test_baseline_roundtrip(self, tmp_path):
        result = analyze_tree(
            tmp_path, {"repro/core/a.py": "import random\n"},
            rule_ids=["determinism"],
        )
        path = tmp_path / "baseline.json"
        path.write_text(render_baseline(result))
        outcome = check_against_baseline(result, load_baseline(path))
        assert outcome.clean

    def test_load_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []


class TestReporters:
    def test_render_json_parses(self, tmp_path):
        result = analyze_tree(
            tmp_path, {"repro/core/a.py": "import random\n"},
            rule_ids=["determinism"],
        )
        outcome = check_against_baseline(result, [])
        payload = json.loads(render_json(result, outcome))
        assert payload["findings"][0]["rule"] == "determinism"
        assert payload["check"]["clean"] is False
        assert payload["rules"][0]["id"] == "determinism"

    def test_render_text_mentions_suppressions(self, tmp_path):
        result = analyze_tree(
            tmp_path,
            {
                "repro/core/x.py": (
                    "def f():\n"
                    "    try:\n"
                    "        g()\n"
                    "    except ValueError:  # repro: allow[fail-closed] -- ok\n"
                    "        pass\n"
                )
            },
            rule_ids=["fail-closed"],
        )
        text = render_text(result)
        assert "1 suppressed" in text
        assert "allow[fail-closed] -- ok" in text

    def test_shipped_namespaces_cover_core_counters(self):
        assert {"ac", "ring", "faults", "vtpm", "cluster", "resilience"} \
            <= COUNTER_NAMESPACES
