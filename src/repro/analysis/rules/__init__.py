"""The domain rule catalogue; importing this package registers every rule."""

from repro.analysis.rules import (  # noqa: F401  (import-for-registration)
    audit_on_deny,
    counter_registry,
    determinism,
    fail_closed,
    secret_flow,
)
