"""The Xen vTPM subsystem (the design the paper improves).

Manager daemon, per-guest instances, tpmfront/tpmback split driver,
persistent storage and live migration — runnable in two regimes:
``AccessMode.BASELINE`` (stock Xen behaviour) and ``AccessMode.IMPROVED``
(with the :mod:`repro.core` access-control layer installed).
"""

from repro.vtpm.backend import VtpmBackend
from repro.vtpm.frontend import VtpmFrontend
from repro.vtpm.instance import VtpmInstance
from repro.vtpm.manager import VtpmManager
from repro.vtpm.migration import MigrationEndpoint, MigrationOffer, MigrationPackage
from repro.vtpm.storage import DiskStore, VtpmStorage

__all__ = [
    "VtpmBackend",
    "VtpmFrontend",
    "VtpmInstance",
    "VtpmManager",
    "MigrationEndpoint",
    "MigrationOffer",
    "MigrationPackage",
    "DiskStore",
    "VtpmStorage",
]
