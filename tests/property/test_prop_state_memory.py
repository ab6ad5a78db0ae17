"""Property tests: state serialization, memory regions, audit chains."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.audit import AuditLog
from repro.crypto.random_source import RandomSource
from repro.xen.memory import PAGE_SIZE, MemoryRegion, PhysicalMemory

# -- state serialization ------------------------------------------------------

# A single provisioned device reused across examples (keygen is costly);
# examples mutate NV and PCRs through a controlled sequence then roundtrip.
from repro.tpm.client import TpmClient
from repro.tpm.device import TpmDevice
from repro.tpm.nvram import NV_PER_AUTHREAD, NV_PER_AUTHWRITE
from repro.tpm.state import TpmState

_RNG = RandomSource(b"prop-state")
_DEVICE = TpmDevice(_RNG.fork("dev"), key_bits=512, nv_capacity=4096)
_DEVICE.power_on()
_CLIENT = TpmClient(_DEVICE.execute, _RNG.fork("cli"))
_EK = _CLIENT.read_pubek()
_CLIENT.take_ownership(b"O" * 20, b"S" * 20, _EK)
_CLIENT.nv_define(b"O" * 20, 0x77, 64, NV_PER_AUTHREAD | NV_PER_AUTHWRITE, b"N" * 20)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.binary(min_size=20, max_size=20)),
        max_size=5,
    ),
    st.binary(min_size=1, max_size=64),
)
def test_state_roundtrip_after_arbitrary_mutations(extends, nv_data):
    for index, measurement in extends:
        _CLIENT.extend(index, measurement)
    _CLIENT.nv_write(b"N" * 20, 0x77, 0, nv_data[:64])
    blob = _DEVICE.save_state_blob()
    restored = TpmState.deserialize(blob)
    assert restored.serialize() == blob
    assert restored.pcrs.snapshot() == _DEVICE.state.pcrs.snapshot()
    assert restored.nv.get(0x77).data == _DEVICE.state.nv.get(0x77).data
    assert restored.owner_auth == _DEVICE.state.owner_auth


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_state_secrets_always_inside_blob(seed):
    """Whatever the RNG produced, secret_material() ⊆ serialized state."""
    device = TpmDevice(RandomSource(seed), key_bits=512)
    device.power_on()
    blob = device.save_state_blob()
    for secret in device.state.secret_material():
        assert secret in blob


# -- memory regions --------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),                      # pages in the region
    st.integers(0, 3 * PAGE_SIZE),          # write offset
    st.binary(min_size=0, max_size=2 * PAGE_SIZE),
)
def test_region_write_read_identity(pages, offset, data):
    memory = PhysicalMemory(total_pages=16)
    region = MemoryRegion(memory, 1, memory.allocate(1, pages))
    if offset + len(data) <= region.size:
        region.write(offset, data)
        assert region.read(offset, len(data)) == data
    else:
        from repro.util.errors import PageFault
        import pytest

        with pytest.raises(PageFault):
            region.write(offset, data)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2 * PAGE_SIZE - 64), st.binary(min_size=1, max_size=64)),
        min_size=1,
        max_size=8,
    )
)
def test_region_last_write_wins(writes):
    """Overlapping writes behave like a flat byte array."""
    memory = PhysicalMemory(total_pages=8)
    region = MemoryRegion(memory, 1, memory.allocate(1, 2))
    mirror = bytearray(region.size)
    for offset, data in writes:
        region.write(offset, data)
        mirror[offset : offset + len(data)] = data
    assert region.read(0, region.size) == bytes(mirror)


# -- audit chain ---------------------------------------------------------------------


record = st.tuples(
    st.text(min_size=1, max_size=12),
    st.integers(0, 9),
    st.sampled_from(["TPM_Extend", "TPM_Quote", "TPM_Seal"]),
    st.booleans(),
    st.text(max_size=20),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(record, max_size=20))
def test_audit_chain_always_verifies_untampered(entries):
    log = AuditLog()
    for subject, instance, op, allowed, reason in entries:
        log.append(subject, instance, op, allowed, reason)
    assert log.verify_chain()
    assert len(log) == len(entries)
    assert len(log.denials()) == sum(1 for e in entries if not e[3])


@settings(max_examples=30, deadline=None)
@given(st.lists(record, min_size=2, max_size=15), st.data())
def test_audit_any_edit_detected(entries, data):
    log = AuditLog()
    for subject, instance, op, allowed, reason in entries:
        log.append(subject, instance, op, allowed, reason)
    victim = data.draw(st.integers(0, len(entries) - 1))
    fields = log._table[log._ids[victim]]
    log._table.append(fields[:4] + (fields[4] + "-edited",))
    log._ids[victim] = len(log._table) - 1
    assert not log.verify_chain()
