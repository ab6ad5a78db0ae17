"""Unit tests for event channels, grant tables and the tpmif ring."""

import pytest

from repro.xen.event_channel import EventChannels
from repro.xen.grant_table import GrantTable
from repro.xen.memory import PAGE_SIZE, PhysicalMemory
from repro.xen.ring import MAX_PAYLOAD, TpmRing
from repro.util.errors import EventChannelError, GrantError, RingError


@pytest.fixture
def memory():
    return PhysicalMemory(total_pages=64)


@pytest.fixture
def events():
    return EventChannels()


@pytest.fixture
def grants(memory):
    return GrantTable(memory)


class TestEventChannels:
    def test_notify_invokes_remote_handler(self, events):
        port = events.alloc_unbound(1, 2)
        received = []
        events.bind(port, 2, lambda p: received.append(p))
        events.notify(port, 1)
        assert received == [port]

    def test_notify_is_directional(self, events):
        port = events.alloc_unbound(1, 2)
        side_a, side_b = [], []
        events.bind(port, 1, lambda p: side_a.append(p))
        events.bind(port, 2, lambda p: side_b.append(p))
        events.notify(port, 1)
        assert side_b == [port] and side_a == []
        events.notify(port, 2)
        assert side_a == [port]

    def test_third_party_cannot_bind_or_notify(self, events):
        port = events.alloc_unbound(1, 2)
        with pytest.raises(EventChannelError):
            events.bind(port, 3, lambda p: None)
        with pytest.raises(EventChannelError):
            events.notify(port, 3)

    def test_closed_port_rejected(self, events):
        port = events.alloc_unbound(1, 2)
        events.close(port)
        with pytest.raises(EventChannelError):
            events.notify(port, 1)

    def test_notification_counter(self, events):
        port = events.alloc_unbound(1, 2)
        events.bind(port, 2, lambda p: None)
        for _ in range(3):
            events.notify(port, 1)
        assert events.channel(port).notifications == 3


class TestGrantTable:
    def test_grant_map_share_flow(self, memory, grants):
        [frame] = memory.allocate(1, 1)
        gref = grants.grant_access(granter=1, grantee=2, frame=frame)
        mapped = grants.map_grant(grantee=2, granter=1, gref=gref)
        assert mapped == frame
        memory.write(2, frame, 0, b"shared!")  # grantee can now write

    def test_cannot_grant_foreign_frame(self, memory, grants):
        [frame] = memory.allocate(1, 1)
        with pytest.raises(GrantError):
            grants.grant_access(granter=2, grantee=3, frame=frame)

    def test_only_designated_grantee_maps(self, memory, grants):
        [frame] = memory.allocate(1, 1)
        gref = grants.grant_access(1, 2, frame)
        with pytest.raises(GrantError):
            grants.map_grant(grantee=3, granter=1, gref=gref)

    def test_unmap_revokes_sharing(self, memory, grants):
        [frame] = memory.allocate(1, 1)
        gref = grants.grant_access(1, 2, frame)
        grants.map_grant(2, 1, gref)
        grants.unmap_grant(2, 1, gref)
        from repro.util.errors import PageFault

        with pytest.raises(PageFault):
            memory.read(2, frame, 0, 1)

    def test_read_only_grant_refuses_grantee_writes(self, memory, grants):
        from repro.util.errors import PageFault

        [frame] = memory.allocate(1, 1)
        memory.write(1, frame, 0, b"owner")
        gref = grants.grant_access(1, 0, frame, readonly=True)
        grants.map_grant(0, 1, gref)
        assert memory.read(0, frame, 0, 5) == b"owner"
        with pytest.raises(PageFault, match="read-only"):
            memory.write(0, frame, 0, b"dom0!")
        assert memory.read(1, frame, 0, 5) == b"owner"
        memory.write(1, frame, 0, b"still")  # the owner keeps write access
        grants.unmap_grant(0, 1, gref)
        assert 0 not in memory.page(frame).read_only_for
        with pytest.raises(PageFault, match="does not own"):
            memory.write(0, frame, 0, b"dom0!")
        # A later read-write grant of the same frame is writable again.
        gref = grants.grant_access(1, 0, frame)
        grants.map_grant(0, 1, gref)
        memory.write(0, frame, 0, b"dom0!")
        assert memory.read(1, frame, 0, 5) == b"dom0!"

    def test_sharing_outlives_unmap_of_a_second_mapping(self, memory, grants):
        # Two grants of one frame to one grantee, both mapped: unmapping
        # either leaves the other mapping readable and writable.
        [frame] = memory.allocate(1, 1)
        memory.write(1, frame, 0, b"x")
        first = grants.grant_access(1, 2, frame)
        second = grants.grant_access(1, 2, frame)
        grants.map_grant(2, 1, first)
        grants.map_grant(2, 1, second)
        grants.unmap_grant(2, 1, second)
        assert memory.read(2, frame, 0, 1) == b"x"
        memory.write(2, frame, 0, b"y")
        grants.unmap_grant(2, 1, first)
        from repro.util.errors import PageFault

        with pytest.raises(PageFault, match="does not own"):
            memory.read(2, frame, 0, 1)

    def test_writable_mapping_beside_read_only_one_writes(self, memory,
                                                          grants):
        from repro.util.errors import PageFault

        [frame] = memory.allocate(1, 1)
        read_only = grants.grant_access(1, 2, frame, readonly=True)
        writable = grants.grant_access(1, 2, frame)
        grants.map_grant(2, 1, read_only)
        grants.map_grant(2, 1, writable)
        memory.write(2, frame, 0, b"rw")
        assert memory.read(1, frame, 0, 2) == b"rw"
        # Only the read-only mapping left: writes are refused again.
        grants.unmap_grant(2, 1, writable)
        with pytest.raises(PageFault, match="read-only"):
            memory.write(2, frame, 0, b"no")

    def test_end_access_requires_unmapped(self, memory, grants):
        [frame] = memory.allocate(1, 1)
        gref = grants.grant_access(1, 2, frame)
        grants.map_grant(2, 1, gref)
        with pytest.raises(GrantError, match="still mapped"):
            grants.end_access(1, gref)
        grants.unmap_grant(2, 1, gref)
        grants.end_access(1, gref)
        assert grants.active_grants == 0

    def test_unknown_gref_rejected(self, grants):
        with pytest.raises(GrantError):
            grants.map_grant(2, 1, 99)


class TestTpmRing:
    @pytest.fixture
    def ring(self, memory, grants, events):
        return TpmRing(memory, grants, events, front_domid=5, back_domid=0)

    def test_roundtrip(self, ring):
        ring.connect_backend(lambda cmd: b"echo:" + cmd)
        assert ring.send_command(b"hello") == b"echo:hello"
        assert ring.commands_carried == 1

    def test_no_backend_rejected(self, ring):
        with pytest.raises(RingError, match="no back-end"):
            ring.send_command(b"hello")

    def test_oversized_command_rejected(self, ring):
        ring.connect_backend(lambda cmd: b"")
        with pytest.raises(RingError, match="exceeds page window"):
            ring.send_command(b"x" * (MAX_PAYLOAD + 1))

    def test_oversized_response_rejected(self, ring):
        ring.connect_backend(lambda cmd: b"y" * (MAX_PAYLOAD + 1))
        with pytest.raises(RingError):
            ring.send_command(b"hi")

    def test_max_payload_exact_fits(self, ring):
        ring.connect_backend(lambda cmd: cmd)
        payload = b"z" * MAX_PAYLOAD
        assert ring.send_command(payload) == payload

    def test_many_commands_sequential(self, ring):
        ring.connect_backend(lambda cmd: cmd[::-1])
        for i in range(50):
            msg = f"message-{i}".encode()
            assert ring.send_command(msg) == msg[::-1]
        assert ring.commands_carried == 50

    def test_teardown_releases_resources(self, memory, grants, events, ring):
        ring.connect_backend(lambda cmd: cmd)
        before_pages = memory.allocated_pages
        ring.teardown()
        assert memory.allocated_pages == before_pages - 1
        assert grants.active_grants == 0
        assert events.open_count == 0

    def test_disconnect_then_send_fails(self, ring):
        ring.connect_backend(lambda cmd: cmd)
        ring.disconnect_backend()
        with pytest.raises(RingError):
            ring.send_command(b"hello")

    def test_payload_transits_shared_page(self, memory, ring):
        """The bytes really live in the granted frame (dump-visible)."""
        ring.connect_backend(lambda cmd: b"response-data")
        ring.send_command(b"command-data")
        page = memory.read(ring.front_domid, ring.frame, 0, PAGE_SIZE)
        assert b"response-data" in page

    @pytest.mark.parametrize("answer", [
        lambda cmds: [c[::-1] for c in cmds][:-1],           # one short
        lambda cmds: [c[::-1] for c in cmds] + [b"extra"],   # one long
    ], ids=["short", "long"])
    def test_batch_reply_length_must_match_admitted(self, ring, answer):
        ring.connect_backend(lambda cmd: cmd, answer)
        with pytest.raises(RingError, match="answered .* frames for 3 admitted"):
            ring.send_batch([b"a1", b"b2", b"c3"])

    def test_batch_reply_length_counts_only_admitted(self, ring):
        """Shed frames are answered by the verdict, not the back-end."""
        ring.connect_backend(lambda cmd: cmd, lambda cmds: [c.upper() for c in cmds])
        ring.set_admission(lambda cmds: [None, b"shed", None])
        assert ring.send_batch([b"a1", b"b2", b"c3"]) == [b"A1", b"shed", b"C3"]
