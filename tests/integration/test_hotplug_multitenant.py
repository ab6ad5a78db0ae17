"""Integration: watch-driven hotplug and the multi-tenant capstone scenario."""

import hashlib

import pytest

from repro.core.config import AccessMode
from repro.harness.builder import build_platform
from repro.obs.counters import CounterRegistry, registry_scope
from repro.util.errors import VtpmError


class TestHotplug:
    def test_frontend_publication_triggers_connect(self, improved_platform):
        guest = improved_platform.add_guest_hotplug("hp")
        assert improved_platform.hotplug_agent().connects == 1
        assert len(guest.client.get_random(8)) == 8

    def test_state_six_disconnects_and_persists(self, improved_platform):
        platform = improved_platform
        guest = platform.add_guest_hotplug("hp")
        guest.client.extend(5, b"\x05" * 20)
        guest.frontend.close()
        agent = platform.hotplug_agent()
        assert agent.disconnects == 1
        assert platform.manager.instance_count == 0
        # State was persisted on the way out.
        assert platform.storage.has_state(guest.domain.uuid)

    def test_remove_guest_retires_a_hotplugged_guest(self, improved_platform):
        # remove_guest retires the vTPM itself (persisting it by default);
        # closing the front-end does not retire it a second time.
        platform = improved_platform
        guest = platform.add_guest_hotplug("hp")
        platform.remove_guest("hp")
        assert platform.manager.instance_count == 0
        assert platform.storage.has_state(guest.domain.uuid)
        assert not guest.domain.is_alive

    @pytest.mark.parametrize("add", ["add_guest", "add_guest_hotplug"])
    def test_remove_guest_honours_persist_flag(self, improved_platform, add):
        """``persist_vtpm=False`` leaves no state on either attach path,
        and a clean retire is not a degraded one."""
        platform = improved_platform
        guest = getattr(platform, add)("leaver")
        guest.client.extend(5, b"\x05" * 20)
        registry = CounterRegistry()
        with registry_scope(registry):
            platform.remove_guest("leaver", persist_vtpm=False)
        assert platform.manager.instance_count == 0
        assert not platform.storage.has_state(guest.domain.uuid)
        assert not guest.domain.is_alive
        assert registry.value("vtpm.hotplug.error", op="disconnect") == 0
        assert not [r for r in platform.audit.records()
                    if r.operation.startswith("FAULT")]

    def test_many_hotplug_guests(self, baseline_platform):
        guests = [
            baseline_platform.add_guest_hotplug(f"hp{i}") for i in range(4)
        ]
        agent = baseline_platform.hotplug_agent()
        assert agent.connects == 4
        for i, guest in enumerate(guests):
            guest.client.extend(6, hashlib.sha1(bytes([i])).digest())
        values = {g.client.pcr_read(6) for g in guests}
        assert len(values) == 4  # isolated instances

    def test_hotplug_and_explicit_paths_coexist(self, baseline_platform):
        explicit = baseline_platform.add_guest("explicit")
        hotplugged = baseline_platform.add_guest_hotplug("hotplugged")
        assert explicit.instance_id != hotplugged.instance_id
        assert len(explicit.client.get_random(4)) == 4
        assert len(hotplugged.client.get_random(4)) == 4

    def test_monitor_covers_hotplugged_guests(self, improved_platform):
        victim = improved_platform.add_guest_hotplug("victim")
        attacker = improved_platform.add_guest_hotplug("attacker")
        # Hotplugged guests get measured identities too, so the fail-closed
        # backend refuses the re-bind before a single command can flow.
        with pytest.raises(VtpmError):
            attacker.backend.rebind(victim.instance_id)
        # And a forged packet claiming the victim's instance id is still
        # denied per-command by the monitor (defence in depth).
        from repro.tpm.constants import TPM_AUTHFAIL, TPM_ORD_PcrRead
        from repro.tpm.marshal import build_command

        wire = build_command(TPM_ORD_PcrRead, (0).to_bytes(4, "big"))
        [resp] = improved_platform.manager.handle_batch(
            attacker.domain.domid, victim.instance_id, [wire]
        )
        assert int.from_bytes(resp[6:10], "big") == TPM_AUTHFAIL


class TestMultiTenantCapstone:
    """The paper's motivating scenario end to end: a consolidated host,
    several tenants doing real trusted-computing work, one hostile
    privileged administrator — and the improvement holding the line."""

    def test_consolidated_host_under_hostile_admin(self):
        platform = build_platform(AccessMode.IMPROVED, seed=2010,
                                  name="cloud-host")
        tenants = {}
        for name in ("bank", "shop", "mail"):
            handle = platform.add_guest(name)
            client = handle.client
            ek = client.read_pubek()
            owner = hashlib.sha1(f"owner-{name}".encode()).digest()
            srk = hashlib.sha1(f"srk-{name}".encode()).digest()
            client.take_ownership(owner, srk, ek)
            client.extend(10, hashlib.sha1(f"app-{name}".encode()).digest())
            from repro.tpm.constants import TPM_KH_SRK

            sealed = client.seal(
                TPM_KH_SRK, srk, f"{name}-master-key".encode(),
                hashlib.sha1(f"data-{name}".encode()).digest(),
            )
            tenants[name] = (handle, owner, srk, sealed)

        # The hostile admin dumps everything dumpable.
        from repro.attacks.memdump import secrets_found

        hypercalls = platform.dom0_hypercalls()
        dump = b"".join(
            hypercalls.dump_domain_memory(
                platform.manager.manager_domid
            ).values()
        )
        for name, (handle, _o, _s, _blob) in tenants.items():
            instance = platform.manager.instance(handle.instance_id)
            assert not secrets_found(
                dump, instance.device.state.secret_material()
            ), f"tenant {name} leaked via memory dump"

        # ...and steals the disk.
        platform.manager.save_all()
        loot = b"".join(platform.disk.raw_contents().values())
        for name, (handle, _o, _s, _blob) in tenants.items():
            instance = platform.manager.instance(handle.instance_id)
            assert not secrets_found(
                loot, instance.device.state.secret_material()
            ), f"tenant {name} leaked via disk theft"

        # ...and tries to rebind one tenant's channel at another's vTPM:
        # the fail-closed backend refuses outright, and the channel stays
        # bound to its own instance.
        bank = tenants["bank"][0]
        shop = tenants["shop"][0]
        with pytest.raises(VtpmError):
            shop.backend.rebind(bank.instance_id)
        assert shop.backend.instance_id == shop.instance_id

        # Meanwhile every tenant's legitimate work is unaffected.
        for name, (handle, _owner, srk, sealed) in tenants.items():
            from repro.tpm.constants import TPM_KH_SRK

            recovered = handle.client.unseal(
                TPM_KH_SRK, srk, sealed,
                hashlib.sha1(f"data-{name}".encode()).digest(),
            )
            assert recovered == f"{name}-master-key".encode()

        # The audit log recorded the denial, with an intact chain.
        assert platform.audit.denials()
        assert platform.audit.verify_chain()
