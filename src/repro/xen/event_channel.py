"""Event channels: Xen's virtual interrupt lines.

A channel binds two domains; ``notify`` on one end invokes the handler
registered by the other (synchronously, under the deterministic simulator).
The vTPM split driver pairs one channel with one granted page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.sim.timing import charge
from repro.util.errors import EventChannelError

Handler = Callable[[int], None]  # receives the port number


@dataclass(slots=True)
class Channel:
    port: int
    dom_a: int
    dom_b: int
    handler_a: Optional[Handler] = None
    handler_b: Optional[Handler] = None
    notifications: int = 0
    bound: bool = False


class EventChannels:
    """The machine-wide event-channel table."""

    def __init__(self) -> None:
        self._channels: Dict[int, Channel] = {}
        self._next_port = 1

    def alloc_unbound(self, dom_a: int, dom_b: int) -> int:
        """Allocate a port connecting two domains (interdomain channel)."""
        charge("xen.hypercall")
        port = self._next_port
        self._next_port += 1
        self._channels[port] = Channel(port=port, dom_a=dom_a, dom_b=dom_b)
        return port

    def bind(self, port: int, domid: int, handler: Handler) -> None:
        """Attach a domain's interrupt handler to its end of the channel."""
        charge("xen.hypercall")
        channel = self._get(port)
        if domid == channel.dom_a:
            channel.handler_a = handler
        elif domid == channel.dom_b:
            channel.handler_b = handler
        else:
            raise EventChannelError(
                f"dom{domid} is not an endpoint of port {port}"
            )
        channel.bound = channel.handler_a is not None and channel.handler_b is not None

    def notify(self, port: int, from_domid: int) -> None:
        """Fire the channel: runs the remote end's handler."""
        charge("xen.evtchn.notify")
        channel = self._channels.get(port)
        if channel is None:
            raise EventChannelError(f"no event channel on port {port}")
        if from_domid == channel.dom_a:
            handler = channel.handler_b
        elif from_domid == channel.dom_b:
            handler = channel.handler_a
        else:
            raise EventChannelError(f"dom{from_domid} is not on port {port}")
        channel.notifications += 1
        if handler is not None:
            handler(port)

    def close(self, port: int) -> None:
        charge("xen.hypercall")
        self._channels.pop(port, None)

    def _get(self, port: int) -> Channel:
        try:
            return self._channels[port]
        except KeyError:
            raise EventChannelError(f"no event channel on port {port}") from None

    def channel(self, port: int) -> Channel:
        """Introspection for tests."""
        return self._get(port)

    @property
    def open_count(self) -> int:
        return len(self._channels)
