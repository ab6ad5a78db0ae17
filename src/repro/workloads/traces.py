"""Synthetic arrival traces.

Open-loop load for the scaling experiment: each entry is (arrival time,
guest index, operation).  Arrivals are Poisson per guest; operations come
from a :class:`~repro.workloads.mixes.CommandMix`.  Traces serialize to a
simple text format so runs can be archived and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.crypto.random_source import RandomSource
from repro.util.errors import ReproError
from repro.workloads.mixes import CommandMix, OPERATIONS


@dataclass(frozen=True)
class TraceEntry:
    """One operation arrival."""

    time_us: float
    guest_index: int
    operation: str


@dataclass
class SyntheticTrace:
    """A full workload trace."""

    entries: List[TraceEntry]
    guests: int
    duration_us: float

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def poisson(
        rng: RandomSource,
        guests: int,
        rate_per_guest_per_sec: float,
        duration_s: float,
        mix: CommandMix,
    ) -> "SyntheticTrace":
        """Poisson arrivals per guest, merged and time-sorted."""
        if guests <= 0:
            raise ReproError(f"need at least one guest, got {guests}")
        if rate_per_guest_per_sec <= 0 or duration_s <= 0:
            raise ReproError("rate and duration must be positive")
        rate_us = rate_per_guest_per_sec / 1e6
        duration_us = duration_s * 1e6
        entries: List[TraceEntry] = []
        for g in range(guests):
            guest_rng = rng.fork(f"trace-guest-{g}")
            t = 0.0
            while True:
                t += guest_rng.expovariate(rate_us)
                if t >= duration_us:
                    break
                entries.append(
                    TraceEntry(time_us=t, guest_index=g, operation=mix.draw(guest_rng))
                )
        entries.sort(key=lambda e: (e.time_us, e.guest_index))
        return SyntheticTrace(entries=entries, guests=guests, duration_us=duration_us)

    # -- (de)serialization ---------------------------------------------------------

    def dumps(self) -> str:
        lines = [f"# guests={self.guests} duration_us={self.duration_us}"]
        lines += [
            # repr keeps full float precision so loads(dumps(t)) == t.
            f"{e.time_us!r}\t{e.guest_index}\t{e.operation}" for e in self.entries
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads(text: str) -> "SyntheticTrace":
        """Parse :meth:`dumps` output; raise :class:`ReproError` if malformed."""
        lines = [
            (number, line)
            for number, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
        if not lines or not lines[0][1].startswith("#"):
            raise ReproError("trace text missing header line")
        header_line = lines[0][1]
        header = dict(
            part.partition("=")[::2] for part in header_line.lstrip("# ").split()
        )
        missing = sorted({"guests", "duration_us"} - header.keys())
        if missing:
            raise ReproError(f"trace header lacks {', '.join(missing)}")
        try:
            guests = int(header["guests"])
            duration_us = float(header["duration_us"])
        except ValueError:
            raise ReproError(f"trace header {header_line!r} is malformed") from None
        if guests <= 0:
            raise ReproError(f"trace header needs at least one guest, got {guests}")
        entries = []
        for number, line in lines[1:]:
            fields = line.split("\t")
            if len(fields) != 3:
                raise ReproError(
                    f"trace line {number}: expected 3 tab-separated fields, "
                    f"got {len(fields)}"
                )
            time_s, guest_s, op = fields
            if op not in OPERATIONS:
                raise ReproError(f"trace names unknown operation {op!r}")
            try:
                entry = TraceEntry(
                    time_us=float(time_s), guest_index=int(guest_s), operation=op
                )
            except ValueError:
                raise ReproError(
                    f"trace line {number}: non-numeric time or guest in {line!r}"
                ) from None
            if not 0 <= entry.guest_index < guests:
                raise ReproError(
                    f"trace line {number}: guest {entry.guest_index} outside "
                    f"0..{guests - 1} (header guests={guests})"
                )
            entries.append(entry)
        return SyntheticTrace(entries=entries, guests=guests, duration_us=duration_us)
