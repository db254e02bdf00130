"""Transport abstraction: how a staging group reaches its servers.

A :class:`Transport` owns the server *handles* that populate
``StagingGroup.servers`` and everything about how calls reach them. The
client, resilience, and runtime layers stay transport-blind: they call the
same :class:`~repro.staging.server.StagingServer` method surface on whatever
handle the transport hands out, and the three places the substrate needs to
*manage* servers rather than call them route through the transport:

* group construction → :meth:`Transport.make_servers`
* ``rebuild_server`` replacement provisioning → :meth:`Transport.make_replacement`
* fault injection → :meth:`Transport.inject_faults` (returns ``None`` when
  faults should be injected by wrapping handles in-process — the inproc
  path — or an injector-compatible handle when the transport pushes the
  plans to where the servers actually live, e.g. into TCP server processes)

Transports are selected per group (``StagingGroup.create(transport=...)``)
or process-wide through the ``REPRO_TRANSPORT`` environment variable, which
is how the CI transport matrix flips the entire test suite onto TCP without
touching a single test.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

from repro.staging.server import StagingServer

__all__ = ["TRANSPORT_ENV", "Transport", "InprocTransport", "resolve_transport"]

TRANSPORT_ENV = "REPRO_TRANSPORT"


class Transport(ABC):
    """Factory + lifecycle owner for one group's server handles."""

    #: Short name used in env/config and in ``net.*`` metric labels.
    name: str = "abstract"

    #: True when calls cross a process boundary (tcp, shm). Such a
    #: transport's handles have a begin half (``RemoteServer.begin``), and
    #: the client overlaps a logical op's requests on the wire instead of
    #: making its calls one after another.
    remote: bool = False

    @abstractmethod
    def make_servers(self, num_servers: int) -> list:
        """Provision ``num_servers`` fresh, empty server handles (ids 0..n-1)."""

    @abstractmethod
    def make_replacement(self, server_id: int):
        """Provision a fresh, empty handle to replace a lost server.

        Called by :func:`repro.staging.resilience.rebuild_server` when the
        caller did not supply a replacement; the returned handle starts
        empty and is populated from survivors before being swapped into
        ``group.servers``.
        """

    def inject_faults(self, plans, rng=None):
        """Install fault plans where the servers live.

        Return ``None`` to tell :func:`repro.faults.proxy.inject_faults` to
        fall back to wrapping the handles in-process (correct whenever the
        handles are real local servers). Transports whose servers live
        elsewhere return an object mirroring the
        :class:`~repro.faults.plan.FaultInjector` read API (``fired``,
        ``pending_count``, ``pending_for``) plus ``heal(server_id)``.
        """
        return None

    def close(self) -> None:
        """Release transport resources (processes, sockets). Idempotent."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InprocTransport(Transport):
    """The seed behaviour: servers are in-process objects, calls are plain
    method calls, payloads move by reference. Zero copies, zero sockets —
    this stays the default transport."""

    name = "inproc"

    def make_servers(self, num_servers: int) -> list[StagingServer]:
        return [StagingServer(i) for i in range(num_servers)]

    def make_replacement(self, server_id: int) -> StagingServer:
        return StagingServer(server_id)


def resolve_transport(spec=None) -> Transport:
    """Resolve a transport from an instance, a name, or the environment.

    ``spec`` may be a :class:`Transport` instance (returned as-is), a name
    (``"inproc"`` / ``"tcp"`` / ``"shm"``), or ``None`` — then the
    ``REPRO_TRANSPORT`` environment variable decides, defaulting to inproc.
    """
    if isinstance(spec, Transport):
        return spec
    if spec is None:
        spec = os.environ.get(TRANSPORT_ENV, "") or "inproc"
    if not isinstance(spec, str):
        raise ValueError(f"transport spec must be a Transport or name, got {spec!r}")
    name = spec.strip().lower()
    if name == "inproc":
        return InprocTransport()
    if name == "tcp":
        from repro.net.tcp import TcpTransport

        return TcpTransport()
    if name == "shm":
        from repro.net.shm import ShmTransport

        return ShmTransport()
    raise ValueError(
        f"unknown transport {spec!r} (expected 'inproc', 'tcp', or 'shm')"
    )
