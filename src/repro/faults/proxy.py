"""Fault-injecting staging-server proxy.

:class:`FaultyServer` wraps a :class:`~repro.staging.server.StagingServer`
(a versioned store plus its protection-blob side-store) and is drop-in
substitutable for it inside a :class:`~repro.staging.client.StagingGroup`:
every *data-path* operation a client sends (put/get/covers/query, evict and
retention, and the protection blob ops) first advances the
server's op counter, polls the shared :class:`~repro.faults.plan.FaultInjector`
for newly due plans, and then applies whatever fault state is active.

Administrative operations — ``snapshot``/``restore``/journaling and
attribute access (``lock``, ``store``, ``nbytes``, ...) — pass through
unfaulted: they model the runtime's *control plane* (the coordinated
checkpoint protocol operates on surviving state), while the fault library
targets the client-visible data plane. A crashed server keeps raising
:class:`~repro.errors.ServerUnavailable` until :meth:`heal` (called by
``StagingGroup.rebuild``) clears the fault state.

Faults are strictly **per-request**: a ``slow`` plan's latency is slept on
the thread executing that one op, outside ``_fault_lock``. Under the wire
transports' event-loop server this means a slow request parks one worker
while other requests multiplexed onto the *same connection* keep completing
(out of order, by request id) — the fault matrix observes per-op delay, not
a stalled connection.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import ServerUnavailable, TransientServerError
from repro.faults.plan import FaultInjector, FaultPlan
from repro.obs import registry as _obs
from repro.staging.server import StagingServer
from repro.util.rng import RngRegistry

__all__ = ["FaultyServer", "inject_faults"]

_FAULTS_FIRED = _obs.counter("faults.fired")
_CRASH_REFUSALS = _obs.counter("faults.crash_refusals")
_SLOW_SECONDS = _obs.histogram("faults.slow.seconds")
_FLAKY_ERRORS = _obs.counter("faults.flaky_errors")
_CORRUPTIONS = _obs.counter("faults.corruptions")

# Data-path methods that advance the op counter and feel active faults.
_FAULTED_OPS = (
    "put",
    "put_many",
    "get",
    "get_many",
    "put_blob",
    "get_blob",
    "covers",
    "covers_all",
    "query_versions",
    "evict",
    "evict_consumed",
)
# Reads whose results a `corrupt` fault may silently damage.
_READ_OPS = ("get", "get_many", "get_blob")


class FaultyServer:
    """Deterministic fault-injecting wrapper around one staging server."""

    def __init__(
        self,
        inner: StagingServer,
        injector: FaultInjector,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.inner = inner
        self.injector = injector
        # Corruption offsets are drawn from a per-server generator so the
        # damaged byte is reproducible across runs with the same seed.
        self._rng = rng if rng is not None else np.random.default_rng(inner.server_id)
        self._fault_lock = threading.Lock()
        self._ops = 0
        self._crashed = False
        self._slow: tuple[float, int] | None = None  # (latency, remaining; 0=forever)
        self._flaky_remaining = 0
        self._corrupt_remaining = 0

    # ----------------------------------------------------------- fault state

    @property
    def server_id(self) -> int:
        return self.inner.server_id

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def op_count(self) -> int:
        """Data-path operations attempted against this server so far."""
        return self._ops

    def heal(self) -> None:
        """Clear all active fault state (a rebuilt/replaced server is healthy)."""
        with self._fault_lock:
            self._crashed = False
            self._slow = None
            self._flaky_remaining = 0
            self._corrupt_remaining = 0

    def _activate(self, plan: FaultPlan) -> None:
        """Turn one fired plan into local fault state (holds ``_fault_lock``)."""
        _FAULTS_FIRED.inc()
        if plan.kind == "crash":
            self._crashed = True
        elif plan.kind == "slow":
            self._slow = (plan.latency, plan.calls)
        elif plan.kind == "flaky":
            self._flaky_remaining += max(1, plan.calls)
        elif plan.kind == "corrupt":
            self._corrupt_remaining += max(1, plan.calls)

    def _before_op(self) -> float:
        """Advance the op counter, activate due plans, apply pre-call faults.

        Returns the latency to sleep *outside* the fault lock (sleeping under
        it would serialize fault bookkeeping across server threads).
        """
        with self._fault_lock:
            op = self._ops
            self._ops += 1
            while (plan := self.injector.poll(self.server_id, op)) is not None:
                self._activate(plan)
            if self._crashed:
                _CRASH_REFUSALS.inc()
                raise ServerUnavailable(self.server_id)
            delay = 0.0
            if self._slow is not None:
                latency, remaining = self._slow
                delay = latency
                if remaining > 0:
                    remaining -= 1
                    self._slow = (latency, remaining) if remaining else None
            if self._flaky_remaining > 0:
                self._flaky_remaining -= 1
                _FLAKY_ERRORS.inc()
                raise TransientServerError(self.server_id)
        return delay

    def _maybe_corrupt(self, arrays: list[np.ndarray]) -> None:
        """Flip one byte of one returned payload if a corrupt fault is active."""
        with self._fault_lock:
            if self._corrupt_remaining <= 0:
                return
            # Only writable buffers can be damaged in place (zero-copy decode
            # can surface read-only views; skipping them beats crashing the
            # fault path).
            candidates = [a for a in arrays if a.nbytes > 0 and a.flags.writeable]
            if not candidates:
                return
            self._corrupt_remaining -= 1
            victim = candidates[int(self._rng.integers(0, len(candidates)))]
            _CORRUPTIONS.inc()
        flat = victim.reshape(-1).view(np.uint8)
        offset = int(self._rng.integers(0, flat.size))
        flat[offset] ^= 0xFF

    # ------------------------------------------------------------- data path

    def _faulted_call(self, name: str, *args, **kwargs):
        delay = self._before_op()
        if delay > 0.0:
            _SLOW_SECONDS.record(delay)
            time.sleep(delay)
        result = getattr(self.inner, name)(*args, **kwargs)
        if name in _READ_OPS and self._corrupt_remaining > 0:
            if name == "get_many":
                # Server gets return freshly assembled buffers, so in-place
                # corruption never touches stored fragments.
                self._maybe_corrupt(list(result))
            elif isinstance(result, np.ndarray):
                if name == "get_blob":
                    # Blobs are served by reference; corrupt a copy so the
                    # stored parity stays intact.
                    result = result.copy()
                self._maybe_corrupt([result])
        return result

    # One def per op (rather than __getattr__ dispatch) keeps call sites
    # introspectable and pickling/snapshot paths unaffected.
    def put(self, *a, **kw):
        return self._faulted_call("put", *a, **kw)

    def put_many(self, *a, **kw):
        return self._faulted_call("put_many", *a, **kw)

    def get(self, *a, **kw):
        return self._faulted_call("get", *a, **kw)

    def get_many(self, *a, **kw):
        return self._faulted_call("get_many", *a, **kw)

    def put_blob(self, *a, **kw):
        return self._faulted_call("put_blob", *a, **kw)

    def get_blob(self, *a, **kw):
        return self._faulted_call("get_blob", *a, **kw)

    def covers(self, *a, **kw):
        return self._faulted_call("covers", *a, **kw)

    def covers_all(self, *a, **kw):
        return self._faulted_call("covers_all", *a, **kw)

    def query_versions(self, *a, **kw):
        return self._faulted_call("query_versions", *a, **kw)

    def evict(self, *a, **kw):
        return self._faulted_call("evict", *a, **kw)

    def evict_consumed(self, *a, **kw):
        return self._faulted_call("evict_consumed", *a, **kw)

    # ---------------------------------------------------------- control plane

    def __getattr__(self, name: str):
        # snapshot/restore/seal_delta/nbytes/store/lock/...
        return getattr(self.inner, name)


def inject_faults(
    group,
    plans: list[FaultPlan],
    rng: RngRegistry | None = None,
) -> FaultInjector:
    """Wrap every server of ``group`` in a FaultyServer sharing one injector.

    Idempotent on already-wrapped servers (their injector is replaced). The
    optional registry seeds each proxy's corruption stream; omitted, proxies
    fall back to per-server-id seeds (still deterministic).

    Injection is routed through the group's transport first: a transport
    whose servers live elsewhere (TCP server processes) installs the plans
    *there* — same ``FaultyServer`` wrapper, the far side of a real socket —
    and returns an injector-compatible handle. The in-process wrapping below
    is the inproc transport's path (``Transport.inject_faults`` → ``None``).
    """
    transport = getattr(group, "transport", None)
    if transport is not None:
        handle = transport.inject_faults(plans, rng)
        if handle is not None:
            for server in group.servers:
                # Parity with the proxy surface: the shared handle is
                # reachable from every server, as the shared injector is.
                server.injector = handle
            return handle
    injector = FaultInjector(plans)
    for i, server in enumerate(group.servers):
        gen = rng.get(f"faults.corrupt.{i}") if rng is not None else None
        if isinstance(server, FaultyServer):
            server.injector = injector
            if gen is not None:
                server._rng = gen
        else:
            group.servers[i] = FaultyServer(server, injector, rng=gen)
    return injector
