"""The queue-based data consistency algorithm (paper §III-A.1, Figure 5).

The staging area keeps one :class:`EventQueue` per application component and
pushes every data-communication and fault-tolerance event related to that
component onto it. On failure, the queue yields the *replay script*: the
logged data events recorded after the component's last checkpoint. While the
component re-executes, staging walks the script in recorded order with one
cursor, re-serving each logged get and suppressing each redundant put, until
the component catches up with its pre-failure frontier and returns to live
execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import (
    CheckpointEvent,
    DataEvent,
    EventKind,
    RecoveryEvent,
    WChkId,
    WorkflowEvent,
)
from repro.errors import ReplayError
from repro.obs import registry as _obs

__all__ = ["EventQueue", "ReplayScript"]

_APPENDS = _obs.counter("eventq.events_appended")
_TRIMMED = _obs.counter("eventq.events_trimmed")
_SCRIPTS_BUILT = _obs.counter("eventq.replay_scripts_built")
_SCRIPT_EVENTS = _obs.histogram("eventq.replay_script.events")


@dataclass
class ReplayScript:
    """The ordered data events a recovering component must re-observe.

    One cursor walks the log in the exact order it was recorded
    (:meth:`peek` / :meth:`advance`): a recovering component re-issues its
    requests in program order, so any request that is not the next recorded
    event — including a swap between two different variables — is a
    divergence from the initial execution and must surface as one.
    """

    component: str
    restored_chk: WChkId | None
    events: list[DataEvent]
    _cursor: int = 0

    @property
    def remaining(self) -> int:
        """Events not yet replayed."""
        return len(self.events) - self._cursor

    @property
    def exhausted(self) -> bool:
        """True once every event has been replayed."""
        return self.remaining <= 0

    def peek(self) -> DataEvent:
        """The next expected event (raises when exhausted)."""
        if self.exhausted:
            raise ReplayError(f"replay script for {self.component!r} exhausted")
        return self.events[self._cursor]

    def advance(self) -> DataEvent:
        """Consume and return the next expected event."""
        ev = self.peek()
        self._cursor += 1
        return ev


@dataclass
class EventQueue:
    """Per-component event queue with checkpoint-aware trimming.

    The queue is append-only during normal execution. ``workflow_check``
    appends a :class:`CheckpointEvent`; at that point events older than the
    *previous* checkpoint can never be replayed again (a component only ever
    rolls back to its latest checkpoint) and become garbage — the paper's
    "at the end of checkpoint cycle, data staging will clean the event queue".
    Trimming itself is performed by the garbage collector so it can first
    check cross-component data dependencies.
    """

    component: str
    events: list[WorkflowEvent] = field(default_factory=list)
    _next_seq: int = 0
    _next_chk_counter: int = 0
    # Cached per-component depth gauge (resolved on first append).
    _depth_gauge: object = field(default=None, repr=False, compare=False)
    # ---- O(1) caches (maintained at append time) ----
    # Latest checkpoint event, any durability / durable only.
    _latest_chk: CheckpointEvent | None = field(default=None, repr=False, compare=False)
    _latest_durable_chk: CheckpointEvent | None = field(
        default=None, repr=False, compare=False
    )
    # name -> min GET version observed since the latest *durable* checkpoint
    # (the replayable window). Gives ``version_floor`` its O(1) lookup —
    # the GC calls it per candidate, so it must not rescan the queue.
    _floor_cache: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    # ---------------------------------------------------------------- append

    def _alloc_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _note_depth(self) -> None:
        gauge = self._depth_gauge
        if gauge is None:
            gauge = self._depth_gauge = _obs.gauge(f"eventq.depth.{self.component}")
        gauge.set(len(self.events))

    def record_data(self, op: EventKind, desc, digest: str, step: int) -> DataEvent:
        """Append a put/get event observed during live execution."""
        ev = DataEvent(
            component=self.component,
            seq=self._alloc_seq(),
            step=step,
            op=op,
            desc=desc,
            digest=digest,
        )
        self.events.append(ev)
        if op is EventKind.GET and desc is not None:
            cur = self._floor_cache.get(desc.name)
            if cur is None or desc.version < cur:
                self._floor_cache[desc.name] = desc.version
        _APPENDS.inc()
        self._note_depth()
        return ev

    def record_checkpoint(self, step: int, durable: bool = True) -> CheckpointEvent:
        """Append a checkpoint event, minting a fresh ``W_Chk_ID``.

        ``durable=False`` marks a node-local (multi-level) checkpoint that
        may not survive a node failure; retention and trimming must then
        fall back to the last durable checkpoint.
        """
        chk_id = WChkId(self.component, self._next_chk_counter)
        self._next_chk_counter += 1
        ev = CheckpointEvent(
            component=self.component,
            seq=self._alloc_seq(),
            step=step,
            chk_id=chk_id,
            durable=durable,
        )
        self.events.append(ev)
        self._latest_chk = ev
        if durable:
            # The replayable window restarts here: no event before a durable
            # checkpoint can ever be replayed again.
            self._latest_durable_chk = ev
            self._floor_cache.clear()
        _APPENDS.inc()
        self._note_depth()
        return ev

    def record_recovery(self, step: int, restored: WChkId | None) -> RecoveryEvent:
        """Append a recovery event (``workflow_restart`` notification)."""
        ev = RecoveryEvent(
            component=self.component,
            seq=self._alloc_seq(),
            step=step,
            restored_chk=restored,
        )
        self.events.append(ev)
        _APPENDS.inc()
        self._note_depth()
        return ev

    # ---------------------------------------------------------------- query

    def latest_checkpoint(self, durable_only: bool = False) -> CheckpointEvent | None:
        """The most recent (optionally durable) checkpoint event, or None.

        Served from the append-time cache — O(1), no queue scan.
        """
        return self._latest_durable_chk if durable_only else self._latest_chk

    def data_events(self) -> list[DataEvent]:
        """All data events currently in the queue, oldest first."""
        return [ev for ev in self.events if isinstance(ev, DataEvent)]

    def events_after(self, chk: CheckpointEvent | None) -> list[DataEvent]:
        """Data events recorded after ``chk`` (all of them when None)."""
        if chk is None:
            return self.data_events()
        return [
            ev
            for ev in self.events
            if isinstance(ev, DataEvent) and ev.seq > chk.seq
        ]

    # ---------------------------------------------------------------- replay

    def build_replay_script(self, durable_only: bool = False) -> ReplayScript:
        """Replay script from the latest restorable checkpoint (paper Fig. 5).

        A component that has never checkpointed restarts from the beginning,
        so its script covers the whole queue. ``durable_only=True`` replays
        from the last *durable* checkpoint — the multi-level case where a
        node failure destroyed the newer node-local checkpoints.
        """
        chk = self.latest_checkpoint(durable_only=durable_only)
        script = ReplayScript(
            component=self.component,
            restored_chk=chk.chk_id if chk else None,
            events=self.events_after(chk),
        )
        _SCRIPTS_BUILT.inc()
        _SCRIPT_EVENTS.record(len(script.events))
        return script

    # ------------------------------------------------------------------ trim

    def trim_before(self, seq: int) -> list[WorkflowEvent]:
        """Drop events with ``ev.seq < seq``; returns the dropped events."""
        dropped = [ev for ev in self.events if ev.seq < seq]
        if dropped:
            self.events = [ev for ev in self.events if ev.seq >= seq]
            # The GC only trims below the durable checkpoint, so the caches
            # normally survive; an arbitrary deeper trim must rebuild them.
            if self._latest_chk is not None and self._latest_chk.seq < seq:
                self._rescan_checkpoints()
            _TRIMMED.inc(len(dropped))
            self._note_depth()
        return dropped

    def _rescan_checkpoints(self) -> None:
        """Rebuild the checkpoint/floor caches after an out-of-band trim."""
        self._latest_chk = None
        self._latest_durable_chk = None
        for ev in reversed(self.events):
            if isinstance(ev, CheckpointEvent):
                if self._latest_chk is None:
                    self._latest_chk = ev
                if ev.durable:
                    self._latest_durable_chk = ev
                    break
        self._floor_cache = {}
        for ev in self.events_after(self._latest_durable_chk):
            if ev.op is EventKind.GET and ev.desc is not None:
                cur = self._floor_cache.get(ev.desc.name)
                if cur is None or ev.desc.version < cur:
                    self._floor_cache[ev.desc.name] = ev.desc.version

    def trimmable_horizon(self) -> int:
        """Queue sequence below which events can never be replayed.

        That is the sequence of the latest *durable* checkpoint event: a
        node failure can force rollback past newer node-local checkpoints,
        so only events before the durable one are dead. Returns 0 (nothing
        trimmable) for components with no durable checkpoint yet.
        """
        chk = self.latest_checkpoint(durable_only=True)
        return chk.seq if chk is not None else 0

    # -------------------------------------------------------------- metrics

    def __len__(self) -> int:
        return len(self.events)

    def version_floor(self, name: str) -> int | None:
        """Oldest version of ``name`` this component could re-read on rollback.

        Served from the append-time floor cache (min GET version since the
        latest *durable* checkpoint — the deepest restorable point); O(1).
        None when the component never reads ``name`` in its replayable
        window.
        """
        return self._floor_cache.get(name)
