"""Virtual time: per-task clocks and queueing service points.

The simulation measures *virtual* time, not wall time.  Every task carries a
:class:`TaskClock`; every simulated operation advances the current task's
clock by that operation's latency.  Contended hardware resources — a NIC
pipeline, a progress thread, a hot cache line — are modelled as
:class:`ServicePoint` instances: a serial server in virtual time.  An
operation that needs a resource completes at::

    finish = max(task.now + latency, point.next_free) + service
    point.next_free = finish

which is an M/D/1-style queue driven by the actual operation stream of the
running algorithms.  This is the mechanism that turns "64 tasks hammer one
atomic" into a flat-lining curve and "all AMs land on locale 0's progress
thread" into a bottleneck, reproducing the scaling behaviour the paper
measures on real hardware.

Parallel constructs compose clocks with ``max``: children are seeded with
the parent's time plus a fork cost, and the parent resumes at the maximum
child finish time plus a join cost (see
:meth:`~repro.runtime.runtime.Runtime.coforall_locales`).

Thread-safety: clocks are mutated only by their owning task (thread);
service points are shared and internally locked.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = ["TaskClock", "ServicePoint"]


class TaskClock:
    """A monotonically non-decreasing virtual clock owned by one task.

    The clock starts at the spawning construct's time so that virtual time
    is globally consistent across the task tree.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        #: Current virtual time, in seconds.
        self.now = float(start)

    def advance(self, dt: float) -> float:
        """Add ``dt`` seconds of work and return the new time.

        ``dt`` must be non-negative; charging functions guarantee this by
        construction (cost constants are positive).
        """
        self.now += dt
        return self.now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to ``t`` if ``t`` is later.

        Used when an operation's completion is determined by a shared
        resource (see :meth:`ServicePoint.serve`); never moves backwards.
        """
        if t > self.now:
            self.now = t
        return self.now

    def fork(self, overhead: float = 0.0) -> "TaskClock":
        """Create a child clock seeded at ``now + overhead``."""
        return TaskClock(self.now + overhead)

    def join(self, *children: "TaskClock", overhead: float = 0.0) -> float:
        """Absorb finished child clocks: jump to the latest, plus overhead."""
        latest = max((c.now for c in children), default=self.now)
        self.advance_to(latest)
        if overhead:
            self.advance(overhead)
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TaskClock(now={self.now:.9f})"


class ServicePoint:
    """A serial resource in virtual time (NIC pipeline, progress thread...).

    ``serve`` computes when a request arriving at virtual time ``arrival``
    finishes.  The caller then advances its own task clock to the returned
    finish time.

    Out-of-order arrivals (the idle bank)
    -------------------------------------
    Because simulated tasks execute on real threads, a task may *really*
    run ahead of another and reserve server time far into the virtual
    future; a second task whose operations are virtually *earlier* must
    not be queued behind those reservations — on the real machine the two
    streams would have interleaved through the server's idle gaps.  The
    server therefore banks its idle time: an arrival earlier than
    ``next_free`` is served out of the accumulated ``idle_bank`` when
    possible (it fits in a past gap) and only queues at the tail when the
    bank is exhausted.  The invariant preserved is *capacity conservation*
    — the server never performs more than one second of service per second
    of virtual time — which is exactly the property that makes hot atomics
    and AM-swamped progress threads serialize, while the precise placement
    of individual gaps (unknowable under real-thread scheduling) is
    approximated.

    The accumulated ``busy_time`` and ``served`` counters are exposed for
    diagnostics: utilization of the global-epoch locale's progress thread is
    one of the quantities the paper reasons about when justifying the
    first-come-first-served election.
    """

    __slots__ = (
        "name",
        "_lock",
        "next_free",
        "idle_bank",
        "busy_time",
        "served",
        "_tracer",
    )

    def __init__(self, name: str = "") -> None:
        #: Human-readable identity for diagnostics output.
        self.name = name
        self._lock = threading.Lock()
        #: Virtual time at which the server's last *tail* reservation ends.
        self.next_free = 0.0
        #: Unused service capacity accumulated before ``next_free``.
        self.idle_bank = 0.0
        #: Total virtual time spent serving requests.
        self.busy_time = 0.0
        #: Number of requests served.
        self.served = 0
        #: Full-detail trace recorder, or None (the overwhelmingly common
        #: case).  Installed by the runtime at trace detail ``full``; the
        #: off cost is the single ``is None`` check in ``serve_locked``.
        self._tracer = None

    def serve(self, arrival: float, service: float) -> float:
        """Admit a request arriving at ``arrival`` needing ``service`` seconds.

        Returns the virtual completion time.  Thread-safe: concurrent tasks
        serialize on an internal (real) lock only long enough to reserve
        their virtual slot.  (Direct acquire/release rather than ``with``:
        this is the single hottest function in the simulator — every
        charged operation passes through one or two serves.)
        """
        lock = self._lock
        lock.acquire()
        try:
            return self.serve_locked(arrival, service)
        finally:
            lock.release()

    def serve_locked(self, arrival: float, service: float) -> float:
        """:meth:`serve` body for callers already holding ``_lock``.

        Atomic cells alias their value lock to their line's lock and
        reserve the line *and* commit the value in one critical section
        (one lock cycle per mutating op instead of two); this entry point
        lets them run the reservation without re-acquiring.

        This is the one place every serve passes through — ``serve``
        delegates here, and the compiled engine's replay either calls it or
        inlines the same recurrence on the point's own slots at its
        hottest sites — so the trace hook lands exactly once.
        """
        self.busy_time += service
        self.served += 1
        next_free = self.next_free
        if arrival >= next_free:
            # Server idle at arrival: bank the gap, run immediately.
            self.idle_bank += arrival - next_free
            self.next_free = finish = arrival + service
        else:
            bank = self.idle_bank
            if bank >= service:
                # Fits in a past idle gap: no effect on the tail.
                self.idle_bank = bank - service
                finish = arrival + service
            else:
                # Bank exhausted: genuine saturation — queue at the tail
                # for the un-banked remainder, but never finish earlier
                # than the request's own arrival + service.
                self.idle_bank = 0.0
                finish = next_free + (service - bank)
                floor = arrival + service
                if finish < floor:
                    finish = floor
                self.next_free = finish
        if self._tracer is not None:
            self._tracer.serve(self, arrival, service, finish)
        return finish

    def reset(self) -> None:
        """Zero the server (between benchmark trials)."""
        with self._lock:
            self.next_free = 0.0
            self.idle_bank = 0.0
            self.busy_time = 0.0
            self.served = 0

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of ``horizon`` (or of ``next_free``) spent busy."""
        with self._lock:
            span = horizon if horizon is not None else self.next_free
            if span <= 0.0:
                return 0.0
            return min(1.0, self.busy_time / span)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ServicePoint({self.name!r}, next_free={self.next_free:.9f}, "
            f"served={self.served})"
        )
