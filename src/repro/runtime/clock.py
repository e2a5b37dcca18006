"""Virtual time: queueing service points.

The simulation measures *virtual* time, not wall time.  Every task carries
its own time, :attr:`~repro.runtime.context.TaskContext.now`; every
simulated operation advances the current task's ``now`` by that
operation's latency.  Contended hardware resources — a NIC pipeline, a
progress thread, a hot cache line — are modelled as :class:`ServicePoint`
instances: a serial server in virtual time.  An operation that needs a
resource completes at::

    finish = max(task.now + latency, point.next_free) + service
    point.next_free = finish

which is an M/D/1-style queue driven by the actual operation stream of the
running algorithms.  This is the mechanism that turns "64 tasks hammer one
atomic" into a flat-lining curve and "all AMs land on locale 0's progress
thread" into a bottleneck, reproducing the scaling behaviour the paper
measures on real hardware.

Parallel constructs compose task times with ``max``: children start at
the parent's time plus a fork cost, and the parent resumes at the maximum
child finish time plus a join cost
(:meth:`~repro.runtime.context.TaskContext.resume`, used by
:meth:`~repro.runtime.runtime.Runtime.coforall_locales` and ``forall``).

Threading: a runtime and everything it owns are used by one thread
(docs/ENGINE.md, "One thread per runtime").  A task's time is mutated
only by that task and service points by whichever task is running, so
neither needs a lock.
"""

from __future__ import annotations

__all__ = ["ServicePoint"]


class ServicePoint:
    """A serial resource in virtual time (NIC pipeline, progress thread...).

    ``serve_locked`` computes when a request arriving at virtual time
    ``arrival`` finishes.  The caller then advances its own task's ``now``
    to the returned finish time.

    Out-of-order arrivals (the idle bank)
    -------------------------------------
    Because simulated tasks run one after another, a task may *really*
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
    of individual gaps (which would need a virtual-time-ordered
    scheduler) is approximated.

    The accumulated ``busy_time`` and ``served`` counters are exposed for
    diagnostics (``RuntimeSnapshot``, the aggregation stats) on the NIC,
    progress-thread and uplink points: load on the global-epoch locale's
    progress thread is one of the quantities the paper reasons about when
    justifying the first-come-first-served election.  Only those points
    keep counters.  A cell's line is defined by its recurrence
    (``next_free``, ``idle_bank``) alone; its ``busy_time`` and ``served``
    are unspecified (some charge paths call :meth:`serve_locked` on it,
    the inline serve does not) and no report reads them.
    """

    __slots__ = (
        "name",
        "next_free",
        "idle_bank",
        "busy_time",
        "served",
        "_tracer",
    )

    def __init__(self, name: str = "") -> None:
        #: Human-readable identity for diagnostics output.
        self.name = name
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
        #: off cost is one ``is None`` check per serve.
        self._tracer = None

    def serve_locked(self, arrival: float, service: float) -> float:
        """Admit a request arriving at ``arrival`` needing ``service`` seconds.

        Returns the virtual completion time.  This is the one place every
        traced serve passes through — the network model and the compiled
        engine's replay call it, and the cells' line charge
        (``ChargedWord._enter``) and the replay's hottest sites inline the
        same recurrence on the point's own slots only while the point has
        no tracer — so the trace hook lands exactly once.  (The name
        predates the removal of the
        point's lock; ``benchmarks/e2e/hosttrace.py`` times it by this
        name.)
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
        self.next_free = 0.0
        self.idle_bank = 0.0
        self.busy_time = 0.0
        self.served = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ServicePoint({self.name!r}, next_free={self.next_free:.9f}, "
            f"served={self.served})"
        )
