"""A test-and-set spinlock over the simulated interconnect.

The synchronized counterpart to everything in :mod:`repro.structures`.
Acquisition spins on an :class:`~repro.atomics.integer.AtomicBool`, so each
attempt pays real (virtual) atomic cost — a remote task contending for a
lock on another locale pays NIC-atomic or active-message prices per spin,
which is precisely why lock-based distributed structures stop scaling and
why the paper wants non-blocking ones.

A backoff cap bounds the *virtual* cost of a long spin (modelling
exponential backoff).  The won flag is the whole of the mutual exclusion:
a runtime's tasks run on one thread and switch only between whole
operations (docs/ENGINE.md, "One thread per runtime").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..atomics.integer import AtomicBool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["SpinLock"]


class SpinLock:
    """Test-and-set spinlock with cost-modelled acquisition *and* hold time.

    Mutual exclusion must serialize in **virtual** time too: while one task
    holds the lock, nobody else's critical section may overlap it.  The
    lock therefore owns a :class:`~repro.runtime.clock.ServicePoint` whose
    capacity is consumed by each critical section's duration — on release,
    the holder's time absorbs any queueing delay accumulated behind other
    holders.  This is what caps a locked structure's throughput at
    ``1 / mean-hold-time`` regardless of task count, the ceiling the
    non-blocking structures exist to break.

    The flag lives on locale 0: a task on any other locale pays remote
    atomics for each attempt.
    """

    def __init__(self, runtime: "Runtime", *, name: str = "lock") -> None:
        self._rt = runtime
        self.home = 0
        self._flag = AtomicBool(runtime, self.home, False, name=name)
        #: Serializes critical-section durations in virtual time.
        from ..runtime.clock import ServicePoint

        self.cs_point = ServicePoint(f"{name}.cs@{self.home}")
        self._hold_start = 0.0
        #: Total acquisition attempts (diagnostic: spin amplification).
        self.attempts = 0
        #: Successful acquisitions.
        self.acquisitions = 0

    def acquire(self) -> None:
        """Spin until the flag is won; each test-and-set is charged."""
        spins = 0
        while True:
            self.attempts += 1
            if not self._flag.test_and_set():
                break
            spins += 1
            # Model exponential backoff: after a few failed attempts the
            # virtual cost per retry stops growing (we keep charging one
            # atomic per visible retry).
            if spins % 4 == 0:
                ctx = self._rt._ctx
                if ctx is not None:
                    ctx.now += self._rt.config.costs.cpu_atomic_latency * spins
        self.acquisitions += 1
        ctx = self._rt._ctx
        self._hold_start = ctx.now if ctx is not None else 0.0

    def release(self) -> None:
        """End the critical section: consume lock capacity, then unlock."""
        ctx = self._rt._ctx
        if ctx is not None:
            hold = ctx.now - self._hold_start
            # Even an empty critical section occupies the lock for the
            # releasing store's latency.
            hold = max(hold, self._rt.config.costs.cpu_atomic_latency)
            finish = self.cs_point.serve_locked(self._hold_start, hold)
            if finish > ctx.now:
                ctx.now = finish
        self._flag.clear()

    def __enter__(self) -> "SpinLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpinLock(home={self.home})"
