"""Tasking: a persistent worker pool running simulated tasks on real threads.

Chapel's ``coforall`` creates one task per iteration and blocks until all
complete; ``forall`` creates a bounded number of worker tasks.  Both map
here onto :class:`TaskGroup`, a structured fork/join *submission handle*
over the runtime's :class:`WorkerPool`.  Each simulated task carries a
:class:`~repro.runtime.clock.TaskClock` seeded from its parent and runs on
one of a small, reused set of real Python threads (so interleavings, CAS
retries, and races are genuine) instead of a freshly created OS thread per
task — thread creation and GIL convoying used to dominate the simulator's
real wall-clock time.

Virtual-time composition is unchanged from the thread-per-task engine:
children are seeded at ``parent.now + fork_overhead`` where the overhead
models a binomial spawn tree (``ceil(log2(n+1))`` rounds of spawning); at
``join`` the parent's clock jumps to the latest child finish time plus a
join cost.  This is the rule that makes a timed ``forall`` report the
*slowest* task — exactly what a wall-clock measurement on the real machine
reports.  Virtual-time results are independent of real-thread scheduling
and therefore of the pool size (see docs/ENGINE.md).

Exception policy: the first exception raised by any child is re-raised in
the parent at ``join`` (after all children have stopped), so test failures
inside tasks surface as ordinary test failures.

Deadlock freedom: a joining task *helps* — while its children are pending
it pops and runs queued work items on its own thread.  A nested
``coforall`` inside a pool worker therefore always makes progress even
when every pool thread is blocked in a join, and the pool can stay small
(bounded by :meth:`~repro.runtime.config.RuntimeConfig.resolved_worker_pool_size`).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from ..errors import RuntimeStateError
from .clock import TaskClock
from .context import TaskContext, context_scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Runtime

__all__ = ["TaskGroup", "WorkerPool", "spawn_tree_overhead"]


def spawn_tree_overhead(n_tasks: int, per_spawn: float) -> float:
    """Virtual cost of launching ``n_tasks`` via a binomial spawn tree.

    A single task spawning ``n`` children serially would pay ``n *
    per_spawn``; real runtimes fan out in a tree, paying ``ceil(log2(n+1))``
    rounds.  We charge every child the full tree depth (a conservative,
    uniform seed time).
    """
    if n_tasks <= 0:
        return 0.0
    return math.ceil(math.log2(n_tasks + 1)) * per_spawn


class _WorkItem:
    """One submitted simulated task: body, context, and owning group."""

    __slots__ = ("fn", "args", "ctx", "group")

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        ctx: TaskContext,
        group: "TaskGroup",
    ) -> None:
        self.fn = fn
        self.args = args
        self.ctx = ctx
        self.group = group

    def run(self) -> None:
        """Execute the task body under its context; report to the group."""
        group = self.group
        try:
            with context_scope(self.ctx):
                self.fn(*self.args)
        except BaseException as exc:  # noqa: BLE001 - forwarded at join
            group._record_error(exc)
        finally:
            group._task_done()


class WorkerPool:
    """A bounded, lazily-grown pool of daemon threads running simulated tasks.

    One pool lives on each :class:`~repro.runtime.runtime.Runtime` and is
    reused across every ``coforall``/``forall`` for that runtime's whole
    life, then torn down on ``Runtime.close()`` (or garbage collection of
    the runtime).  Threads are created only when work is queued and no
    worker is idle, up to ``max_workers``; beyond that, items wait in the
    queue and are drained by workers finishing earlier items or by joining
    tasks *helping* (see :meth:`TaskGroup.join`).
    """

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max(1, int(max_workers))
        # Two conditions over ONE lock: workers park on _cond, helping
        # joiners on _helpers.  Separate wait queues mean a submit's
        # notify() always lands on the idle worker it accounted for and
        # can never be stolen by a parked joiner.
        lock = threading.Lock()
        self._cond = threading.Condition(lock)
        self._helpers = threading.Condition(lock)
        self._queue: Deque[_WorkItem] = deque()
        self._threads: List[threading.Thread] = []
        self._idle = 0
        #: Idle workers already notified but not yet re-running: submit
        #: must not count them as available or a burst of submissions
        #: would all "wake" the same worker and serialize on it.
        self._woken = 0
        self._shutdown = False

    # -- introspection ----------------------------------------------------
    @property
    def max_workers(self) -> int:
        """Upper bound on pool threads (config: ``worker_pool_size``)."""
        return self._max_workers

    @property
    def thread_count(self) -> int:
        """Threads created so far (grows lazily, never shrinks until close)."""
        with self._cond:
            return len(self._threads)

    @property
    def is_shutdown(self) -> bool:
        """True once :meth:`shutdown` has run; submissions then fail."""
        return self._shutdown

    # -- submission / draining --------------------------------------------
    def submit(self, item: _WorkItem) -> None:
        """Queue one task; wake an un-woken idle worker or grow the pool."""
        with self._cond:
            if self._shutdown:
                raise RuntimeStateError("WorkerPool used after shutdown")
            self._queue.append(item)
            if self._idle > self._woken:
                self._woken += 1
                self._cond.notify()
            elif len(self._threads) < self._max_workers:
                t = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(t)
                t.start()
            else:
                # Every worker is busy or already woken; wake parked
                # joiners so a helping join can pick the item up.
                self._helpers.notify_all()

    def try_pop(self) -> Optional[_WorkItem]:
        """Steal one queued item (used by joining tasks to help)."""
        with self._cond:
            if self._queue:
                return self._queue.popleft()
            return None

    def wait(self, group: "TaskGroup", timeout: float) -> None:
        """Park ``group``'s joiner until work is queued or any pool event
        fires.

        Joiners wake on submissions, task completions (see
        :meth:`ping`), and shutdown.  ``group._pending`` is rechecked under
        the helper lock: a child finishing between the joiner's own check
        and this one has already decremented it, and one finishing later
        must take this lock to ping, so its wake-up cannot be lost.  The
        timeout is only a backstop.
        """
        with self._helpers:
            if not self._queue and not self._shutdown and group._pending:
                self._helpers.wait(timeout)

    def ping(self) -> None:
        """Wake parked joiners (called on task completion)."""
        with self._helpers:
            self._helpers.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    if self._shutdown:
                        return
                    self._idle += 1
                    self._cond.wait()
                    self._idle -= 1
                    if self._woken:
                        self._woken -= 1
                item = self._queue.popleft()
            item.run()

    def shutdown(self) -> None:
        """Stop all workers (queued items are drained first, then exit).

        Called by ``Runtime.close()`` and by the runtime's garbage-collection
        finalizer; callers must be quiescent (no outstanding joins).
        Idempotent and safe to call from any thread, including a pool
        worker (it simply skips joining itself).
        """
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            self._cond.notify_all()
            self._helpers.notify_all()
            threads = list(self._threads)
        me = threading.current_thread()
        for t in threads:
            if t is not me:
                t.join(timeout=2.0)


class TaskGroup:
    """A structured group of simulated tasks submitted to the worker pool."""

    def __init__(self, runtime: "Runtime") -> None:
        self._rt = runtime
        self._pool: Optional[WorkerPool] = None
        self._clocks: List[TaskClock] = []
        self._errors: List[BaseException] = []
        # Plain lock: joiners park on the pool's helper condition (woken
        # by ping()), never on the group, so no Condition is needed here.
        self._lock = threading.Lock()
        self._pending = 0
        self._spawned = 0
        self._joined = False

    def spawn(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        *,
        locale_id: int,
        start_time: float,
    ) -> None:
        """Submit ``fn(*args)`` as a task on ``locale_id`` at ``start_time``.

        The task receives a fresh :class:`TaskContext` whose RNG seed is
        derived deterministically from the runtime seed and the task id, so
        workload randomness is reproducible run-to-run and independent of
        which pool thread ends up executing the task.  The generator itself
        is built on the task's first draw (most tasks never draw).
        """
        if self._joined:
            raise RuntimeStateError("TaskGroup already joined")
        inline = self._rt._inline_tasks
        if self._pool is None and not inline:
            self._pool = self._rt._worker_pool()
        clock = TaskClock(start_time)
        self._clocks.append(clock)
        task_id = self._rt._next_task_id()
        ctx = TaskContext(
            runtime=self._rt,
            locale_id=locale_id,
            clock=clock,
            task_id=task_id,
            seed=(self._rt.config.seed << 20) ^ task_id,
        )
        with self._lock:
            self._pending += 1
        if inline:
            # Canonical serial schedule (trace detail "full"): run the
            # task right here, in spawn-submission order — the schedule
            # the compiled engine replays.  Virtual time is unchanged by
            # the pool-size-invariance contract; per-serve micro-values
            # become schedule-independent facts.  context_scope nests, so
            # tasks spawning tasks compose; errors surface at join() as
            # usual via _record_error.
            _WorkItem(fn, args, ctx, self).run()
            self._spawned += 1
            return
        try:
            self._pool.submit(_WorkItem(fn, args, ctx, self))
        except BaseException:
            # Undo the reservation, or a later join() would wait forever
            # for a task that never entered the queue.
            with self._lock:
                self._pending -= 1
            self._clocks.pop()
            raise
        self._spawned += 1

    # -- pool callbacks ----------------------------------------------------
    def _record_error(self, exc: BaseException) -> None:
        with self._lock:
            self._errors.append(exc)

    def _task_done(self) -> None:
        with self._lock:
            self._pending -= 1
        # Wake joiners parked on the pool: a finishing task may have
        # queued helpable work, and our own completion may be what a
        # nested joiner is waiting to observe.
        pool = self._pool
        if pool is not None:
            pool.ping()

    # -- join ---------------------------------------------------------------
    def join(self) -> float:
        """Block until all tasks finish; return the latest virtual finish.

        While waiting, the joining thread *helps*: it pops queued work
        items (its own children or anyone else's) and runs them inline.
        This keeps nested fork/join constructs deadlock-free on a bounded
        pool and shortens the critical path.  Re-raises the first child
        exception, if any, after all children have stopped.
        """
        if self._joined:
            raise RuntimeStateError("TaskGroup already joined")
        self._joined = True
        pool = self._pool
        if pool is not None:
            while True:
                with self._lock:
                    if self._pending == 0:
                        break
                item = pool.try_pop()
                if item is not None:
                    item.run()
                    continue
                # All our remaining children are running on real threads;
                # park on the pool, which is pinged by submissions and by
                # every task completion (ours included) and rechecks
                # _pending before parking.  The timeout is a backstop.
                pool.wait(self, 0.05)
        if self._errors:
            raise self._errors[0]
        return max((c.now for c in self._clocks), default=0.0)

    @property
    def task_count(self) -> int:
        """Number of tasks spawned into this group."""
        return self._spawned
