"""Tasking: one scheduler, a FIFO run queue drained by joining tasks.

Chapel's ``coforall`` creates one task per iteration and blocks until all
complete; ``forall`` creates a bounded number of worker tasks.  Both map
here onto :class:`TaskGroup`, a structured fork/join handle over the
runtime's run queue (:class:`WorkerPool`).  Each simulated task carries a
:class:`~repro.runtime.clock.TaskClock` seeded from its parent.

No thread is ever started.  ``spawn`` appends a work item to the queue;
``join`` pops items in FIFO order and runs them to completion on the
calling thread until its own group has no pending task.  A joiner runs
whatever was queued before its own children first — its siblings — which
is where the paper's contention comes from: a task that wins a
``tryReclaim`` election runs the still-queued sibling tasks inside its
scan's ``join``, and those siblings lose (docs/ENGINE.md, "The
scheduler").  The schedule is a pure function of the program, so every
result is bit-identical run to run.

Virtual-time composition: children are seeded at ``parent.now +
fork_overhead`` where the overhead models a binomial spawn tree
(``ceil(log2(n+1))`` rounds of spawning); at ``join`` the parent's clock
jumps to the latest child finish time plus a join cost.  This is the rule
that makes a timed ``forall`` report the *slowest* task — exactly what a
wall-clock measurement on the real machine reports.

Exception policy: the first exception raised by any child is re-raised in
the parent at ``join`` (after all children have stopped), so test failures
inside tasks surface as ordinary test failures.
"""

from __future__ import annotations

import math
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
    """One spawned simulated task: body, context, and owning group."""

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
            group._errors.append(exc)
        finally:
            group._pending -= 1


class WorkerPool:
    """The runtime's FIFO run queue of spawned, not yet started tasks.

    One queue lives on each :class:`~repro.runtime.runtime.Runtime`.  It
    owns no thread: joining tasks drain it (see :meth:`TaskGroup.join`).
    """

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: Deque[_WorkItem] = deque()

    def submit(self, item: _WorkItem) -> None:
        """Queue one task behind every task spawned before it."""
        self._queue.append(item)

    def try_pop(self) -> Optional[_WorkItem]:
        """The oldest queued task, or None when the queue is empty."""
        queue = self._queue
        return queue.popleft() if queue else None

    def wait(self, group: "TaskGroup") -> None:
        """Called by a join whose group is pending but nothing is runnable.

        Every pending task is either queued or running further up the
        joining thread's stack, so an empty queue means ``group``'s join
        was reached from inside one of its own tasks.  Waiting could
        never end, so this raises.
        """
        raise RuntimeStateError(
            f"TaskGroup.join: {group._pending} task(s) pending but none"
            " runnable (a task joined its own group)"
        )


class TaskGroup:
    """A structured group of simulated tasks on the runtime's run queue."""

    def __init__(self, runtime: "Runtime") -> None:
        self._rt = runtime
        self._clocks: List[TaskClock] = []
        self._errors: List[BaseException] = []
        self._pending = 0
        self._joined = False

    def spawn(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        *,
        locale_id: int,
        start_time: float,
    ) -> None:
        """Queue ``fn(*args)`` as a task on ``locale_id`` at ``start_time``.

        The task receives a fresh :class:`TaskContext` whose RNG seed is
        derived deterministically from the runtime seed and the task id, so
        workload randomness is reproducible run-to-run.  The generator
        itself is built on the task's first draw (most tasks never draw).
        """
        if self._joined:
            raise RuntimeStateError("TaskGroup already joined")
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
        self._pending += 1
        self._rt._run_queue.submit(_WorkItem(fn, args, ctx, self))

    def join(self) -> float:
        """Run queued tasks until this group's are done; return the latest
        virtual finish.

        Pops the run queue in FIFO order and runs each task to completion
        on the calling thread — its own children or anyone else's queued
        earlier.  Re-raises the first child exception, if any, after all
        children have stopped.
        """
        if self._joined:
            raise RuntimeStateError("TaskGroup already joined")
        self._joined = True
        queue = self._rt._run_queue
        while self._pending:
            item = queue.try_pop()
            if item is None:
                queue.wait(self)  # raises: nothing queued can finish us
            item.run()
        if self._errors:
            raise self._errors[0]
        return max((c.now for c in self._clocks), default=0.0)

    @property
    def task_count(self) -> int:
        """Number of tasks spawned into this group."""
        return len(self._clocks)
