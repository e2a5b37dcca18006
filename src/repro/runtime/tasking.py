"""Tasking: one scheduler, a FIFO run queue drained by joining tasks.

Chapel's ``coforall`` creates one task per iteration and blocks until all
complete; ``forall`` creates a bounded number of worker tasks.  Both map
here onto :class:`TaskGroup`, a structured fork/join handle over the
runtime's run queue (:class:`WorkerPool`).  A task is one
:class:`~repro.runtime.context.TaskContext`: ``spawn`` builds it with its
body, arguments, group and start time, and appends it to the queue, and
nothing else is allocated per task.

No thread is ever started.  ``join`` pops tasks in FIFO order and runs
each to completion on the calling thread (:meth:`TaskContext.call`)
until its own group has no pending task.  A joiner runs whatever was
queued before its own children first — its siblings — which is where the
paper's contention comes from: a task that wins a ``tryReclaim``
election runs the still-queued sibling tasks inside its scan's ``join``,
and those siblings lose (docs/ENGINE.md, "The scheduler").  The schedule
is a pure function of the program, so every result is bit-identical run
to run.

Virtual-time composition: children start at ``parent.now +
fork_overhead`` where the overhead models a binomial spawn tree
(``ceil(log2(n+1))`` rounds of spawning); ``join`` returns the latest
child finish, and the parent resumes there plus a join cost
(:meth:`TaskContext.resume`).  This is the rule that makes a timed
``forall`` report the *slowest* task — exactly what a wall-clock
measurement on the real machine reports.

Exception policy: the first exception raised by any child is re-raised in
the parent at ``join`` (after all children have stopped), so test failures
inside tasks surface as ordinary test failures.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from ..errors import RuntimeStateError
from .context import TaskContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Runtime

__all__ = ["TaskGroup", "WorkerPool", "spawn_tree_overhead", "task_seed"]


def task_seed(seed: int, task_id: int) -> int:
    """The RNG seed of task ``task_id`` on a runtime seeded ``seed``.

    A pure function of the two, so workload randomness does not depend
    on the order tasks run in; the compiled engine's column cache
    (:mod:`repro.engine.cache`) draws a phase's columns from it ahead of
    the phase's tasks.
    """
    return (seed << 20) ^ task_id


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


class WorkerPool(deque):
    """The runtime's FIFO run queue of spawned, not yet started tasks.

    One queue lives on each :class:`~repro.runtime.runtime.Runtime`; its
    items are the queued tasks' :class:`TaskContext` objects.  It owns no
    thread: joining tasks drain it (see :meth:`TaskGroup.join`).
    """

    __slots__ = ()

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
    """A structured group of simulated tasks on the runtime's run queue.

    It keeps no list of its tasks: each finished task folds its virtual
    time into the group's running latest finish (virtual times are never
    negative, so the empty group's 0.0 is the identity) and its exception,
    if it is the first, into ``_error``.
    """

    __slots__ = ("_rt", "_latest", "_error", "_pending", "_joined")

    def __init__(self, runtime: "Runtime") -> None:
        self._rt = runtime
        self._latest = 0.0
        self._error: Optional[BaseException] = None
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

        The task is one :class:`TaskContext`, queued as is; its RNG seed
        is derived deterministically from the runtime seed and the task
        id, so workload randomness is reproducible run-to-run.  The
        generator itself is built on the task's first draw (most tasks
        never draw).
        """
        if self._joined:
            raise RuntimeStateError("TaskGroup already joined")
        rt = self._rt
        task_id = rt._next_task_id()
        self._pending += 1
        rt._run_queue.append(TaskContext(
            rt, locale_id, start_time, task_id,
            task_seed(rt.config.seed, task_id), fn, args, self,
        ))

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
            if not queue:
                queue.wait(self)  # raises: nothing queued can finish us
            task = queue.popleft()
            group = task.group
            try:
                task.call(task.fn, *task.args)
            except BaseException as exc:  # noqa: BLE001 - re-raised at join
                if group._error is None:
                    group._error = exc
            group._pending -= 1
            if task.now > group._latest:
                group._latest = task.now
        if self._error is not None:
            raise self._error
        return self._latest
