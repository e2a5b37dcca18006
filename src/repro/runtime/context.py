"""Thread-local task context: who am I, where am I, what time is it.

Every simulated task — including the implicit "main" task a benchmark runs
in — owns a :class:`TaskContext` carrying its runtime, current locale, a
virtual :class:`~repro.runtime.clock.TaskClock`, and a deterministic RNG.
PGAS operations consult the current context to decide whether an access is
local or remote and to charge virtual time.

The context travels with the (real) thread that executes the task.  An
``on`` block temporarily rebinds the context's locale, mirroring Chapel task
migration without the expense of actually migrating a Python thread.

This module is one of the two places that keep ``threading``
(docs/ENGINE.md, "One thread per runtime"): the current context is
process-wide state, and separate runtimes may run on separate threads.
"""

from __future__ import annotations

import contextlib
import random
import threading
from typing import TYPE_CHECKING, Iterator, Optional

from ..errors import NoTaskContextError
from .clock import TaskClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Runtime

__all__ = [
    "TaskContext",
    "current_context",
    "maybe_context",
    "context_of",
    "context_scope",
]

_tls = threading.local()


class TaskContext:
    """Identity and virtual state of one running task.

    Attributes
    ----------
    runtime:
        The owning :class:`~repro.runtime.runtime.Runtime`.
    locale_id:
        The locale the task is currently executing on (mutated by ``on``).
    clock:
        The task's virtual clock.
    task_id:
        Unique id within the runtime (diagnostics / deterministic seeding).
    seed:
        Seed of the task-private PRNG, derived by the spawner from the
        runtime seed and ``task_id`` so workloads are reproducible
        regardless of task order.  ``None`` seeds from the OS.
    """

    __slots__ = ("runtime", "locale_id", "clock", "task_id", "seed", "_rng")

    def __init__(
        self,
        runtime: "Runtime",
        locale_id: int,
        clock: TaskClock,
        task_id: int,
        seed: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.locale_id = locale_id
        self.clock = clock
        self.task_id = task_id
        self.seed = seed
        self._rng: Optional[random.Random] = None

    @property
    def rng(self) -> random.Random:
        """The task-private PRNG, built from ``seed`` on first access.

        Most tasks (scans, drains, gathers) never draw, so they never pay
        for constructing a generator.  ``Random(seed)`` is the same stream
        as ``Random()`` followed by ``.seed(seed)``.
        """
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        return rng

    @property
    def here(self) -> int:
        """Chapel's ``here.id``: the locale this task is executing on."""
        return self.locale_id

    def is_local(self, locale_id: int) -> bool:
        """True when ``locale_id`` is the task's current locale."""
        return locale_id == self.locale_id


def current_context() -> TaskContext:
    """Return the current task's context, or raise :class:`NoTaskContextError`.

    All network-charging operations call this; running library code outside
    a task is a usage error with a precise, early failure.
    """
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        raise NoTaskContextError(
            "this operation must run inside a simulated task; wrap your code"
            " in Runtime.run(...) or a forall/coforall body"
        )
    return ctx


def maybe_context() -> Optional[TaskContext]:
    """Return the current task's context or ``None`` (never raises)."""
    return getattr(_tls, "ctx", None)


def context_of(runtime: "Runtime") -> Optional[TaskContext]:
    """Return the current task's context if it belongs to ``runtime``.

    A task of another runtime counts as no task context: its locale id
    and clock mean nothing to ``runtime``, so an operation on ``runtime``
    must neither index ``runtime``'s routes with that locale nor charge
    that clock.  :meth:`~repro.atomics.cell.ChargedWord._enter` makes the
    same check inline.
    """
    ctx = getattr(_tls, "ctx", None)
    return ctx if ctx is not None and ctx.runtime is runtime else None


@contextlib.contextmanager
def context_scope(ctx: TaskContext) -> Iterator[TaskContext]:
    """Install ``ctx`` as the current context for the ``with`` body.

    Restores whatever context (possibly none) was previously installed, so
    nested scopes — e.g. the runtime's internal helpers running inside a
    user task — compose correctly.
    """
    prev = getattr(_tls, "ctx", None)
    _tls.ctx = ctx
    try:
        yield ctx
    finally:
        _tls.ctx = prev
