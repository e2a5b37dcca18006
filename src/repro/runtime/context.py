"""The task object: who am I, where am I, what time is it.

Every simulated task — including the implicit "main" task a benchmark runs
in — is one :class:`TaskContext` carrying its runtime, current locale, its
virtual time ``now``, and a deterministic RNG.  A spawned task is also the
run queue's work item: it carries its body, arguments and group until a
join runs it (:mod:`repro.runtime.tasking`).  PGAS operations consult the
current context to decide whether an access is local or remote and to
charge virtual time to its ``now``.

:meth:`TaskContext.call` installs the context as its runtime's running
task (the runtime's ``_ctx`` slot) for the duration of a call and
restores the previous one (possibly none) after.  Every operation reads
its runtime's slot, so a task of another runtime is no task to it.  An
``on`` block temporarily rebinds the context's locale, mirroring Chapel
task migration without the expense of actually migrating anything.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import Runtime
    from .tasking import TaskGroup

T = TypeVar("T")

__all__ = ["TaskContext"]


class TaskContext:
    """Identity, virtual time and (while queued) body of one task.

    Attributes
    ----------
    runtime:
        The owning :class:`~repro.runtime.runtime.Runtime`.
    locale_id:
        The locale the task is currently executing on (mutated by ``on``).
    now:
        The task's virtual time, in seconds.  Charges advance it; it never
        moves backwards.
    task_id:
        Unique id within the runtime (diagnostics / deterministic seeding).
    seed:
        Seed of the task-private PRNG, derived by the spawner from the
        runtime seed and ``task_id`` so workloads are reproducible
        regardless of task order.  ``None`` seeds from the OS.
    fn, args, group:
        A spawned task's body, its arguments and its
        :class:`~repro.runtime.tasking.TaskGroup`; ``None`` / ``()`` /
        ``None`` for the root task.
    """

    __slots__ = (
        "runtime", "locale_id", "now", "task_id", "seed", "_rng",
        "fn", "args", "group",
    )

    def __init__(
        self,
        runtime: "Runtime",
        locale_id: int,
        now: float,
        task_id: int,
        seed: Optional[int] = None,
        fn: Optional[Callable[..., Any]] = None,
        args: Tuple[Any, ...] = (),
        group: Optional["TaskGroup"] = None,
    ) -> None:
        self.runtime = runtime
        self.locale_id = locale_id
        self.now = now
        self.task_id = task_id
        self.seed = seed
        self._rng: Optional[random.Random] = None
        self.fn = fn
        self.args = args
        self.group = group

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

    def call(self, fn: Callable[..., T], *args: Any) -> T:
        """Run ``fn(*args)`` with this task as its runtime's running task.

        Sets the runtime's ``_ctx`` slot — its only writer — and restores
        what it held before (possibly none), also when ``fn`` raises, so
        nested calls — a join running queued tasks inside a user task —
        compose.
        """
        rt = self.runtime
        prev = rt._ctx
        rt._ctx = self
        try:
            return fn(*args)
        finally:
            rt._ctx = prev

    def resume(self, finish: float, overhead: float) -> None:
        """Resume after a join: jump to the latest child ``finish`` if it
        is later, then pay the join ``overhead``.  The one join step of
        ``forall`` (and so of the compiled phases) and
        ``coforall_locales``."""
        if finish > self.now:
            self.now = finish
        self.now += overhead

