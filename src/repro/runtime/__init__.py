"""Simulated PGAS runtime: locales, tasks, virtual time, and execution.

Public surface:

* :class:`~repro.runtime.runtime.Runtime` — the machine; create one per
  experiment.
* :class:`~repro.runtime.config.RuntimeConfig` /
  :class:`~repro.runtime.config.NetworkType` — machine description.
* :class:`~repro.runtime.clock.ServicePoint` — the virtual-time engine.
* :class:`~repro.runtime.context.TaskContext` /
  :func:`~repro.runtime.context.current_context` — the executing task
  and its virtual time.
* :func:`~repro.runtime.diagnostics.snapshot` — resource introspection.
"""

from .clock import ServicePoint
from .config import NetworkType, RuntimeConfig
from .context import TaskContext, current_context, maybe_context
from .diagnostics import RuntimeSnapshot, snapshot
from .runtime import Locale, Runtime, Timer
from .tasking import TaskGroup, WorkerPool

__all__ = [
    "Runtime",
    "Locale",
    "Timer",
    "RuntimeConfig",
    "NetworkType",
    "ServicePoint",
    "TaskContext",
    "TaskGroup",
    "WorkerPool",
    "current_context",
    "maybe_context",
    "RuntimeSnapshot",
    "snapshot",
]
