"""Simulated PGAS runtime: locales, tasks, virtual time, and execution.

Public surface:

* :class:`~repro.runtime.runtime.Runtime` — the machine; create one per
  experiment.
* :class:`~repro.runtime.config.RuntimeConfig` /
  :class:`~repro.runtime.config.NetworkType` — machine description.
* :class:`~repro.runtime.clock.ServicePoint` — the virtual-time engine.
* :class:`~repro.runtime.context.TaskContext` — a task and its virtual
  time; a runtime's running task is its ``_ctx`` slot.
* :func:`~repro.runtime.diagnostics.snapshot` — resource introspection.
"""

from .clock import ServicePoint
from .config import NetworkType, RuntimeConfig
from .context import TaskContext
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
    "RuntimeSnapshot",
    "snapshot",
]
