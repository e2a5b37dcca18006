"""Shared fixtures for the test suite.

Conventions:

* ``rt`` — a small default machine (4 locales, ugni, 2 tasks/locale).
* ``rt_none`` / ``rt_both`` — the no-network-atomics flavour / both.
* ``run`` — helper executing a callable inside a root task
  (``rt.run``), because every PGAS operation needs a task context.

Tests that exercise genuine concurrency spawn real threads through the
runtime's ``forall``/``coforall`` and assert invariants rather than
schedules; sizes are kept small so the whole suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.errors import UseAfterFreeError
from repro.memory import is_nil
from repro.runtime import Runtime


@pytest.fixture
def rt() -> Runtime:
    """Default small machine: 4 locales, RDMA atomics."""
    return Runtime(num_locales=4, network="ugni", tasks_per_locale=2)


@pytest.fixture
def rt_none() -> Runtime:
    """4 locales without network atomics (remote atomics become AMs)."""
    return Runtime(num_locales=4, network="none", tasks_per_locale=2)


@pytest.fixture(params=["ugni", "none"])
def rt_both(request) -> Runtime:
    """Parametrized over both network flavours."""
    return Runtime(num_locales=4, network=request.param, tasks_per_locale=2)


@pytest.fixture
def rt1() -> Runtime:
    """Single-locale machine (shared-memory scenarios)."""
    return Runtime(num_locales=1, network="none", tasks_per_locale=4)


def is_live(rt: Runtime, addr) -> bool:
    """True while ``addr`` names a live allocation (charges nothing)."""
    if is_nil(addr):
        return False
    try:
        rt.locale(addr.locale).heap.load(addr.offset)
    except UseAfterFreeError:
        return False
    return True


def table_items(table) -> list:
    """Every (key, value) entry of an ``InterlockedHashTable``'s bucket
    snapshots, duplicates included (quiescent; charges nothing)."""
    items = []
    for header in table._headers:
        addr = header.peek()
        if not is_nil(addr):
            snap = table._rt.locale(addr.locale).heap.load(addr.offset)
            items.extend((k, v) for _, k, v in snap.entries)
    return items


def run_in_task(rt: Runtime, fn, *args):
    """Execute ``fn`` inside a root task context on locale 0."""
    return rt.run(fn, *args)


@pytest.fixture
def run():
    """The ``run(rt, fn)`` helper as a fixture."""
    return run_in_task
