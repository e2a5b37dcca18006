"""Columnar op-stream IR: lowering fixed workload streams ahead of replay.

The determinism contract (see the notes in :mod:`repro.bench.workloads`)
already forces every scenario workload to emit *fixed* op streams: each
task's targets come from its seeded RNG or precomputed tables, never from
values another task wrote.  That discipline is exactly the precondition
for **batch compilation** — if the op sequence is known before the phase
runs, the whole phase can be lowered into columnar arrays and replayed in
one tight pass instead of one Python dispatch chain per op.

This module is the front end: it turns a task's RNG into the column of
per-op cell indices the executor (:mod:`repro.engine.executor`) replays.
The columns must consume *the identical bit stream* the interpreted task
bodies consume — one draw per op, in op order — so that a compiled run is
bit-identical to an interpreted one; each lowering function documents the
interpreted body it mirrors and is pinned against it by
tests/test_engine_compiled.py.  ``mix_column`` writes the uniform draw
out (``getrandbits`` plus rejection, the body of ``Random._randbelow``)
rather than calling it per op; ``run_epoch_mixed`` draws its
``is_write`` table through it too.

What lowers, what falls back
----------------------------
A phase lowers to the **columnar** tier when its per-op charge stream is
fixed up front: every op charges a precompiled route and the charge
count is value-independent (an ``AtomicObject`` CAS *outcome* may vary,
but the charges per attempt do not — the executor expands its op cycle's
fixed per-op charge counts into one column entry per charge, so the
columns built here are the same for every cell kind).  The mix/hotspot
streams over every cell kind, the epoch rounds of all four reclaimers
(EBR's token/limbo/pool cells, hp/qsbr/ibr guard buffers — threshold
scans run real mid-replay), and the root-task placement-allocation loops
all replay columnar.
Value-dependent phases (structure traversals in churn /
multi-structure, pin-time-tracking policies) take the **serial** tier:
the real bodies on the runtime's scheduler.  Only mid-phase
``tryReclaim`` elections, in-forall token registration with >1 task per
locale and full-detail tracing fall back to the interpreter — which ``compiled-strict`` turns
into an error.  The decision table is :func:`repro.engine.compiled_plan`;
see docs/ENGINE.md.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, List, Sequence

__all__ = [
    "fast_randbelow",
    "mix_column",
    "zipf_column",
    "mix_column_fn",
    "zipf_column_fn",
]


def fast_randbelow(rng) -> Callable[[int], int]:
    """The fast per-op cell draw shared by every uniform-mix stream.

    ``Random.randrange(n)`` is a thin, surprisingly expensive wrapper over
    ``_randbelow(n)`` for a positive int bound; calling the latter
    directly consumes the identical bit stream (so the op sequence — and
    therefore virtual time and comm counts — is unchanged) at a fraction
    of the call cost.  The interpreted workload bodies draw through this
    one helper; the loops that draw per item in bulk write its body out
    instead (``getrandbits(k)`` redrawn while ``>= n``) — :func:`mix_column`
    per op, and ``repro.bench.workloads._place_objects`` per placed
    object — and the tests pin all three against ``randrange`` /
    ``_randbelow``.
    """
    return rng._randbelow


def mix_column(rng, n_ops: int, ncells: int) -> List[int]:
    """Lower one task of the uniform atomic mix into a cell-index column.

    Mirrors ``run_atomic_mix``'s uniform per-task draw (no
    ``zipf_exponent``): one ``_randbelow(ncells)`` draw per op, in op
    order, whichever cell kind's body consumes it.  The 25/25/25/25 read/write/CAS/exchange
    cycle needs no column of its own — all four ops charge the same
    narrow route, so only the target cell matters for replay (the object
    bodies' extra CAS-case charge is the executor's expansion, not a
    different draw).

    The draw is inlined: ``_randbelow(n)`` is ``getrandbits(k)`` with
    ``k = n.bit_length()``, redrawn while the value is ``>= n`` (half of
    all draws are rejected when ``n`` is a power of two).  The loop below
    is that body, so it takes exactly the draws ``_randbelow`` would and
    leaves the RNG in the same state, without one Python call per op.
    Defined for ``ncells > 0``, as ``_randbelow`` is.
    """
    getrandbits = rng.getrandbits
    k = ncells.bit_length()
    column: List[int] = []
    append = column.append
    for _ in range(n_ops):
        r = getrandbits(k)
        while r >= ncells:
            r = getrandbits(k)
        append(r)
    return column


def zipf_column(
    rng, n_ops: int, cdf: Sequence[float], total_w: float
) -> List[int]:
    """Lower one task of the Zipf hotspot into a cell-index column.

    Mirrors ``run_atomic_mix``'s Zipf per-task draw (``zipf_exponent``
    set): one ``rng.random()`` draw + bisect over the truncated-Zipf CDF
    per op, in op order, whichever cell kind's body consumes it.
    """
    random = rng.random
    pick = bisect_left
    return [pick(cdf, random() * total_w) for _ in range(n_ops)]


def mix_column_fn(n_ops: int, ncells: int) -> Callable:
    """A ``column_fn(rng)`` closure for the uniform mix (executor input)."""
    return lambda rng: mix_column(rng, n_ops, ncells)


def zipf_column_fn(
    n_ops: int, cdf: Sequence[float], total_w: float
) -> Callable:
    """A ``column_fn(rng)`` closure for the Zipf mix (executor input)."""
    return lambda rng: zipf_column(rng, n_ops, cdf, total_w)
