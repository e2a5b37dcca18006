"""Privatization: record-wrapped handles that resolve locally for free.

Chapel's "privatized" objects keep one instance per locale and forward all
accesses to the local one; the *record-wrapped* handle carries just the
privatization id **by value**, so acquiring the local instance requires no
communication at all — not even the metadata round trip a by-reference
handle would pay.  The paper credits this pattern (also the backbone of
Chapel arrays/domains and of CAL/CGL/CHGL/RCUArray) with making distributed
objects "no longer communication bound".

:class:`PrivatizedObject` packages the pattern: subclasses build one
instance per locale, register them, and call
:meth:`get_privatized_instance` on every operation.  The privatization
ablation benchmark compares this against a deliberately naive
:class:`UnprivatizedProxy` whose every resolution costs a GET from the
owner locale.

Locality-aware placement
------------------------
Under a multi-level topology (:mod:`repro.comm.topology`), one instance
*per locale* can be overkill: locales in one CPU-coherence domain (a
socket of the hierarchical topology) reach each other's memory at local
prices, so one instance per *domain* gives the same zero-communication
resolution with fewer replicas — NUMA-aware privatization.
:func:`coherence_domains` exposes the domain map and
:func:`replicate_coherent` builds a per-locale instance list that shares
one instance across each domain; the result plugs straight into
:class:`PrivatizedObject` (which neither knows nor cares that some
entries alias).  The :class:`UnprivatizedProxy` baseline is topology-
aware automatically: its metadata GET is charged through the network
model, so a same-socket owner costs a local load while a cross-node
owner pays the uplink.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = [
    "PrivatizedObject",
    "UnprivatizedProxy",
    "coherence_domains",
    "replicate_coherent",
]


def coherence_domains(runtime: "Runtime") -> List[int]:
    """CPU-coherence domain id of every locale, in locale order.

    Locales sharing a domain reach each other at ``"coherent"`` distance
    (CPU prices, no serial network resource).  Flat and dragonfly
    topologies have one domain per locale; the hierarchical topology
    groups each socket into one domain.
    """
    topo = runtime.network.topology
    return [topo.coherence_domain(lid) for lid in range(runtime.num_locales)]


def replicate_coherent(
    runtime: "Runtime", factory: Callable[[int], Any]
) -> List[Any]:
    """One instance per coherence domain, replicated across its locales.

    ``factory(locale_id)`` is invoked once per domain with the domain's
    *first* locale (deterministic: smallest id); every other locale in
    the domain receives the same instance.  The returned list has exactly
    ``num_locales`` entries and is suitable for
    :meth:`Runtime.register_privatized` / :class:`PrivatizedObject`.
    """
    instances: List[Any] = []
    by_domain: Dict[int, Any] = {}
    for lid, domain in enumerate(coherence_domains(runtime)):
        if domain not in by_domain:
            by_domain[domain] = factory(lid)
        instances.append(by_domain[domain])
    return instances


class PrivatizedObject:
    """Base class for objects with one privatized instance per locale."""

    def __init__(self, runtime: "Runtime", instances: Sequence[Any]) -> None:
        self._rt = runtime
        #: The record-wrapped id; the only state a handle needs.
        self._pid = runtime.register_privatized(instances)

    def get_privatized_instance(self, locale_id: "int | None" = None) -> Any:
        """Resolve the instance local to the calling task (zero cost).

        This is the zero-communication fast path; it is called on *every*
        operation, which is exactly why it must not touch the network.
        """
        return self._rt.privatized_instance(self._pid, locale_id)

    def _instances(self) -> List[Any]:
        """Every locale's instance, in locale order (zero cost)."""
        return self._rt._privatized[self._pid]

    def _drop_instances(self) -> None:
        """Release the per-locale instances (called by ``destroy()``)."""
        self._rt.drop_privatized(self._pid)


class UnprivatizedProxy:
    """A deliberately naive handle that pays communication per resolution.

    Models what the paper's Section II-C says happens *without*
    record-wrapping/privatization: every access first fetches the object's
    metadata from its owner locale, locale 0 (one GET), making the
    object communication-bound.  Exists purely as the baseline for the
    privatization ablation.
    """

    def __init__(self, runtime: "Runtime", instances: Sequence[Any]) -> None:
        self._rt = runtime
        self._instances: List[Any] = list(instances)

    def get_privatized_instance(self, locale_id: "int | None" = None) -> Any:
        """Resolve the per-locale instance *after* a metadata round trip."""
        ctx = self._rt._ctx
        if ctx is not None:
            # The metadata fetch a by-reference handle performs.
            self._rt.network.read(ctx, 0, nbytes=32)
            lid = locale_id if locale_id is not None else ctx.locale_id
        else:
            lid = locale_id if locale_id is not None else 0
        return self._instances[lid]
