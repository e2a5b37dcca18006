"""``LocalAtomicObject``: the shared-memory-only variant.

The paper's initial prototype: ignore the locality half of the wide pointer
entirely and keep a 64-bit atomic of just the virtual address.  Valid only
when every object it will ever hold lives on the *same* locale as the
atomic itself — which it enforces — in exchange for always paying CPU-atomic
prices (it "opts out" of network atomics even under ``ugni``, since no
remote agent ever touches it).

A subclass of :class:`~repro.core.atomic_object.AtomicObject` sharing its
operations (including the ``*_aba`` variants, backed by a local DCAS), so
shared-memory data structures can be written once and upgraded to
distributed operation by swapping the atomic type — mirroring how the
Chapel module pair is used.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import LocaleError
from ..memory.address import NIL, GlobalAddress, is_nil
from .atomic_object import AtomicObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.runtime import Runtime

__all__ = ["LocalAtomicObject"]


class LocalAtomicObject(AtomicObject):
    """Atomic wide-pointer cell restricted to objects on its own locale.

    An :class:`AtomicObject` in ``mode="local"``: narrow ops take the
    ``opt_out`` plan of its home (CPU-atomic prices under any network,
    never DCAS, at any locale count — a same-locale address needs no
    compression); the ``*_aba`` variants take the wide (DCAS) route,
    where ``opt_out`` is irrelevant.  Every operation is inherited; only
    construction and the same-locale check differ.
    """

    __slots__ = ()

    _MODES = ("local",)

    def __init__(
        self,
        runtime: "Runtime",
        *,
        locale: int = 0,
        initial: GlobalAddress = NIL,
        aba_protection: bool = True,
        name: str = "",
    ) -> None:
        super().__init__(
            runtime,
            locale=locale,
            initial=initial,
            aba_protection=aba_protection,
            mode="local",
            name=name,
        )

    def _validate(self, addr: GlobalAddress) -> GlobalAddress:
        addr = super()._validate(addr)
        if not is_nil(addr) and addr.locale != self.home:
            raise LocaleError(
                f"LocalAtomicObject on locale {self.home} cannot hold a"
                f" pointer to locale {addr.locale}; use AtomicObject"
            )
        return addr
