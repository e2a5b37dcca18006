"""Unit tests for addresses, pointer compression, and the simulated heap."""

from __future__ import annotations

import pytest

from repro.errors import (
    CompressionError,
    DoubleFreeError,
    HeapExhaustedError,
    InvalidAddressError,
    TooManyLocalesError,
    UseAfterFreeError,
)
from repro.memory import (
    ADDRESS_MASK,
    COMPRESSED_NIL,
    MAX_COMPRESSIBLE_LOCALES,
    NIL,
    GlobalAddress,
    Heap,
    compress,
    compressible,
    decompress,
    is_nil,
)


class TestGlobalAddress:
    def test_nil_identity(self):
        assert NIL.is_nil
        assert is_nil(NIL)
        assert is_nil(None)

    def test_non_nil(self):
        a = GlobalAddress(2, 0x1000)
        assert not a.is_nil
        assert not is_nil(a)

    def test_value_semantics(self):
        assert GlobalAddress(1, 2) == GlobalAddress(1, 2)
        assert hash(GlobalAddress(1, 2)) == hash(GlobalAddress(1, 2))
        assert GlobalAddress(1, 2) != GlobalAddress(2, 2)

    def test_usable_in_sets(self):
        s = {GlobalAddress(0, 16), GlobalAddress(0, 16), GlobalAddress(1, 16)}
        assert len(s) == 2

    def test_repr_marks_nil(self):
        assert "nil" in repr(NIL)


class TestCompression:
    def test_nil_compresses_to_zero(self):
        assert compress(NIL) == COMPRESSED_NIL
        assert decompress(COMPRESSED_NIL) == NIL

    def test_roundtrip_simple(self):
        a = GlobalAddress(3, 0x1000)
        assert decompress(compress(a)) == a

    def test_roundtrip_extremes(self):
        hi = GlobalAddress(MAX_COMPRESSIBLE_LOCALES - 1, ADDRESS_MASK)
        assert decompress(compress(hi)) == hi

    def test_locale_bits_live_in_the_top_16(self):
        word = compress(GlobalAddress(5, 0x1000))
        assert word >> 48 == 5
        assert word & ADDRESS_MASK == 0x1000

    def test_too_many_locales_raises(self):
        with pytest.raises(TooManyLocalesError):
            compress(GlobalAddress(MAX_COMPRESSIBLE_LOCALES, 0x1000))

    def test_offset_over_48_bits_raises(self):
        with pytest.raises(CompressionError):
            compress(GlobalAddress(0, ADDRESS_MASK + 1))

    def test_decompress_rejects_oversized_words(self):
        with pytest.raises(CompressionError):
            decompress(1 << 64)

    def test_compressible_predicate(self):
        assert compressible(GlobalAddress(0, 0x10))
        assert not compressible(GlobalAddress(MAX_COMPRESSIBLE_LOCALES, 0x10))


class TestHeap:
    def test_alloc_returns_address_on_owning_locale(self):
        h = Heap(3)
        a = h.alloc("x")
        assert a.locale == 3
        assert a.offset >= 0x1000

    def test_offsets_are_aligned(self):
        h = Heap(0, alignment=16)
        for _ in range(10):
            assert h.alloc("x").offset % 16 == 0

    def test_load_returns_payload(self):
        h = Heap(0)
        a = h.alloc({"k": 1})
        assert h.load(a.offset) == {"k": 1}

    def test_store_replaces_payload(self):
        h = Heap(0)
        a = h.alloc("old")
        h.store(a.offset, "new")
        assert h.load(a.offset) == "new"

    def test_offset_zero_is_never_allocated(self):
        h = Heap(0)
        for _ in range(100):
            assert h.alloc("x").offset != 0

    def test_use_after_free_raises(self):
        h = Heap(0)
        a = h.alloc("x")
        h.free(a.offset)
        with pytest.raises(UseAfterFreeError):
            h.load(a.offset)

    def test_store_after_free_raises(self):
        h = Heap(0)
        a = h.alloc("x")
        h.free(a.offset)
        with pytest.raises(UseAfterFreeError):
            h.store(a.offset, "y")

    def test_double_free_raises(self):
        h = Heap(0)
        a = h.alloc("x")
        h.free(a.offset)
        with pytest.raises(DoubleFreeError):
            h.free(a.offset)

    def test_free_of_never_allocated_raises(self):
        h = Heap(0)
        with pytest.raises(InvalidAddressError):
            h.free(0xDEAD0)

    def test_load_of_never_allocated_raises(self):
        h = Heap(0)
        with pytest.raises(InvalidAddressError):
            h.load(0xDEAD0)

    def test_lifo_reuse_recycles_most_recent_free(self):
        """The allocator behaviour that makes ABA real."""
        h = Heap(0)
        a = h.alloc("a")
        b = h.alloc("b")
        h.free(a.offset)
        h.free(b.offset)
        c = h.alloc("c")
        assert c.offset == b.offset  # LIFO: b's address first
        d = h.alloc("d")
        assert d.offset == a.offset

    def test_generation_counts_recycles(self):
        h = Heap(0)
        a = h.alloc("a")
        assert h.generation(a.offset) == 0
        h.free(a.offset)
        b = h.alloc("b")
        assert b.offset == a.offset
        assert h.generation(a.offset) == 1

    def test_generation_of_unknown_address_raises(self):
        with pytest.raises(InvalidAddressError):
            Heap(0).generation(0x4000)

    def test_is_live(self):
        h = Heap(0)
        a = h.alloc("x")
        assert h.is_live(a.offset)
        h.free(a.offset)
        assert not h.is_live(a.offset)
        assert not h.is_live(0xBEEF0)

    def test_free_bulk_counts(self):
        h = Heap(0)
        addrs = [h.alloc(i) for i in range(5)]
        assert h.free_bulk([a.offset for a in addrs]) == 5
        assert h.live_count == 0

    def test_free_bulk_stops_at_first_double_free(self):
        h = Heap(0)
        a, b, c, d, e = (h.alloc(i).offset for i in range(5))
        h.free(c)
        with pytest.raises(DoubleFreeError):
            h.free_bulk([a, b, c, d, e])
        assert [h.is_live(o) for o in (a, b, c, d, e)] == [False, False, False, True, True]
        s = h.snapshot_stats()
        assert (s.allocations, s.frees, s.live) == (5, 3, 2)
        assert h.live_count == 2
        assert h.alloc("z").offset == b  # the batch's frees went on the list in order

    def test_free_bulk_duplicate_offset_raises(self):
        h = Heap(0)
        a, b = h.alloc("a").offset, h.alloc("b").offset
        with pytest.raises(DoubleFreeError):
            h.free_bulk([a, b, a])
        s = h.snapshot_stats()
        assert (s.frees, s.live) == (2, 0)

    @pytest.mark.parametrize("kind", ["misaligned", "below_base", "at_next", "past_next"])
    def test_never_issued_offsets_are_invalid(self, kind):
        h = Heap(0)
        first = h.alloc("a").offset
        h.free(h.alloc("b").offset)
        offset = {
            "misaligned": first + 8,
            "below_base": first - 16,
            "at_next": first + 32,
            "past_next": first + 100 * 16,
        }[kind]
        for access in (h.load, h.free, h.generation, lambda o: h.store(o, "x")):
            with pytest.raises(InvalidAddressError):
                access(offset)
        assert not h.is_live(offset)

    def test_peak_live_over_alloc_free_and_bulk_free(self):
        h = Heap(0)
        addrs = [h.alloc(i).offset for i in range(3)]
        assert h.stats.peak_live == 3
        h.free(addrs.pop())
        assert (h.stats.live, h.stats.peak_live) == (2, 3)
        addrs += [h.alloc(i).offset for i in range(2)]
        assert (h.stats.live, h.stats.peak_live) == (4, 4)
        h.free_bulk(addrs[:3])
        assert (h.stats.live, h.stats.peak_live) == (1, 4)
        for i in range(4):
            h.alloc(i)
        assert (h.stats.live, h.stats.peak_live) == (5, 5)

    def test_alloc_many_matches_single_allocs(self):
        h = Heap(2)
        a, b, c = (h.alloc(i) for i in range(3))
        h.free(a.offset)
        h.free(c.offset)
        batch = h.alloc_many(3)
        assert batch[:2] == [c, a]  # LIFO reuse first, then fresh
        assert batch[2] == GlobalAddress(2, c.offset + 16)
        assert len({id(h.load(x.offset)) for x in batch}) == 3
        assert h.alloc_many(0) == []
        with pytest.raises(ValueError):
            h.alloc_many(-1)

    def test_alloc_many_exhaustion_allocates_nothing(self):
        h = Heap(0, base=ADDRESS_MASK - 64)  # room for three fresh slots
        with pytest.raises(HeapExhaustedError):
            h.alloc_many(4)
        assert h.stats.allocations == 0
        assert len(h.alloc_many(3)) == 3
        with pytest.raises(HeapExhaustedError):
            h.alloc("x")

    def test_stats_track_history(self):
        h = Heap(0)
        a = h.alloc("a")
        h.alloc("b")
        h.free(a.offset)
        h.alloc("c")  # reuses a's slot
        s = h.snapshot_stats()
        assert s.allocations == 3
        assert s.frees == 1
        assert s.reuses == 1
        assert s.live == 2
        assert s.peak_live == 2

    def test_payload_reference_dropped_on_free(self):
        """Freeing must not keep the payload alive (simulated destruction)."""
        import weakref

        class Obj:
            pass

        h = Heap(0)
        o = Obj()
        ref = weakref.ref(o)
        a = h.alloc(o)
        h.free(a.offset)
        del o
        assert ref() is None

    def test_base_must_be_positive(self):
        with pytest.raises(ValueError):
            Heap(0, base=0)

    def test_alignment_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Heap(0, alignment=3)
