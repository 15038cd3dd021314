"""Unit tests for the software region model."""

import pytest
from hypothesis import given, strategies as st

from repro.common.regions import (
    FlexPattern, Region, RegionAllocator, RegionTable)


class TestFlexPattern:
    def test_basic(self):
        p = FlexPattern(stride_words=8, field_offsets=(0, 1, 4))
        assert p.element_index(0) == 0
        assert p.element_index(7) == 0
        assert p.element_index(8) == 1

    def test_words_for_element(self):
        p = FlexPattern(stride_words=8, field_offsets=(0, 4))
        assert p.words_for_element(100, 0) == [100, 104]
        assert p.words_for_element(100, 2) == [116, 120]

    def test_rejects_out_of_stride_offsets(self):
        with pytest.raises(ValueError):
            FlexPattern(stride_words=4, field_offsets=(4,))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FlexPattern(stride_words=4, field_offsets=(1, 1))

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            FlexPattern(stride_words=0, field_offsets=())


class TestRegion:
    def test_contains(self):
        r = Region(0, "r", base_word=64, size_words=32)
        assert r.contains(64) and r.contains(95)
        assert not r.contains(63) and not r.contains(96)

    def test_flex_words_single_element(self):
        flex = FlexPattern(stride_words=8, field_offsets=(0, 3))
        r = Region(0, "r", base_word=0, size_words=64, flex=flex)
        assert r.flex_words(1, max_words=16) == [0, 3]
        assert r.flex_words(9, max_words=16) == [8, 11]

    def test_flex_words_with_prefetch(self):
        flex = FlexPattern(stride_words=4, field_offsets=(0, 1),
                           prefetch_elements=2)
        r = Region(0, "r", base_word=0, size_words=64, flex=flex)
        assert r.flex_words(0, max_words=16) == [0, 1, 4, 5, 8, 9]

    def test_flex_words_truncates_to_packet(self):
        flex = FlexPattern(stride_words=4, field_offsets=(0, 1),
                           prefetch_elements=20)
        r = Region(0, "r", base_word=0, size_words=256, flex=flex)
        assert len(r.flex_words(0, max_words=16)) == 16

    def test_flex_words_clips_to_region_end(self):
        flex = FlexPattern(stride_words=4, field_offsets=(0, 1),
                           prefetch_elements=5)
        r = Region(0, "r", base_word=0, size_words=8, flex=flex)
        assert r.flex_words(4, max_words=16) == [4, 5]

    def test_flex_words_requires_pattern(self):
        r = Region(0, "r", base_word=0, size_words=8)
        with pytest.raises(ValueError):
            r.flex_words(0, 16)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Region(0, "r", base_word=0, size_words=0)


class TestRegionTable:
    def test_find(self):
        t = RegionTable([
            Region(0, "a", 0, 64),
            Region(1, "b", 64, 64),
            Region(2, "c", 256, 64),
        ])
        assert t.find(0).name == "a"
        assert t.find(63).name == "a"
        assert t.find(64).name == "b"
        assert t.find(200) is None
        assert t.find(300).name == "c"

    def test_rejects_overlap(self):
        t = RegionTable([Region(0, "a", 0, 64)])
        with pytest.raises(ValueError):
            t.add(Region(1, "b", 32, 64))

    def test_rejects_duplicate_id(self):
        t = RegionTable([Region(0, "a", 0, 64)])
        with pytest.raises(ValueError):
            t.add(Region(0, "b", 128, 64))

    def test_should_bypass(self):
        t = RegionTable([Region(0, "a", 0, 64, bypass_l2=True),
                         Region(1, "b", 64, 64)])
        assert t.should_bypass(10)
        assert not t.should_bypass(70)
        assert not t.should_bypass(1000)

    def test_update_annotations(self):
        t = RegionTable([Region(0, "a", 0, 64)])
        t.update(0, bypass_l2=True)
        assert t.get(0).bypass_l2
        assert t.find(10).bypass_l2
        flex = FlexPattern(4, (0,))
        t.update(0, flex=flex)
        assert t.get(0).flex is flex
        assert t.get(0).bypass_l2   # earlier update preserved

    def test_clone_isolates_updates(self):
        t = RegionTable([Region(0, "a", 0, 64)])
        c = t.clone()
        c.update(0, bypass_l2=True)
        assert not t.get(0).bypass_l2
        assert c.get(0).bypass_l2

    def test_annotation_lookups_follow_updates_and_clones(self):
        """The table's count of annotated regions, which lets a lookup
        on a table without the annotation return at once, follows every
        update, and a clone keeps it."""
        t = RegionTable([Region(0, "a", 0, 64), Region(1, "b", 64, 64)])
        flex = FlexPattern(4, (0,))
        assert t.flex_region_for(70) is None and not t.should_bypass(70)
        t.update(1, flex=flex, bypass_l2=True)
        assert t.flex_region_for(70) is t.get(1)
        assert t.should_bypass(70) and not t.should_bypass(10)
        c = t.clone()
        t.update(1, flex=None, bypass_l2=False)
        assert t.flex_region_for(70) is None and not t.should_bypass(70)
        assert c.flex_region_for(70) is c.get(1) and c.should_bypass(70)
        c.update(0, bypass_l2=True)
        c.update(1, bypass_l2=False)
        assert c.should_bypass(10) and not c.should_bypass(70)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                              st.integers(min_value=1, max_value=40)),
                    min_size=1, max_size=20),
           st.randoms(use_true_random=False),
           st.lists(st.integers(min_value=0, max_value=2000), max_size=30))
    def test_find_matches_linear_scan(self, layout, rnd, words):
        """Regions added in any order, adjacent or apart, are found at
        every boundary word and at random words exactly as a scan finds
        them; so are a clone's, after an annotation update and an added
        region that the original must not see."""
        regions, base = [], 0
        for i, (gap, size) in enumerate(layout):
            base += gap
            regions.append(Region(i, f"r{i}", base, size))
            base += size
        rnd.shuffle(regions)
        table = RegionTable(regions)
        clone = table.clone()
        clone.update(regions[0].region_id, bypass_l2=True)
        clone.add(Region(len(layout), "extra", base + 1, 8))
        probes = set(words)
        for r in clone:
            probes.update((r.base_word - 1, r.base_word,
                           r.end_word - 1, r.end_word))
        for t in (table, clone):
            for addr in probes:
                expected = next((r for r in t if r.contains(addr)), None)
                assert t.find(addr) is expected


class TestRegionAllocator:
    def test_line_alignment(self):
        alloc = RegionAllocator()
        a = alloc.alloc("a", 10)
        b = alloc.alloc("b", 10)
        assert a.base_word % 16 == 0
        assert b.base_word % 16 == 0
        assert b.base_word >= a.end_word

    def test_sequential_ids(self):
        alloc = RegionAllocator()
        assert alloc.alloc("a", 4).region_id == 0
        assert alloc.alloc("b", 4).region_id == 1

    def test_annotations_pass_through(self):
        alloc = RegionAllocator()
        flex = FlexPattern(4, (0, 1))
        r = alloc.alloc("a", 64, bypass_l2=True, flex=flex)
        assert r.bypass_l2 and r.flex is flex
