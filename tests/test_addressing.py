"""Unit tests for word/line address arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.common import addressing as A


class TestLineMath:
    def test_words_per_line(self):
        assert A.WORDS_PER_LINE == 16
        assert A.LINE_BYTES == 64
        assert A.WORD_BYTES == 4

    def test_line_of_first_line(self):
        for word in range(16):
            assert A.line_of(word) == 0

    def test_line_of_second_line(self):
        assert A.line_of(16) == 1
        assert A.line_of(31) == 1
        assert A.line_of(32) == 2

    def test_offset_of(self):
        assert A.offset_of(0) == 0
        assert A.offset_of(15) == 15
        assert A.offset_of(16) == 0
        assert A.offset_of(100) == 100 % 16

    def test_base_word(self):
        assert A.base_word(0) == 0
        assert A.base_word(3) == 48

    def test_word_in_line(self):
        assert A.word_in_line(2, 5) == 37

    def test_word_in_line_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            A.word_in_line(0, 16)
        with pytest.raises(ValueError):
            A.word_in_line(0, -1)

    def test_words_of_line(self):
        assert list(A.words_of_line(1)) == list(range(16, 32))


class TestSpanAndAlign:
    def test_span_single_line(self):
        assert A.span_lines(0, 16) == [0]

    def test_span_crossing(self):
        assert A.span_lines(10, 10) == [0, 1]

    def test_span_empty(self):
        assert A.span_lines(5, 0) == []

    def test_span_three_lines(self):
        assert A.span_lines(15, 18) == [0, 1, 2]

    def test_align_up_already_aligned(self):
        assert A.align_up_words(32, 16) == 32

    def test_align_up(self):
        assert A.align_up_words(33, 16) == 48

    def test_align_up_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            A.align_up_words(10, 0)


class TestAddressingProperties:
    @given(st.integers(min_value=0, max_value=2**40))
    def test_line_offset_roundtrip(self, word):
        assert A.base_word(A.line_of(word)) + A.offset_of(word) == word

    @given(st.integers(min_value=0, max_value=2**36))
    def test_words_of_line_contains_base(self, line):
        words = list(A.words_of_line(line))
        assert len(words) == 16
        assert all(A.line_of(w) == line for w in words)

    @given(st.integers(min_value=0, max_value=2**30),
           st.integers(min_value=1, max_value=1000))
    def test_span_lines_covers_all_words(self, start, count):
        span = A.span_lines(start, count)
        assert span[0] == A.line_of(start)
        assert span[-1] == A.line_of(start + count - 1)
        assert span == sorted(set(span))

    @given(st.integers(min_value=0, max_value=2**30),
           st.integers(min_value=1, max_value=256))
    def test_align_up_is_aligned_and_minimal(self, addr, alignment):
        aligned = A.align_up_words(addr, alignment)
        assert aligned % alignment == 0
        assert aligned >= addr
        assert aligned - addr < alignment
