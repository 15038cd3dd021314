"""Word- and line-granular address arithmetic.

The simulator works on *word addresses* (one word = 4 bytes, matching the
paper's word-level waste accounting).  A cache line is 64 bytes, i.e. 16
words, and a mesh link (one flit) is 16 bytes, i.e. 4 words.  All helpers here are pure functions on integers so they can be used
from any subsystem without importing the configuration machinery.
"""

from __future__ import annotations

WORD_BYTES = 4
LINE_BYTES = 64
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES  # 16
LINE_SHIFT = 4  # log2(WORDS_PER_LINE)
OFFSET_MASK = WORDS_PER_LINE - 1
#: Mesh link width: one flit per cycle per link (paper Table 4.1).
LINK_BYTES = 16
WORDS_PER_FLIT = LINK_BYTES // WORD_BYTES  # 4


def line_of(word_addr: int) -> int:
    """Return the line number that contains ``word_addr``."""
    return word_addr >> LINE_SHIFT


def offset_of(word_addr: int) -> int:
    """Return the word offset of ``word_addr`` inside its line (0..15)."""
    return word_addr & OFFSET_MASK


def base_word(line_addr: int) -> int:
    """Return the first word address of line ``line_addr``."""
    return line_addr << LINE_SHIFT


def word_in_line(line_addr: int, offset: int) -> int:
    """Return the word address at ``offset`` inside line ``line_addr``."""
    if not 0 <= offset < WORDS_PER_LINE:
        raise ValueError(f"offset {offset} outside line (0..{WORDS_PER_LINE - 1})")
    return (line_addr << LINE_SHIFT) | offset


def words_of_line(line_addr: int):
    """Iterate over the 16 word addresses of line ``line_addr``."""
    base = line_addr << LINE_SHIFT
    return range(base, base + WORDS_PER_LINE)


def span_lines(word_addr: int, num_words: int):
    """Return the distinct lines touched by ``num_words`` starting at addr."""
    if num_words <= 0:
        return []
    first = line_of(word_addr)
    last = line_of(word_addr + num_words - 1)
    return list(range(first, last + 1))


def align_up_words(word_addr: int, alignment_words: int) -> int:
    """Round ``word_addr`` up to a multiple of ``alignment_words``."""
    if alignment_words <= 0:
        raise ValueError("alignment must be positive")
    rem = word_addr % alignment_words
    if rem == 0:
        return word_addr
    return word_addr + alignment_words - rem
