"""Shared configuration, addressing and region machinery."""

from repro.common.addressing import (
    LINE_BYTES,
    WORD_BYTES,
    WORDS_PER_LINE,
    base_word,
    line_of,
    offset_of,
    span_lines,
    word_in_line,
    words_of_line,
)
from repro.common.config import (
    DEFAULT_SCALE,
    DEFAULT_SYSTEM,
    PROTOCOL_ORDER,
    PROTOCOLS,
    ProtocolConfig,
    ScaleConfig,
    SystemConfig,
    corner_tiles,
    protocol,
    reshape_system,
    scaled_system,
)
from repro.common.regions import (
    FlexPattern,
    Region,
    RegionAllocator,
    RegionTable,
)

__all__ = [
    "LINE_BYTES", "WORD_BYTES", "WORDS_PER_LINE",
    "base_word", "line_of", "offset_of", "span_lines", "word_in_line",
    "words_of_line",
    "DEFAULT_SCALE", "DEFAULT_SYSTEM", "PROTOCOL_ORDER", "PROTOCOLS",
    "ProtocolConfig", "ScaleConfig", "SystemConfig", "corner_tiles",
    "protocol", "reshape_system", "scaled_system",
    "FlexPattern", "Region", "RegionAllocator", "RegionTable",
]
