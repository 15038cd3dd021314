"""T4.1 / T4.2 — regenerate the paper's configuration tables."""

from repro.analysis.figures import table_4_1, table_4_2
from repro.common.config import ScaleConfig, SystemConfig


def test_table_4_1():
    text = table_4_1(SystemConfig())
    assert "2GHz, in-order" in text
    assert "256KB slices (4MB total)" in text
    assert "DDR3-1066, 8 banks, 2 ranks" in text


def test_table_4_2():
    text = table_4_2(ScaleConfig.paper())
    assert "512x512 matrix, 16x16 blocks" in text
    assert "4000000 keys, 1024 radix" in text
