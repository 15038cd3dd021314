"""Microbenchmarks of the simulator substrates (pytest-benchmark).

These time the hot building blocks — mesh routing, DRAM scheduling,
Bloom filters, cache arrays, waste profiling — so performance
regressions in the simulator itself are visible.
"""

import random

from repro.bloom.filters import H3Hash, L1FilterShadow, SliceFilterBank
from repro.cache.sa_cache import SetAssocCache
from repro.common.config import SystemConfig
from repro.dram.model import DramChannel
from repro.engine.events import EventQueue
from repro.network.mesh import Mesh
from repro.network.traffic import DEST_L1, LD, TrafficLedger
from repro.waste.profiler import CacheLevelProfiler, MemoryProfiler

CFG = SystemConfig()


def test_mesh_latency(benchmark):
    mesh = Mesh(CFG)
    pairs = [(i % 16, (i * 7 + 3) % 16) for i in range(256)]

    def run():
        total = 0
        for src, dst in pairs:
            total += mesh.latency(src, dst, 5, now=0)
        return total

    assert benchmark(run) > 0


def test_dram_channel_throughput(benchmark):
    def run():
        queue = EventQueue()
        dram = DramChannel(CFG, queue)
        done = []
        for i in range(200):
            dram.read(i * 3, done.append)
        queue.run()
        return len(done)

    assert benchmark(run) == 200


def test_bloom_filter_bank(benchmark):
    bank = SliceFilterBank(32, 512, 1, seed=1)
    lines = [i * 13 for i in range(500)]

    def run():
        for line in lines:
            bank.insert(line)
        hits = sum(1 for line in lines if bank.may_contain(line))
        for line in lines:
            bank.remove(line)
        return hits

    assert benchmark(run) == 500


def test_bloom_construction(benchmark):
    """One DBypFull machine's Bloom state: a bank per slice and a shadow
    per L1, the shadows reusing the banks' hashes."""
    def run():
        banks = [SliceFilterBank(CFG.bloom_filters_per_slice,
                                 CFG.bloom_entries, CFG.bloom_hashes,
                                 seed=tile + 1)
                 for tile in range(CFG.num_tiles)]
        shadows = [L1FilterShadow(banks) for _ in range(CFG.num_tiles)]
        return len(banks) + len(shadows)

    assert benchmark(run) == 2 * CFG.num_tiles


def test_cache_allocate_lookup(benchmark):
    rng = random.Random(1)
    addrs = [rng.randrange(4096) for _ in range(2000)]

    def run():
        cache = SetAssocCache(64, 8)
        hits = 0
        for addr in addrs:
            if cache.lookup(addr) is not None:
                hits += 1
            else:
                cache.allocate(addr)
        return hits

    assert benchmark(run) > 0


def test_profiler_churn(benchmark):
    def run():
        prof = CacheLevelProfiler("L1")
        for word in range(2000):
            prof.on_arrival(0, word, already_present=False)
            if word % 3 == 0:
                prof.on_use(0, word)
            elif word % 3 == 1:
                prof.on_evict(0, word)
        prof.finalize()
        return prof.total_words()

    assert benchmark(run) == 2000


def test_traffic_ledger_data_words(benchmark):
    def run():
        prof = MemoryProfiler()
        ledger = TrafficLedger(verdicts=prof.pools.mem_cat)
        for i in range(200):
            handles = [prof.fetch(i * 16 + w, False) for w in range(16)]
            ledger.add_data_words(LD, DEST_L1, hops=3, handles=handles)
        prof.finalize()
        ledger.finalize()
        return ledger.total()

    assert benchmark(run) > 0
