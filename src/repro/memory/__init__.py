"""Memory-system substrate: caches, main memory, and the memory bus."""

from repro.memory.bus import BusStats, MemoryBus
from repro.memory.cache import Cache, CacheStats, Eviction
from repro.memory.dram import DRAMStats, MainMemory

__all__ = [
    "BusStats",
    "Cache",
    "CacheStats",
    "DRAMStats",
    "Eviction",
    "MainMemory",
    "MemoryBus",
]
