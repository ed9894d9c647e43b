"""Intra-phase engines: tiled GEMM/SpMM timing, traffic, and validation."""

from .gemm import GemmResult, GemmSpec, GemmTiling, simulate_gemm
from .spmm import SpmmResult, SpmmSpec, SpmmTiling, simulate_spmm
from .phasecache import PhaseEngineCache
from .stats import OPERANDS, PhaseStats, merge_counts
from .tilestats import TileStats, TileStatsRegistry

__all__ = [
    "PhaseEngineCache",
    "GemmResult",
    "GemmSpec",
    "GemmTiling",
    "simulate_gemm",
    "SpmmResult",
    "SpmmSpec",
    "SpmmTiling",
    "simulate_spmm",
    "OPERANDS",
    "PhaseStats",
    "merge_counts",
    "TileStats",
    "TileStatsRegistry",
]
