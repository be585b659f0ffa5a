"""Workload generation for the experiment suite."""

from repro.workload.generators import (
    CheckStream,
    CartSessionPlan,
    random_cart_sessions,
)
from repro.workload.zipf import ZipfKeyGenerator, zipf_open_loop

__all__ = [
    "CheckStream",
    "CartSessionPlan",
    "random_cart_sessions",
    "ZipfKeyGenerator",
    "zipf_open_loop",
]
