"""Bucketed digests for replica synchronization.

Real Dynamo uses Merkle trees so two replicas can detect divergence with
a handful of hash comparisons instead of scanning every key. We model one
tree level: the key space is hashed into ``buckets``; each bucket's
digest covers the sibling frontier (key, clocks) of every key in it. Two
nodes exchange digests, then ship versions only for mismatched buckets —
the §7.6 conversation, at realistic message cost.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

from repro.dynamo.ring import ring_hash
from repro.dynamo.versions import Frontier
from repro.errors import SimulationError

#: One key of a store view: (key, ring position, sibling versions).
Entry = Tuple[str, int, Frontier]


def check_buckets(buckets: int) -> None:
    """Zero buckets would digest nothing and call every pair converged."""
    if buckets < 1:
        raise SimulationError(f"need at least one digest bucket, got {buckets}")


def bucket_of(key: str, buckets: int) -> int:
    """Which bucket a key's hash lands in."""
    check_buckets(buckets)
    return ring_hash(key) % buckets


def frontier_digest(store: Dict[str, Frontier], bucket: int,
                    buckets: int) -> str:
    """Digest of one bucket: hashes the sorted (key, sorted clock set)
    structure. Values ride with their clocks, so clock equality is
    version equality. The per-bucket reference :func:`entry_digests`
    is tested against."""
    entries = []
    for key in sorted(store):
        if bucket_of(key, buckets) != bucket:
            continue
        clocks = sorted(
            tuple(sorted(v.clock.counters.items())) for v in store[key]
        )
        entries.append((key, tuple(clocks)))
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    return digest


def entry_digests(entries: Iterable[Entry], buckets: int) -> List[str]:
    """Every bucket's digest, in bucket order, from one pass over a view
    whose ring positions are already known: one sort, then each entry
    goes to bucket ``position % buckets``."""
    check_buckets(buckets)
    grouped: List[list] = [[] for _ in range(buckets)]
    for key, position, versions in sorted(entries, key=itemgetter(0)):
        clocks = sorted(tuple(sorted(v.clock.counters.items())) for v in versions)
        grouped[position % buckets].append((key, tuple(clocks)))
    return [hashlib.sha256(repr(group).encode()).hexdigest() for group in grouped]


def all_digests(store: Dict[str, Frontier], buckets: int) -> List[str]:
    """Every bucket's digest, in bucket order, hashing each key once."""
    return entry_digests(
        [(key, ring_hash(key), versions) for key, versions in store.items()],
        buckets,
    )
