"""A Dynamo-style replicated blob store (§6.1's substrate).

"Dynamo always accepts a PUT to the store even if this may result in an
inconsistent GET later on." The pieces:

- :class:`VectorClock` — version vectors; concurrent versions become
  *siblings* that the application must reconcile.
- :class:`HashRing` — consistent hashing with preference lists; when
  preferred nodes are down the list extends to fallbacks (sloppy quorum).
- :class:`DynamoNode` — per-node sibling storage plus hinted handoff.
- :class:`DynamoCluster` / :class:`DynamoClient` — N/R/W coordination:
  a GET may return several sibling blobs; the next PUT must carry the
  merged context that covers them.
"""

from repro.dynamo.versions import VectorClock, VersionedValue
from repro.dynamo.ring import HashRing, MovedRange, moved_ranges
from repro.dynamo.node import DynamoNode
from repro.dynamo.cluster import DynamoCluster, DynamoClient, GetResult

__all__ = [
    "VectorClock",
    "VersionedValue",
    "HashRing",
    "MovedRange",
    "moved_ranges",
    "DynamoNode",
    "DynamoCluster",
    "DynamoClient",
    "GetResult",
]
