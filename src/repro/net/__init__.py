"""Simulated message fabric.

Models the unreliable component boundary the paper's systems communicate
across: links with latency distributions, message loss, duplication and
reordering, plus network partitions and transient fault overlays (when a
cut happens is for the caller to schedule; :mod:`repro.chaos.plan` does). On top of the raw
fabric, :mod:`repro.net.rpc` provides the §2.1 request/retry discipline —
requests carry uniquifiers, sources retry on timer expiry, and servers are
expected to make the work idempotent.
"""

from repro.net.message import Message
from repro.net.latency import (
    LatencyModel,
    FixedLatency,
    UniformLatency,
    ExponentialLatency,
)
from repro.net.network import Network, LinkConfig, NetFault
from repro.net.topology import (
    Site,
    SiteFault,
    Topology,
    TopologyNetwork,
    WanLink,
)
from repro.net.rpc import Endpoint, RpcClient

__all__ = [
    "Message",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "ExponentialLatency",
    "Network",
    "LinkConfig",
    "NetFault",
    "Site",
    "SiteFault",
    "Topology",
    "TopologyNetwork",
    "WanLink",
    "Endpoint",
    "RpcClient",
]
