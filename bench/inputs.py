"""Every workload's op script, generated from ``--seed`` during set-up.

The program under test receives only what these functions return: plain
data (ints, strings, lists, dicts). Same seed and scale ⇒ same bytes.
Sizes at ``scale=1.0`` are chosen so one timed lap takes about two and a
half seconds on the 2-core reference box (see README, "Sizes").

``DEFAULT_SEED`` is the seed everything was developed against;
``HELD_OUT_SEED`` was first run after the code was frozen. Both pass every
output check.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Any, Dict

DEFAULT_SEED = 20090104  # CIDR 2009 opened on 4 January
HELD_OUT_SEED = 777


def derive(seed: int, label: str) -> int:
    """An independent 63-bit seed for one named stream of one workload."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _count(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(base * scale)))


# ----------------------------------------------------------------------

RPC_CLIENTS = 4
RPC_CALLS_PER_PHASE = 40_000


def rpc_ladder(seed: int, scale: float) -> Dict[str, Any]:
    """Two phases of closed-loop pings; the script is each client's
    sequence of payload numbers (the server must echo them back)."""
    per_client = _count(RPC_CALLS_PER_PHASE // RPC_CLIENTS, scale)
    rng = random.Random(derive(seed, "rpc_ladder.payloads"))
    return {
        "sim_seed": derive(seed, "rpc_ladder.sim"),
        "loss_probability": 0.01,
        "plain": [[rng.getrandbits(30) for _ in range(per_client)]
                  for _ in range(RPC_CLIENTS)],
        "resilient": [[rng.getrandbits(30) for _ in range(per_client)]
                      for _ in range(RPC_CLIENTS)],
    }


# ----------------------------------------------------------------------

ZIPF_REQUESTS = 17_000
ZIPF_PRELOAD_RANKS = 20_000
ZIPF_READBACK_SAMPLE = 200


def zipf_ring_read(seed: int, scale: float) -> Dict[str, Any]:
    """Open-loop zipf traffic. Keys are drawn *inside* the program by
    ``repro.workload`` (that layer is under test), so the script is the
    stream seeds, the rates, and which ranks to preload and read back."""
    preload = _count(ZIPF_PRELOAD_RANKS, scale, floor=50)
    rng = random.Random(derive(seed, "zipf_ring_read.readback"))
    return {
        "sim_seed": derive(seed, "zipf_ring_read.sim"),
        "keys_seed": derive(seed, "zipf_ring_read.keys"),
        "requests": _count(ZIPF_REQUESTS, scale, floor=50),
        "rate": 400.0,
        "get_fraction": 0.95,
        # The keyspace is NOT scaled: the million-entry CDF is the set-up
        # cost and the heap peak this workload exists to expose.
        "keyspace": 1_000_000,
        "theta": 0.99,
        "preload_ranks": preload,
        "readback_ranks": sorted(
            rng.sample(range(preload), min(ZIPF_READBACK_SAMPLE, preload))
        ),
    }


# ----------------------------------------------------------------------

CART_OPS = 7_000
CART_SHOPPERS = 4
CART_CARTS = 2_000
CART_ITEMS = 64
CART_THINK_S = 0.010
#: Simulated seconds one closed-loop op takes: think time plus a quorum
#: GET and a quorum PUT at 1 ms per hop. Only used to place the scripted
#: faults at the same *relative* point of the run at every scale.
_CART_OP_SIM_S = 0.0142


def cart_write_churn(seed: int, scale: float) -> Dict[str, Any]:
    per_shopper = _count(CART_OPS // CART_SHOPPERS, scale, floor=10)
    carts = _count(CART_CARTS, scale, floor=20)
    rng = random.Random(derive(seed, "cart_write_churn.ops"))
    cum_weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** 0.99 for rank in range(carts)
    ))
    kinds = rng.choices(("add", "delete", "view"), weights=(60, 15, 25),
                        k=per_shopper * CART_SHOPPERS)
    picks = rng.choices(range(carts), cum_weights=cum_weights,
                        k=per_shopper * CART_SHOPPERS)
    ops = [
        [kind, f"cart{cart}", f"item{rng.randrange(CART_ITEMS)}"]
        for kind, cart in zip(kinds, picks)
    ]
    horizon = per_shopper * _CART_OP_SIM_S

    def at(fraction: float) -> float:
        # Jittered so the fault does not always land on the same op.
        return round(horizon * (fraction + rng.uniform(-0.02, 0.02)), 6)

    victim = f"node{rng.randrange(6)}"
    leaver = rng.choice([f"node{i}" for i in range(6) if f"node{i}" != victim])
    return {
        "sim_seed": derive(seed, "cart_write_churn.sim"),
        "nodes": 6,
        "think_s": CART_THINK_S,
        "shoppers": [ops[i::CART_SHOPPERS] for i in range(CART_SHOPPERS)],
        "carts": [f"cart{i}" for i in range(carts)],
        # Operator script: [simulated time, action, node], in time order.
        "faults": [
            [at(0.15), "crash", victim],
            [at(0.30), "restart", victim],
            [at(0.45), "join", "node6"],
            [at(0.70), "decommission", leaver],
        ],
        "repair_every_s": max(0.5, min(5.0, horizon / 7.0)),
    }


# ----------------------------------------------------------------------

CHAOS_SEEDS = 3


def chaos_smoke(seed: int, scale: float) -> Dict[str, Any]:
    """Consecutive chaos seeds starting at ``--seed`` (folded into the
    range the chaos plans were developed for)."""
    base = seed % 10_000
    return {"seeds": list(range(base, base + _count(CHAOS_SEEDS, scale)))}


GENERATORS = {
    "rpc_ladder": rpc_ladder,
    "zipf_ring_read": zipf_ring_read,
    "cart_write_churn": cart_write_churn,
    "chaos_smoke": chaos_smoke,
}


def generate(workload: str, seed: int, scale: float = 1.0) -> Dict[str, Any]:
    return GENERATORS[workload](seed, scale)


def fingerprint(inputs: Dict[str, Any]) -> str:
    """sha256 of the generated inputs — the 'same seed, same inputs' proof."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]

