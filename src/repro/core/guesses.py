"""Memories, guesses, and apologies (§5.7).

"Any time an application takes an action based upon local information, it
may be wrong... When a mistake is made, you apologize." The ledger tracks
every guess and its eventual fate; the apology queue routes mistakes to
business-specific handler code first and to a human when no handler
matches (§5.6's two-step model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Guess:
    """One action taken on local knowledge."""

    key: str
    basis: str
    outcome: str = field(default="open", init=False)  # open | confirmed | wrong

    @property
    def settled(self) -> bool:
        return self.outcome != "open"


class GuessLedger:
    """Per-replica record of guesses and their outcomes."""

    def __init__(self) -> None:
        self._guesses: Dict[str, Guess] = {}

    def record(self, key: str, basis: str) -> Guess:
        guess = Guess(key=key, basis=basis)
        self._guesses[key] = guess
        return guess

    def confirm(self, key: str) -> None:
        if key in self._guesses:
            self._guesses[key].outcome = "confirmed"

    def refute(self, key: str) -> None:
        if key in self._guesses:
            self._guesses[key].outcome = "wrong"

    def get(self, key: str) -> Optional[Guess]:
        return self._guesses.get(key)

    def counts(self) -> Dict[str, int]:
        tally = {"open": 0, "confirmed": 0, "wrong": 0}
        for guess in self._guesses.values():
            tally[guess.outcome] += 1
        return tally

    def __len__(self) -> int:
        return len(self._guesses)


@dataclass
class Apology:
    """One detected mistake that the business must answer for."""

    rule: str
    op_uniquifier: str
    detail: str
    replica: str = ""
    time: float = 0.0
    resolution: str = field(default="pending", init=False)  # pending | automated | human

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Apology rule={self.rule} op={self.op_uniquifier} {self.resolution}>"


class ApologyQueue:
    """Routes apologies: automated handler by rule name, else a human.

    §5.6: "1. Send the problem to a human... 2. If that's too expensive,
    write some business specific software to reduce the probability that a
    human needs to be involved."
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, Callable[[Apology], bool]] = {}
        self.resolved_automated: List[Apology] = []
        self.human_queue: List[Apology] = []
        self.all: List[Apology] = []

    def register_handler(self, rule: str, handler: Callable[[Apology], bool]) -> None:
        """Install apology code for one rule. The handler returns True if
        it dealt with the mistake, False to escalate to a human anyway."""
        self._handlers[rule] = handler

    def enqueue(self, apology: Apology) -> None:
        self.all.append(apology)
        handler = self._handlers.get(apology.rule)
        if handler is not None and handler(apology):
            apology.resolution = "automated"
            self.resolved_automated.append(apology)
        else:
            apology.resolution = "human"
            self.human_queue.append(apology)

    @property
    def total(self) -> int:
        return len(self.all)

    @property
    def human_interventions(self) -> int:
        return len(self.human_queue)

    def counts(self) -> Dict[str, int]:
        return {
            "total": self.total,
            "automated": len(self.resolved_automated),
            "human": self.human_interventions,
        }
