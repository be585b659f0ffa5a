"""Memories, guesses, and apologies (§5.6–§5.7).

"Any time an application takes an action based upon local information, it
may be wrong... When a mistake is made, you apologize." One
:class:`Ledger` per system records every guess when it is acked and
settles it once the truth is known: a right guess is confirmed, a wrong
one earns exactly one apology, keyed by its uniquifier. The apology goes
to business-specific handler code for its rule first and to a human when
no handler takes it (§5.6's two-step model).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: What a replica tells the client whose work it accepted at ingress.
ACCEPTED = "accepted"


@dataclass
class Guess:
    """One action taken on local knowledge, and what the client was told."""

    told: Any
    origin: str
    outcome: str = field(default="open", init=False)  # open | confirmed | wrong


@dataclass
class Apology:
    """One wrong guess, fully accounted: who was told what, what is now
    true, and what was done about it."""

    rule: str
    uniquifier: str
    told: Any
    actual: Any
    origin: str
    #: The handler's compensating action, or "human".
    resolution: str = field(default="pending", init=False)


#: Apology code for one rule: returns the name of the compensation it
#: executed, or None to escalate to a human (§5.7's "cases beyond its
#: design").
Handler = Callable[[Apology], Optional[str]]


class Ledger:
    """Every guess a system acked, and the apologies its wrong ones earned."""

    def __init__(self) -> None:
        self.guesses: Dict[str, Guess] = {}
        self.apologies: List[Apology] = []
        self.human: List[Apology] = []
        self._handlers: Dict[str, Handler] = {}

    def register_handler(self, rule: str, handler: Handler) -> None:
        """Install apology code for one rule."""
        self._handlers[rule] = handler

    def guess(self, uniquifier: str, told: Any, origin: str) -> None:
        """Record an acked guess; the first record of a uniquifier stands."""
        if uniquifier not in self.guesses:
            self.guesses[uniquifier] = Guess(told, origin)

    def settle(self, uniquifier: str, actual: Any, rule: str) -> Optional[Apology]:
        """Meet a guess with the truth: confirm it, or apologize under
        ``rule``. Returns the apology, or None when there is nothing (new)
        to apologize for: no such guess, a right one, or one already
        apologized for."""
        guess = self.guesses.get(uniquifier)
        if guess is None or guess.outcome == "wrong":
            return None
        if actual == guess.told:
            guess.outcome = "confirmed"
            return None
        guess.outcome = "wrong"
        apology = Apology(rule, uniquifier, guess.told, actual, guess.origin)
        self.apologies.append(apology)
        handler = self._handlers.get(rule)
        action = handler(apology) if handler is not None else None
        if action:
            apology.resolution = action
        else:
            apology.resolution = "human"
            self.human.append(apology)
        return apology

    def unpaired(self) -> List[str]:
        """Uniquifiers that break "one wrong guess, one apology": each
        wrong guess without exactly one apology, each uniquifier
        apologized for more than once, and each apology that answers no
        wrong guess."""
        wrong = {u for u, guess in self.guesses.items() if guess.outcome == "wrong"}
        emitted = Counter(apology.uniquifier for apology in self.apologies)
        broken = {u for u in wrong if emitted[u] != 1}
        broken.update(u for u, n in emitted.items() if n > 1 or u not in wrong)
        return sorted(broken)
