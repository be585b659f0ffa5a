"""Stateful hypothesis: one node's MembershipView against a dict model.

The model is a plain ``name -> (status, incarnation)`` dict that applies
the precedence rule written out again here: a higher incarnation wins,
and at equal incarnation the graver status does (dead > suspect >
alive). On top of it sit the view's own behaviours: the owner refutes
any accusation by bumping its incarnation past it; ``suspect`` and
``clear_suspicion`` are rumors the view makes up itself; and a
suspicion that nothing moves for ``suspicion_timeout`` becomes death at
the same incarnation. Rumors arrive one at a time (``apply``) or in wire
batches (``merge_wire``), in any order, while time passes in steps that
land before, on and after the suspicion deadlines.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster.gossip_membership import ALIVE, DEAD, SUSPECT, MembershipView
from repro.sim.scheduler import Simulator

OWNER = "n0"
NAMES = [OWNER, "n1", "n2", "n3"]
RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}
TIMEOUT = 1.0
RUMORS = st.tuples(
    st.sampled_from(NAMES), st.sampled_from(sorted(RANK)),
    st.integers(min_value=0, max_value=3),
)


class MembershipViewMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=0)
        self.view = MembershipView(OWNER, self.sim, suspicion_timeout=TIMEOUT)
        self.model = {OWNER: (ALIVE, 0)}
        self.suspected_since = {}  # name -> when its suspicion last began
        self.refutations = 0

    # -- the model ------------------------------------------------------

    def _set(self, name, status, incarnation):
        self.model[name] = (status, incarnation)
        if status == SUSPECT:
            self.suspected_since[name] = self.sim.now
        else:
            self.suspected_since.pop(name, None)

    def _apply(self, name, status, incarnation):
        held = self.model.get(name)
        wins = held is None or (
            (incarnation, RANK[status]) > (held[1], RANK[held[0]])
        )
        if name == OWNER and status != ALIVE:
            if not wins:
                return False
            self.refutations += 1
            self._set(OWNER, ALIVE, max(held[1], incarnation) + 1)
            return True
        if not wins:
            return False
        self._set(name, status, incarnation)
        return True

    # -- rules ----------------------------------------------------------

    @rule(rumor=RUMORS)
    def apply(self, rumor):
        assert self.view.apply(*rumor) == self._apply(*rumor)

    @rule(batch=st.lists(RUMORS, max_size=4))
    def merge_wire(self, batch):
        changed = sum(self._apply(*rumor) for rumor in batch)
        assert self.view.merge_wire([list(rumor) for rumor in batch]) == changed

    @rule(name=st.sampled_from(NAMES))
    def suspect(self, name):
        if name == OWNER:
            expected = False
        else:
            incarnation = self.model.get(name, (ALIVE, 0))[1]
            expected = self._apply(name, SUSPECT, incarnation)
        assert self.view.suspect(name) == expected

    @rule(name=st.sampled_from(NAMES))
    def clear_suspicion(self, name):
        held = self.model.get(name)
        if held is None or held[0] == ALIVE:
            expected = False
        else:
            expected = self._apply(name, ALIVE, held[1] + 1)
        assert self.view.clear_suspicion(name) == expected

    @rule(step=st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    def time_passes(self, step):
        until = self.sim.now + step
        self.sim.run(until=until)
        for name, since in sorted(self.suspected_since.items()):
            if since + TIMEOUT <= until:
                self._set(name, DEAD, self.model[name][1])

    # -- the check ------------------------------------------------------

    @invariant()
    def view_matches_model(self):
        assert self.view.entries() == self.model
        assert self.view.refutations == self.refutations
        assert sorted(self.view.usable_names()) == sorted(
            name for name, (status, _) in self.model.items() if status != DEAD
        )


TestMembershipViewMachine = MembershipViewMachine.TestCase
TestMembershipViewMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
