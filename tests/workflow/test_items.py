"""Work items: derived identities, resubmission semantics."""

import pytest

from repro.errors import SimulationError
from repro.workflow import WorkItem, derive_child_uniquifier


def test_uniquifier_required():
    with pytest.raises(SimulationError):
        WorkItem(uniquifier="", stage="order")


def test_child_identity_is_functionally_dependent():
    po = WorkItem(uniquifier="po-7", stage="order", payload={"sku": "book"})
    ship_a = po.child("ship")
    ship_b = po.child("ship")
    assert ship_a.uniquifier == ship_b.uniquifier == "po-7/ship#0"
    assert ship_a.parent == "po-7"


def test_derive_is_pure():
    assert derive_child_uniquifier("x", "s") == derive_child_uniquifier("x", "s")


def test_child_payload_defaults_to_parent():
    po = WorkItem(uniquifier="po-7", stage="order", payload={"sku": "book"})
    assert po.child("ship").payload == {"sku": "book"}


def test_resubmission_is_the_same_item():
    po = WorkItem(uniquifier="po-7", stage="order")
    assert po.resubmission() == po
