"""``audit()``, the call audit's verdict: one synthetic case per kind of
complaint, so the report ``python tests/golden/manifest.py`` prints on
CPython 3.12 or later is itself checked on every interpreter."""

from tests.reach.check_executed import audit

CALLED = "src/repro/a.py:called"
UNCALLED = "src/repro/a.py:uncalled"
SET = "src/repro/a.py:called(set)"
UNSET = "src/repro/a.py:called(unset)"
FIELD_SET = "src/repro/a.py:Config(set)"
FIELD_UNSET = "src/repro/a.py:Config(unset)"

DEFS = {CALLED, UNCALLED}
PARAMS = {SET, UNSET, FIELD_SET, FIELD_UNSET}
EXACT = ((UNCALLED, "safety", "r"), (UNSET, "pinned", "r"), (FIELD_UNSET, "pinned", "r"))


def complaints(*entries, uncalled=(UNCALLED,), unset=(UNSET, FIELD_UNSET)):
    """What ``audit`` says of a list holding ``entries`` (``(key, category,
    reason)``, numbered from line 1), then every line of the exact list
    they leave out."""
    listed = {key for key, _category, _reason in entries}
    entries += tuple(entry for entry in EXACT if entry[0] not in listed)
    return audit(set(uncalled), DEFS, set(unset), PARAMS,
                 [(number, *entry) for number, entry in enumerate(entries, 1)])


def test_an_exact_list_draws_no_complaint():
    assert complaints() == []


def test_listed_twice():
    assert complaints((UNCALLED, "safety", "r"), (UNCALLED, "safety", "r")) == [
        f"unexecuted.txt:2: {UNCALLED}: listed twice"]


def test_unknown_category():
    assert complaints((UNCALLED, "pinned", "r"), (UNSET, "observer", "r")) == [
        f"unexecuted.txt:1: {UNCALLED}: unknown category 'pinned' (have "
        "['observer', 'parked', 'reference', 'safety', 'taught'])",
        f"unexecuted.txt:2: {UNSET}: unknown category 'observer' (have "
        "['parked', 'pinned', 'safety', 'taught'])"]


def test_no_reason():
    assert complaints((FIELD_UNSET, "pinned", "")) == [
        f"unexecuted.txt:1: {FIELD_UNSET}: no reason"]


def test_no_such_def_parameter_or_field():
    assert complaints(("src/repro/a.py:gone", "safety", "r"),
                      ("src/repro/a.py:called(gone)", "pinned", "r"),
                      ("src/repro/a.py:Config(gone)", "pinned", "r")) == [
        "unexecuted.txt:1: src/repro/a.py:gone: no such def",
        "unexecuted.txt:2: src/repro/a.py:called(gone): no such parameter or field",
        "unexecuted.txt:3: src/repro/a.py:Config(gone): no such parameter or field"]


def test_a_root_calls_it_now():
    assert complaints((CALLED, "safety", "r")) == [
        f"unexecuted.txt:1: {CALLED}: a root calls it now; drop the entry"]


def test_a_root_sets_it_now():
    assert complaints((SET, "pinned", "r"), (FIELD_SET, "parked", "r")) == [
        f"unexecuted.txt:{n}: {key}: a root sets it now, or enters its def no "
        "more; drop the entry" for n, key in ((1, SET), (2, FIELD_SET))]


def test_an_unlisted_uncalled_def():
    assert complaints(uncalled=(UNCALLED, CALLED)) == [
        f"{CALLED}: no root calls it and unexecuted.txt does not list it; "
        "delete it, or list it with a category"]


def test_an_unlisted_unset_parameter_or_field():
    assert complaints(unset=(UNSET, FIELD_UNSET, SET, FIELD_SET)) == [
        f"{key}: no root sets it and unexecuted.txt does not list it; make it "
        "a constant, or list it with a category" for key in (FIELD_SET, SET)]
