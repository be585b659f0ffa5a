"""``unexecuted.txt`` stays well-formed between runs of the call audit:
every def entry names a def that exists (and is not exempt), every
``(param)`` entry names a defaulted parameter of an audited def or a
defaulted ``__init__`` field declared on that class, and each carries a
known category and gives a reason. Whether each listed def is really
uncalled, and each listed parameter or field really never set, is what
``python tests/golden/manifest.py`` checks on CPython 3.12 or later; this
is the cheap static half, so a rename cannot orphan an entry unnoticed."""

from tests.reach.check_executed import (
    CATEGORIES,
    PARAM_CATEGORIES,
    audited_defs,
    audited_fields,
    audited_params,
    read_list,
)


def test_every_entry_names_a_def_a_category_and_a_reason():
    defs = audited_defs()
    entries = [entry for entry in read_list() if not entry[1].endswith(")")]
    assert entries
    for number, key, category, reason in entries:
        where = f"unexecuted.txt:{number}"
        assert key in defs, f"{where}: no such def {key}"
        assert category in CATEGORIES, f"{where}: unknown category {category!r}"
        assert reason.strip(), f"{where}: no reason"


def test_every_param_entry_names_a_defaulted_parameter_a_category_and_a_reason():
    params, fields = audited_params(), audited_fields()
    entries = [entry for entry in read_list()
               if entry[1].endswith(")") and entry[1] not in fields]
    assert entries
    for number, key, category, reason in entries:
        where = f"unexecuted.txt:{number}"
        assert key in params, f"{where}: no such defaulted parameter or field {key}"
        assert category in PARAM_CATEGORIES, f"{where}: unknown category {category!r}"
        assert reason.strip(), f"{where}: no reason"


def test_every_field_entry_names_a_defaulted_field_its_class_declares():
    fields = audited_fields()
    entries = [entry for entry in read_list() if entry[1] in fields]
    assert entries
    for number, key, category, reason in entries:
        where = f"unexecuted.txt:{number}"
        assert category in PARAM_CATEGORIES, f"{where}: unknown category {category!r}"
        assert reason.strip(), f"{where}: no reason"


def test_no_entry_is_listed_twice():
    keys = [key for _number, key, _category, _reason in read_list()]
    assert len(keys) == len(set(keys))
