"""Instance and certificate serialization: round-trips and schema rejection."""

import errno
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability.construction import hard_instance
from choosability.formats import (
    FormatError,
    dumps_certificate,
    dumps_instance,
    instance_to_text,
    loads_certificate,
    loads_instance,
    write_atomic,
)
from choosability.solver import colorable
from conftest import BAD_HEADER_VALUES, assignment_from_lists, reference_loads_instance
from test_cli import _LITERALS, _loader_bases, _mutated


def test_instance_round_trip():
    inst = hard_instance(5, 2)
    text = dumps_instance(inst)
    back = loads_instance(text)
    assert back == inst
    assert dumps_instance(back) == text


def test_instance_text_export():
    inst = hard_instance(3, 1)
    lines = instance_to_text(inst).splitlines()
    assert lines[0] == "10 1 3 9"
    assert len(lines) == 11
    assert lines[1] == " ".join(str(color) for color in inst.lists[0])


def test_certificate_round_trip_both_shapes():
    colorable_result = colorable(assignment_from_lists([(0,), (1,)], c=0))
    text = dumps_certificate(colorable_result)
    assert loads_certificate(text) == colorable_result

    violator_result = colorable(hard_instance(3, 1))
    text = dumps_certificate(violator_result)
    assert loads_certificate(text) == violator_result


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("n"), "missing required field 'n'"),
    (lambda d: d.update(format_version=2), "format_version"),
    (lambda d: d.update(format_version=True), "format_version True"),
    (lambda d: d.update(format_version=1.0), "format_version 1.0"),
    (lambda d: d["lists"][0].append(99), "expected k="),
    (lambda d: d["lists"][0].__setitem__(0, 99), "outside"),
    (lambda d: d["lists"][0].reverse(), "strictly increasing"),
    (lambda d: d.update(n=3), "expected 3 lists"),
    (lambda d: d["lists"][0].__setitem__(0, True), "contains True, outside"),
    (lambda d: d["lists"][0].__setitem__(0, -1), "contains -1, outside"),
    (lambda d: d["lists"][0].__setitem__(0, "0"), "contains '0', outside"),
    (lambda d: d["lists"].__setitem__(0, 5), r"lists\[0\] must be an array"),
    (lambda d: d["lists"][0].__setitem__(-1, 2.0), "contains 2.0, outside"),
    (lambda d: d["lists"][0].__setitem__(-1, None), "contains None, outside"),
    (lambda d: d["lists"][0].__setitem__(-1, [8]), r"contains \[8\], outside"),
    (lambda d: d["lists"][0].__setitem__(-1, True), r"lists\[0\] contains True, outside"),
    (lambda d: d["lists"].__setitem__(0, [99, 1, 0]), "contains 99, outside"),
])
def test_instance_schema_rejection(mutate, fragment):
    data = json.loads(dumps_instance(hard_instance(3, 1)))
    mutate(data)
    with pytest.raises(FormatError, match=fragment):
        loads_instance(json.dumps(data))


@pytest.mark.parametrize("field, text", [
    ("coloring", '{"colorable":true,"coloring":[0,1]}'),
    ("violator_S", '{"colorable":false,"violator_S":[0,1],"neighborhood":[0]}'),
    ("neighborhood", '{"colorable":false,"violator_S":[0,1],"neighborhood":[0]}'),
])
@pytest.mark.parametrize("junk", [True, False, 1.0, "1", None, [1]])
def test_certificate_arrays_hold_only_integers(field, text, junk):
    # JSON true and false are not integers, although bool subclasses int
    data = json.loads(text)
    data[field].append(junk)
    with pytest.raises(FormatError, match=f"field '{field}' must be an array of integers"):
        loads_certificate(json.dumps(data))
    data[field] = 7
    with pytest.raises(FormatError, match=f"field '{field}' must be an array of integers"):
        loads_certificate(json.dumps(data))


@pytest.mark.parametrize("faults, fragment", [
    ({3: [2, 1, 0], 5: [0, 1, 99]}, r"lists\[3\] must be strictly increasing"),
    ({3: [0, 1, 99], 5: [2, 1, 0]}, r"lists\[3\] contains 99, outside"),
    ({2: [0, 1.5, 2], 4: 7}, r"lists\[2\] contains 1.5, outside"),
    ({2: [0, 1], 4: [0, 1, True]}, r"lists\[2\] has 2 colors, expected k=3"),
    ({6: [0, 4, 3], 8: [-1, 0, 1]}, r"lists\[6\] must be strictly increasing"),
    ({0: [1, 0, 9]}, r"lists\[0\] contains 9, outside"),
    ({9: "0 1 2"}, r"lists\[9\] must be an array"),
    ({2: [0, 1, 99], 4: [0, 1]}, r"lists\[2\] contains 99, outside"),
    ({2: [2, 1, 0], 4: "x"}, r"lists\[2\] must be strictly increasing"),
])
def test_instance_loader_names_the_first_faulty_list(faults, fragment):
    # the loader checks the whole family at once and walks it only after a
    # failure, so a fault in a later list must not mask one in an earlier list
    data = json.loads(dumps_instance(hard_instance(3, 1)))
    for v, lst in faults.items():
        data["lists"][v] = lst
    with pytest.raises(FormatError, match=fragment):
        loads_instance(json.dumps(data))


def test_empty_lists_load():
    text = '{"format_version":1,"n":2,"c":0,"k":0,"num_colors":0,"lists":[[],[]]}'
    inst = loads_instance(text)
    assert inst.k == 0 and inst.lists == ((), ())
    assert dumps_instance(inst) == text[:-1] + ',"meta":{}}\n'


def test_truncated_json_rejected():
    good = dumps_instance(hard_instance(3, 1))
    with pytest.raises(FormatError, match="not valid JSON"):
        loads_instance(good[: len(good) // 2])
    with pytest.raises(FormatError):
        loads_certificate("{\"colorable\": true}")


def with_literal(data, digits):
    """`data` as JSON text with its "@" string replaced by the raw integer
    literal `digits`, which json.dumps refuses to write past 4,300 digits."""
    return json.dumps(data).replace('"@"', digits)


@pytest.mark.parametrize("loads, text, mutate", [
    (loads_instance, dumps_instance(hard_instance(3, 1)), lambda d: d.update(n="@")),
    (loads_instance, dumps_instance(hard_instance(3, 1)), lambda d: d["lists"][0].insert(0, "@")),
    (loads_certificate, '{"colorable":true,"coloring":[0]}', lambda d: d["coloring"].append("@")),
], ids=["n", "list_entry", "coloring"])
def test_integer_past_the_digit_limit_rejected(loads, text, mutate):
    data = json.loads(text)
    mutate(data)
    with pytest.raises(FormatError, match="not valid JSON: an integer has more than 4300 digits"):
        loads(with_literal(data, "1" * 4301))


def test_integer_at_the_digit_limit_loads():
    data = json.loads(dumps_instance(hard_instance(3, 1))) | {"num_colors": "@"}
    assert loads_instance(with_literal(data, "9" * 4300)).num_colors == 10 ** 4300 - 1


@pytest.mark.parametrize("field", ["n", "c", "k", "num_colors"])
@pytest.mark.parametrize("value", BAD_HEADER_VALUES)
def test_instance_header_field_refused(field, value):
    data = json.loads(dumps_instance(hard_instance(3, 1))) | {field: value}
    with pytest.raises(FormatError) as refused:
        loads_instance(json.dumps(data))
    assert str(refused.value) == f"field '{field}' must be a nonnegative integer, got {value!r}"


def _loaded(loads, doc):
    """The message `loads` refuses `doc` with, or the bytes of the instance
    it loads; a name in `_LITERALS` is spliced in as its raw digits."""
    text = json.dumps(doc)
    for name, digits in _LITERALS.items():
        text = text.replace(json.dumps(name), digits)
    try:
        return dumps_instance(loads(text))
    except FormatError as exc:
        return f"FormatError: {exc}"


def _assert_loads_like_reference(doc):
    assert _loaded(loads_instance, doc) == _loaded(reference_loads_instance, doc), doc


@settings(max_examples=2000, deadline=None, database=None)
@given(st.sampled_from([pair[0] for pair in _loader_bases()]).flatmap(_mutated))
def test_loader_matches_reference_on_mutated_documents(doc):
    _assert_loads_like_reference(doc)


def _list_faults(doc):
    """Copies of `doc` with one fault in its lists: no array, the wrong
    count, a list that is no array of k colors, or a bad color, each in the
    first and in the last list."""
    lists = doc["lists"]
    yield from ({**doc, "lists": junk} for junk in ({"0": lists[0]}, "0 1 2", 7, None))
    yield from ({**doc, "lists": lists[:-1]}, {**doc, "lists": lists + lists[:1]})
    for v in (0, len(lists) - 1):
        lst = lists[v]
        for fault in (5, "x", {}, lst[:-1], lst + [0], [-1] + lst[1:], ["0"] + lst[1:],
                      lst[:-1] + [99], lst[:-1] + [True], lst[::-1]):
            yield {**doc, "lists": lists[:v] + [fault] + lists[v + 1:]}


def test_loader_matches_reference_on_two_fault_documents():
    # a bad header field together with a fault in the lists: the header is
    # named first, whichever list fault the file also holds
    checked = 0
    for base, _ in _loader_bases():
        for faulty in _list_faults(base):
            for field in ("n", "c", "k", "num_colors"):
                for value in BAD_HEADER_VALUES:
                    doc = {**faulty, field: value}
                    _assert_loads_like_reference(doc)
                    assert _loaded(loads_instance, doc).startswith(f"FormatError: field '{field}'")
                    checked += 1
    assert checked == 2 * 26 * 4 * len(BAD_HEADER_VALUES)


# -- atomic writes ----------------------------------------------------------------

@pytest.mark.parametrize("old", [None, "old bytes\n"])
def test_write_atomic_cleans_up_after_a_failed_replace(tmp_path, monkeypatch, old):
    target = tmp_path / "out.json"
    if old is not None:
        target.write_text(old)

    def refuse(src, dst):
        raise OSError(errno.EIO, "replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError) as failed:
        write_atomic(str(target), "new bytes\n")
    assert (failed.value.errno, failed.value.filename) == (errno.EIO, None)
    assert list(tmp_path.iterdir()) == ([] if old is None else [target])  # no .tmp-* left
    if old is not None:
        assert target.read_text() == old
