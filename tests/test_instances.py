"""`ListAssignment` owns its header: `n` is derived, and `c`, `k` and
`num_colors` are checked when a family is built or replaced."""

import dataclasses

import pytest

from choosability.construction import hard_instance
from choosability.instances import ColorOutOfRange, ListAssignment
from choosability.solver import colorable, verify_coloring
from conftest import BAD_HEADER_VALUES


@pytest.mark.parametrize("field", ["c", "k", "num_colors"])
@pytest.mark.parametrize("value", BAD_HEADER_VALUES)
def test_header_field_refused(field, value):
    fields = {"k": 1, "c": 0, "num_colors": 2, "lists": ((0,), (1,))} | {field: value}
    with pytest.raises(ValueError) as refused:
        ListAssignment(**fields)
    assert type(refused.value) is ValueError
    assert str(refused.value) == f"field '{field}' must be a nonnegative integer, got {value!r}"
    with pytest.raises(ValueError, match=f"field '{field}' must be"):
        dataclasses.replace(hard_instance(3, 1), **{field: value})


def test_header_fields_are_checked_in_order_before_the_lists():
    with pytest.raises(ValueError, match="field 'c'"):
        ListAssignment(k=-1, c=-1, num_colors=-1, lists=((5, 4),))
    with pytest.raises(ValueError, match="field 'k'"):
        ListAssignment(k=-1, c=0, num_colors=-1, lists=((5, 4),))
    with pytest.raises(ValueError, match="field 'num_colors'"):
        ListAssignment(k=0, c=0, num_colors=-1, lists=((5, 4),))


@pytest.mark.parametrize("num_colors", [-3, "5"])
def test_num_colors_refused_with_empty_lists(num_colors):
    with pytest.raises(ValueError, match="field 'num_colors' must be a nonnegative integer"):
        ListAssignment(k=1, c=0, num_colors=num_colors, lists=())


def test_lists_cannot_change_after_the_check():
    inner = [[0], [1]]
    inst = ListAssignment(k=1, c=0, num_colors=2, lists=inner)
    inner[0].append(0)
    inner.append([5])
    assert inst.lists == ((0,), (1,))
    assert type(inst.lists) is tuple and all(type(lst) is tuple for lst in inst.lists)


def test_n_is_the_number_of_lists():
    inst = ListAssignment(k=1, c=0, num_colors=2, lists=((0,), (1,)))
    assert inst.n == 2
    result = colorable(inst)
    assert result.colorable and verify_coloring(inst, result.coloring)
    with pytest.raises(TypeError):
        ListAssignment(n=3, k=1, c=0, num_colors=2, lists=((0,), (1,)))
    with pytest.raises(TypeError):
        dataclasses.replace(inst, n=3)
    hard = hard_instance(3, 1)
    assert dataclasses.replace(hard, lists=hard.lists[:-1]).n == hard.n - 1


def test_assignment_is_unhashable_while_meta_is_a_dict():
    with pytest.raises(TypeError):
        hash(hard_instance(3, 1))


@pytest.mark.parametrize("fields, error, message", [
    ({"lists": 7}, ValueError, "field 'lists' must be iterable, got 7"),
    ({"lists": None}, ValueError, "field 'lists' must be iterable, got None"),
    ({"lists": [5]}, ValueError, "lists[0] must be iterable, got 5"),
    ({"lists": [[0], None]}, ValueError, "lists[1] must be iterable, got None"),
    ({"lists": [[0], [2], None]}, ColorOutOfRange, "lists[1] contains 2, outside [0, 2)"),
    ({"meta": 5}, ValueError, "field 'meta' must be a dict or None, got 5"),
    ({"meta": [], "lists": [[0], None]}, ValueError, "lists[1] must be iterable, got None"),
], ids=["lists-int", "lists-none", "list-int", "list-none", "color-before-list",
        "meta-int", "list-before-meta"])
def test_lists_and_meta_refused(fields, error, message):
    base = {"k": 1, "c": 0, "num_colors": 2, "lists": ((0,), (1,))}
    with pytest.raises(ValueError) as built:
        ListAssignment(**base | fields)
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(ListAssignment(**base), **fields)
    for refused in (built, replaced):
        assert type(refused.value) is error and str(refused.value) == message
