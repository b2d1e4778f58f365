"""Matching-based colorability: soundness, certificates, and cross-checks."""

import itertools
import random

import pytest

from choosability.construction import hard_instance
from choosability.solver import (
    ColorabilityResult,
    ColorOutOfRange,
    ValidityReport,
    _hopcroft_karp,
    check_certificate,
    colorable,
    validate_assignment,
    verify_coloring,
)
from conftest import (ADMISSIBLE_16, assignment_from_lists, kuhn_matching_size,
                      reference_hopcroft_karp)


def test_colorable_color_out_of_range():
    # the assignment refuses the color when built, so colorable never sees it
    with pytest.raises(ColorOutOfRange, match=r"lists\[0\] contains 5, outside \[0, 3\)"):
        assignment_from_lists([(0, 5)], c=1, num_colors=3)


# -- matching ---------------------------------------------------------------

def matching_size(inst) -> int:
    """Maximum matching size, read off colorable's deficiency certificate:
    n - (|S| - |N(S)|), or n when a coloring exists."""
    result = colorable(inst)
    if result.colorable:
        return inst.n
    s, neighborhood = result.violator
    return inst.n - (len(s) - len(neighborhood))


def test_matching_disjoint_singletons():
    a = assignment_from_lists([(v,) for v in range(6)], c=0)
    assert matching_size(a) == 6


def test_matching_shared_singleton():
    a = assignment_from_lists([(0,), (0,)], c=1)
    assert matching_size(a) == 1


def test_matching_hard_instance_3_1():
    # only 9 colors exist for 10 vertices
    assert matching_size(hard_instance(3, 1)) == 9


def test_matching_size_agrees_with_reference_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(500):
        n_left = rng.randrange(0, 21)
        n_right = rng.randrange(1, 21)
        adj = tuple(
            tuple(sorted(rng.sample(range(n_right), rng.randrange(0, n_right + 1))))
            for _ in range(n_left)
        )
        a = assignment_from_lists(adj, c=n_right, num_colors=n_right, k=0)
        assert matching_size(a) == kuhn_matching_size(adj, n_left, n_right)


# -- colorability decisions ----------------------------------------------------

def test_colorable_three_vertices():
    lists = [(0, 1), (0, 2), (1, 2)]
    # brute-force oracle: some choice of one color per list is all-distinct
    assert any(len(set(pick)) == 3 for pick in itertools.product(*lists))
    result = colorable(assignment_from_lists(lists, c=1))
    assert result.colorable
    assert verify_coloring(assignment_from_lists(lists, c=1), result.coloring)


def test_violator_two_vertices_one_color():
    result = colorable(assignment_from_lists([(0,), (0,)], c=1))
    assert not result.colorable
    assert result.violator == ((0, 1), (0,))


def test_empty_and_singleton_conventions():
    assert colorable(assignment_from_lists([], c=1)).colorable
    assert colorable(assignment_from_lists([(0,)], c=1)).colorable
    empty_list = assignment_from_lists([()], c=1, num_colors=0, k=0)
    result = colorable(empty_list)
    assert result.violator == ((0,), ())


def test_hard_instances_whole_graph_is_the_violator():
    for q, c in [(3, 1), (5, 2), (7, 3)]:
        inst = hard_instance(q, c)
        result = colorable(inst)
        assert not result.colorable
        s, neighborhood = result.violator
        assert len(s) == inst.n
        assert len(neighborhood) == inst.n - 1


def _random_assignment(rng):
    n = rng.randrange(1, 9)
    num_colors = rng.randrange(1, 12)
    k = rng.randrange(0, num_colors + 1)
    lists = [tuple(sorted(rng.sample(range(num_colors), k))) for _ in range(n)]
    return assignment_from_lists(lists, c=num_colors, num_colors=num_colors, k=k)


def test_soundness_on_random_instances():
    rng = random.Random(99)
    for _ in range(400):
        inst = _random_assignment(rng)
        result = colorable(inst)
        if result.colorable:
            assert verify_coloring(inst, result.coloring)
        else:
            s, neighborhood = result.violator
            recount = set()
            for v in s:
                recount.update(inst.lists[v])
            assert tuple(sorted(recount)) == neighborhood
            assert len(neighborhood) < len(s)
            # deficiency form: |S| - |N(S)| = n - max matching size
            deficit = len(s) - len(neighborhood)
            assert deficit == inst.n - kuhn_matching_size(inst.lists, inst.n, inst.num_colors)


def test_adding_a_fresh_color_never_breaks_colorability():
    rng = random.Random(4242)
    for _ in range(200):
        inst = _random_assignment(rng)
        before = colorable(inst).colorable
        v = rng.randrange(inst.n)
        widened = list(inst.lists)
        widened[v] = tuple(sorted(widened[v] + (inst.num_colors,)))
        after = colorable(assignment_from_lists(
            widened, c=inst.c, num_colors=inst.num_colors + 1, k=0)).colorable
        assert not (before and not after)


def test_level_by_level_search_matches_the_queue_search():
    # BFS distances do not depend on the order a level is scanned in, so the
    # matching and the last search's distances, which name the violator,
    # must be the queue search's exactly: on seeded families (colors listed
    # in any order) and on relabelled hard instances less one vertex, the
    # shape of the colorable variants that `solve` is benchmarked on
    rng = random.Random(2028)
    families = []
    for _ in range(400):
        num_colors = rng.randrange(1, 41)
        families.append([tuple(rng.sample(range(num_colors), rng.randrange(min(6, num_colors) + 1)))
                         for _ in range(rng.randrange(41))])
    for q, c in ADMISSIBLE_16:
        hard = hard_instance(q, c)
        lists = list(hard.lists)
        del lists[rng.randrange(len(lists))]
        rng.shuffle(lists)
        relabel = rng.sample(range(hard.num_colors), hard.num_colors)
        families.append([tuple(sorted(relabel[color] for color in lst)) for lst in lists])
    perfect = set()
    for lists in families:
        match_l, dist = _hopcroft_karp(lists)
        assert (match_l, dist) == reference_hopcroft_karp(lists), lists
        perfect.add(-1 not in match_l)
    assert perfect == {True, False}


# -- validation and verification ---------------------------------------------------

def test_validate_assignment_valid():
    assert validate_assignment(hard_instance(5, 2), 5, 2).valid


def test_validate_assignment_overlap():
    report = validate_assignment(assignment_from_lists([(0, 1), (0, 1)], c=1), 2, 1)
    assert not report.valid
    assert report.bad_pair == (0, 1)
    assert report.overlap == 2


def test_validate_assignment_reports_first_pair_in_index_order():
    lists = [(0, 1), (2, 3), (4, 5), (2, 3), (0, 1)]
    report = validate_assignment(assignment_from_lists(lists, c=1), 2, 1)
    assert report.bad_pair == (0, 4) and report.overlap == 2


def test_validate_assignment_negative_cap():
    # with no pair nothing exceeds the cap; otherwise (0, 1) is the first pair;
    # the header's c must be nonnegative, so only the check's cap is -1
    for lists in ([], [(0, 1)]):
        assert validate_assignment(assignment_from_lists(lists, c=0), 2, -1).valid
    report = validate_assignment(assignment_from_lists([(0, 1), (2, 3), (0, 1)], c=0), 2, -1)
    assert report == ValidityReport(valid=False, bad_pair=(0, 1), overlap=0)


def test_validate_assignment_wrong_size():
    report = validate_assignment(assignment_from_lists([(0, 1, 2)], c=1), 2, 1)
    assert not report.valid
    assert report.bad_vertex == 0


def test_verify_coloring_rejects_bad_colorings():
    inst = assignment_from_lists([(0, 1), (0, 2), (1, 2)], c=1)
    assert not verify_coloring(inst, (0, 0, 1))  # repeated color
    assert not verify_coloring(inst, (2, 0, 1))  # 2 not in lists[0]
    assert not verify_coloring(inst, (0, 2))     # wrong length
    assert verify_coloring(inst, (0, 2, 1))


@pytest.mark.parametrize("fields", [{}, {"coloring": (0, 1), "violator": ((0, 1), (0,))}],
                         ids=["neither", "both"])
def test_colorability_result_holds_exactly_one_certificate(fields):
    with pytest.raises(ValueError, match="exactly one of coloring and violator"):
        ColorabilityResult(**fields)


@pytest.mark.parametrize("certificate, reason", [
    (ColorabilityResult(violator=((), ())), "violator set is empty"),
    (ColorabilityResult(violator=((0, 3), (0,))), "outside the instance"),
    (ColorabilityResult(violator=((0, 0), (0,))), "repeats a vertex"),
    (ColorabilityResult(violator=((0, 1), (0, 1))), "differs from the recounted"),
    (ColorabilityResult(violator=((0, 2), (0, 1))), "does not violate Hall"),
    (ColorabilityResult(coloring=(0, 0, 1)), "not a proper coloring"),
])
def test_check_certificate_rejections(certificate, reason):
    inst = assignment_from_lists([(0,), (0,), (1,)], c=1)
    ok, note = check_certificate(inst, certificate)
    assert not ok and reason in note
