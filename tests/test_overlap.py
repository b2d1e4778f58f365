"""The column counter behind both audits against the pairwise reference:
`validate_assignment` and `verify_design` must report exactly what one AND
per pair of lists reports, on the hard instances, on corrupted copies of
them, and on small families of lists of the wrong sizes."""

import random
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from itertools import chain

from choosability import solver
from choosability.construction import augmented_hypergraph, verify_design
from choosability.instances import ListAssignment
from choosability.solver import pair_overlaps, validate_assignment
from conftest import (ADMISSIBLE_16, overlap_rows, reference_validate_assignment,
                      reference_verify_design)


def assert_matches_reference(design, k, c):
    assert validate_assignment(design, k, c) == reference_validate_assignment(design, k, c)
    assert verify_design(design, k, c) == reference_verify_design(design, k, c)


def with_list(design, v, lst):
    lists = list(design.lists)
    lists[v] = tuple(sorted(lst))
    return replace(design, lists=tuple(lists))


def swap_colors(design, rng):
    """Trade a color of one list for a color of another that it lacks."""
    u, v = rng.sample(range(design.n), 2)
    lu, lv = set(design.lists[u]), set(design.lists[v])
    x, y = rng.choice(sorted(lu - lv)), rng.choice(sorted(lv - lu))
    return with_list(with_list(design, u, lu - {x} | {y}), v, lv - {y} | {x})


def duplicate_list(design, rng):
    """Insert a copy of one list at a random position."""
    lists = list(design.lists)
    lists.insert(rng.randrange(len(lists) + 1), rng.choice(lists))
    return replace(design, lists=tuple(lists))


def raise_overlap(design, rng, size):
    """Make two lists that share at most c colors share exactly `size`."""
    while True:
        u, v = rng.sample(range(design.n), 2)
        lu, lv = set(design.lists[u]), set(design.lists[v])
        if len(lu & lv) <= design.c:
            break
    gained = rng.sample(sorted(lu - lv), size - len(lu & lv))
    lost = rng.sample(sorted(lv - lu), len(gained))
    return with_list(design, v, lv - set(lost) | set(gained))


def test_counter_matches_reference_on_admissible_designs():
    for q, c in ADMISSIBLE_16:
        design = augmented_hypergraph(q, c)
        for cap in (c - 1, c, c + 1):
            assert_matches_reference(design, q, cap)


def test_counter_matches_reference_on_corrupted_designs():
    rng = random.Random(20131)
    for q, c in ADMISSIBLE_16:
        design = augmented_hypergraph(q, c)
        for _ in range(2):
            for corrupted in (swap_colors(design, rng), duplicate_list(design, rng),
                              raise_overlap(design, rng, c + 1),
                              raise_overlap(design, rng, q)):
                assert_matches_reference(corrupted, q, c)


def over_own_colors(lists):
    """`lists` as an assignment whose universe ends at its largest color."""
    return ListAssignment(k=0, c=0, lists=tuple(lists),
                          num_colors=1 + max(chain.from_iterable(lists), default=-1))


def test_counter_matches_reference_on_malformed_lists():
    # lists of the wrong size, colors that no list holds, and caps from
    # below zero to above k
    rng, steps = random.Random(7), (-1, 0, 0, 0, 1)
    for _ in range(3000):
        n, k = rng.randrange(8), rng.randrange(5)
        lists = tuple(tuple(sorted(set(rng.choices(range(9), k=max(0, k + rng.choice(steps))))))
                      for _ in range(n))
        held = 1 + max(chain.from_iterable(lists), default=-1)
        design = ListAssignment(k=k, c=0, num_colors=max(rng.randrange(8), held), lists=lists)
        for c in range(-2, k + 2):
            assert_matches_reference(design, k, c)


def test_huge_cap_counts_no_further_than_the_longest_list():
    design = augmented_hypergraph(5, 2)
    assert_matches_reference(design, 5, 10 ** 18)


def test_pair_overlaps_matches_pairwise_reference():
    # lists of unequal lengths, over ids that include 2**61, and every cap
    # from below zero to past the longest
    rng = random.Random(23)
    ids = (0, 1, 2, 3, 7, 2 ** 61, 2 ** 61 + 1)
    families = [()] + [tuple(tuple(sorted(set(rng.choices(ids, k=rng.randrange(7)))))
                             for _ in range(rng.randrange(1, 13))) for _ in range(300)]
    for lists in families:
        assert_overlaps_match_rows(lists)


def share_with(design, u, v, size):
    """Make list v share exactly `size` entries with list u, which it meets
    in at most `size` today, by trading entries of v that u lacks."""
    lu, lv = set(design.lists[u]), set(design.lists[v])
    gained = sorted(lu - lv)[:size - len(lu & lv)]
    lost = sorted(lv - lu)[:len(gained)]
    return with_list(design, v, lv - set(lost) | set(gained))


def test_counter_matches_reference_where_corruptions_touch_the_first_and_last_lists():
    # the counter reads the lists from the last to the first, so list n - 1
    # is the bottom bit of every column and list 0 the top one
    rng = random.Random(27)
    for q, c in ADMISSIBLE_16:
        design = augmented_hypergraph(q, c)
        last, middle = design.n - 1, rng.randrange(1, design.n - 1)
        lists = design.lists
        for corrupted in (with_list(design, last, lists[0]),
                          with_list(design, 0, lists[last]),
                          share_with(design, 0, last, c + 1),
                          share_with(design, last, 0, c + 1),
                          share_with(share_with(design, middle, 0, c + 1), middle, last, q),
                          replace(design, lists=lists + (lists[0],)),
                          replace(design, lists=(lists[last],) + lists)):
            for cap in (c - 1, c, c + 1):
                assert_matches_reference(corrupted, q, cap)


def test_pair_overlaps_memory_stays_with_the_columns():
    # 20,000 distinct one-entry lists: the columns alone take n^2 / 2 bits,
    # about 23.8 MiB; keeping a set of entries per list until it is yielded
    # would add about 4 MiB more
    design = over_own_colors([(v,) for v in range(20000)])
    tracemalloc.start()
    try:
        for _ in pair_overlaps(design, 0):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2 ** 20


def assert_overlaps_match_rows(lists):
    """pair_overlaps over `lists` against the pairwise reference at every
    cap from below zero to past the longest list."""
    design = over_own_colors(lists)
    for c in range(-2, max(map(len, lists), default=0) + 2):
        expected = [(u, {size for size in row if size <= max(c, 0)},
                     [(u + 1 + j, size) for j, size in enumerate(row) if size > c])
                    for u, row in overlap_rows(lists)]
        assert list(pair_overlaps(design, c)) == expected, (lists, c)


def test_pair_overlaps_on_both_column_containers(monkeypatch):
    # the columns are a list indexed by color when num_colors is at most T,
    # the family's entry count, and a dict otherwise: with num_colors one
    # past the largest color, make that color T - 1, T or 2**61, and record
    # which container each family got
    dicts = []

    class RecordedDict(defaultdict):
        def __init__(self, *args):
            super().__init__(*args)
            dicts.append(self)

    monkeypatch.setattr(solver, "defaultdict", RecordedDict)
    rng = random.Random(29)
    families = [([(0,)], True), ([(1,)], False), ([(2 ** 61,)], False)]
    for _ in range(150):
        sizes = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 10))]
        total = sum(sizes)
        lists = [sorted(rng.sample(range(min(total, 6)), size)) for size in sizes]
        for extreme, dense in ((total - 1, True), (total, False), (2 ** 61, False)):
            family = [list(lst) for lst in lists]
            rng.choice(family)[-1] = extreme  # no color exceeds it, so the list stays increasing
            families.append((family, dense))
    for family, dense in families:
        dicts.clear()
        assert_overlaps_match_rows(tuple(map(tuple, family)))
        assert bool(dicts) == (not dense), family


def test_pair_overlaps_saturates_the_top_plane_on_identical_lists():
    # n copies of one list share all k entries, far above c = 0..3, so every
    # entry past the c-th carries into the saturated top plane
    rng = random.Random(30)
    for k in (1, 2, 3, 5, 8, 13, 21, 40):
        for n in (2, 3, 7):
            lst = tuple(sorted(rng.sample(range(3 * k), k)))
            assert_overlaps_match_rows((lst,) * n)
