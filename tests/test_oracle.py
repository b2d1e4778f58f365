"""Canonical enumeration and the exhaustive ground-truth searches."""

import itertools
import random

import pytest

from choosability import oracle, solver
from choosability.oracle import (
    SearchTooLarge,
    SmallGraph,
    chi_l_complete_search,
    chi_l_graph_search,
    complete_graph,
    conjecture_probe,
    iter_canonical_assignments,
    list_colorable_graph,
)
from conftest import (assignment_from_lists, brute_force_canonical, canonical_form,
                      generate_then_filter, reference_colorer,
                      reference_first_uncolorable, relabel_by_first_appearance)


# -- enumeration ----------------------------------------------------------------

def test_enumerate_two_vertices_singletons():
    assert list(iter_canonical_assignments(2, 1, 1)) == [
        ((0,), (0,)), ((0,), (1,))]
    assert list(iter_canonical_assignments(2, 1, 0)) == [((0,), (1,))]


def test_enumerate_no_vertices_or_empty_lists():
    # n = 0 has one assignment, the empty one; k = 0 gives every vertex
    # the empty list, under any cap on overlaps
    assert list(iter_canonical_assignments(0, 2, 1)) == [()]
    assert list(iter_canonical_assignments(0, 0, 0)) == [()]
    assert list(iter_canonical_assignments(3, 0, 0)) == [((), (), ())]
    assert list(iter_canonical_assignments(3, 0, 0, edges=[(0, 1)])) == [((), (), ())]


def _reference_count(n, k, c):
    """Unpruned filter-based reference: generate every n-tuple of sorted
    k-subsets of the full color budget, keep the valid ones that are the
    lexicographic minimum of their color-permutation orbit (canonicity
    checked by brute force over permutations, independently of the
    package's column-sorting shortcut)."""
    universe = range(n * k)
    count = 0
    for candidate in itertools.product(itertools.combinations(universe, k), repeat=n):
        if any(len(set(a) & set(b)) > c
               for a, b in itertools.combinations(candidate, 2)):
            continue
        if brute_force_canonical(candidate) == candidate:
            count += 1
    return count


def test_count_matches_unpruned_reference():
    for n, k, c in [(3, 2, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2)]:
        ours = sum(1 for _ in iter_canonical_assignments(n, k, c))
        assert ours == _reference_count(n, k, c), (n, k, c)


def test_emitted_assignments_are_canonical_and_valid():
    rng = random.Random(5)
    emitted = list(iter_canonical_assignments(3, 2, 1))
    for assignment in emitted:
        # canonical forms are in particular in restricted-growth order
        assert relabel_by_first_appearance(assignment) == assignment
        assert brute_force_canonical(assignment) == assignment
        for a, b in itertools.combinations(assignment, 2):
            assert len(set(a) & set(b)) <= 1
        # canonicity is a normal form: any color permutation maps back
        colors = sorted({color for lst in assignment for color in lst})
        perm = colors[:]
        rng.shuffle(perm)
        mapping = dict(zip(colors, perm))
        shuffled = tuple(tuple(sorted(mapping[color] for color in lst))
                         for lst in assignment)
        assert canonical_form(shuffled) == assignment


def test_exactly_one_representative_per_orbit():
    """Every valid assignment over the bounded universe canonicalizes to an
    emitted one, and distinct emitted assignments lie in distinct orbits."""
    emitted = set(iter_canonical_assignments(3, 2, 1))
    universe = range(6)
    for candidate in itertools.product(itertools.combinations(universe, 2), repeat=3):
        if any(len(set(a) & set(b)) > 1
               for a, b in itertools.combinations(candidate, 2)):
            continue
        assert brute_force_canonical(candidate) in emitted


def _same_sequence(n, k, c, edges):
    ours = list(iter_canonical_assignments(n, k, c, edges=edges, cap=n * k))
    assert ours == list(generate_then_filter(n, k, c, edges)), (n, k, c, edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sequence_matches_generate_then_filter_small_graphs(n):
    """The same assignments in the same order as the generate-then-filter
    reference, on every labeled graph with n <= 4 vertices (edges=None for
    the complete graph included) and every k, c with n * k <= 12."""
    pairs = list(itertools.combinations(range(n), 2))
    graphs = [None] + [[pair for i, pair in enumerate(pairs) if bits >> i & 1]
                       for bits in range(1 << len(pairs))]
    for edges in graphs:
        for k in range(1, 12 // n + 1):
            for c in range(k + 1):
                _same_sequence(n, k, c, edges)


def test_sequence_matches_generate_then_filter_five_vertices():
    k5 = list(itertools.combinations(range(5), 2))
    # K_5, K_5 minus an edge, C_5, P_5, the star K_{1,4}, K_4 plus a vertex
    graphs = [None, k5[1:], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
              [(0, 1), (1, 2), (2, 3), (3, 4)], [(0, v) for v in range(1, 5)],
              list(itertools.combinations(range(4), 2))]
    for edges in graphs:
        for k in (1, 2):
            for c in range(k + 1):
                _same_sequence(5, k, c, edges)
        _same_sequence(5, 3, 0, edges)
    _same_sequence(5, 3, 1, None)
    _same_sequence(5, 3, 1, k5[1:])


def _same_search(n, k, c, edges):
    cap = max(n * k, 1)
    assert (oracle._first_uncolorable(n, k, c, edges, cap)
            == reference_first_uncolorable(n, k, c, edges, cap)), (n, k, c, edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_matches_per_assignment_colorer_small_graphs(n):
    """One search of G - w per run of assignments finds the same first
    uncolorable assignment after the same count as a full coloring search
    of every assignment, on every labeled graph with n <= 4 vertices
    (edges=None for the complete graph included) and every k <= 12 // n,
    c <= k."""
    pairs = list(itertools.combinations(range(n), 2))
    graphs = [None] + [[pair for i, pair in enumerate(pairs) if bits >> i & 1]
                       for bits in range(1 << len(pairs))]
    for edges in graphs:
        for k in range(1, 12 // n + 1):
            for c in range(k + 1):
                _same_search(n, k, c, edges)


def test_search_matches_per_assignment_colorer_five_vertices():
    # the six graphs of the five-vertex sequence test
    graphs = [None, list(itertools.combinations(range(5), 2))[1:],
              [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [(0, 1), (1, 2), (2, 3), (3, 4)],
              [(0, v) for v in range(1, 5)], list(itertools.combinations(range(4), 2))]
    for edges in graphs:
        for k in (1, 2, 3):
            for c in (0, 1):
                _same_search(5, k, c, edges)


def test_search_colors_once_per_run(monkeypatch):
    """`forced` runs once per run of assignments that share the lists of
    vertices 0..n-2, on the run's first assignment."""
    calls = []
    colorer = oracle._colorer

    def recording(n, edges):
        forced = colorer(n, edges)

        def record(lists):
            calls.append(lists)
            return forced(lists)
        return record

    monkeypatch.setattr(oracle, "_colorer", recording)
    for n, k, c, edges in [(4, 2, 1, None), (5, 2, 1, [(0, 1), (1, 2), (2, 3), (3, 4)]),
                           (4, 3, 1, [(0, 3), (1, 3), (2, 3)]), (5, 2, 1, None)]:
        calls.clear()
        _, checked = oracle._first_uncolorable(n, k, c, edges, 15)
        seen = list(itertools.islice(iter_canonical_assignments(n, k, c, edges=edges, cap=15),
                                     checked))
        starts = [a for i, a in enumerate(seen) if i == 0 or a[:-1] != seen[i - 1][:-1]]
        assert len(starts) > 1
        assert calls == starts, (n, k, c, edges)


def test_search_on_no_vertices_or_empty_lists():
    # the empty assignment is colorable; one vertex with an empty list is not
    assert oracle._first_uncolorable(0, 0, 0, None, 0) == (None, 1)
    assert oracle._first_uncolorable(1, 0, 0, None, 0) == (((),), 1)
    for n in (0, 1):
        _same_search(n, 0, 0, None)


def test_enumeration_rejects_bad_edges():
    for edges in ([(0, 5)], [(1, 1)], [(-1, 0)]):
        with pytest.raises(ValueError, match="bad edge"):
            iter_canonical_assignments(3, 1, 1, edges=edges)


@pytest.mark.parametrize("n, k, c", [(-1, 1, 1), (2, -1, 1), (2, 1, -1)])
def test_enumeration_rejects_negative_parameters(n, k, c):
    with pytest.raises(ValueError, match=rf"need n, k, c >= 0, got \({n}, {k}, {c}\)"):
        iter_canonical_assignments(n, k, c)


def test_enumeration_cap_is_a_refusal():
    with pytest.raises(SearchTooLarge):
        iter_canonical_assignments(5, 3, 1)
    with pytest.raises(SearchTooLarge):
        chi_l_complete_search(5, 1)  # needs k=3, over the default cap
    assert chi_l_complete_search(5, 1, cap=15).chi_l == 3


# -- exact values on complete graphs ------------------------------------------------

def test_exact_chi_l_complete_small_values():
    assert chi_l_complete_search(2, 1).chi_l == 2
    assert chi_l_complete_search(3, 1).chi_l == 2
    assert chi_l_complete_search(4, 1).chi_l == 2
    assert chi_l_complete_search(3, 2).chi_l == 3


def test_search_reports_witness_and_count():
    result = chi_l_complete_search(3, 1)
    assert result.chi_l == 2
    # identical singletons defeat k = 1
    assert result.defeated_by == ((0,), (0,), (0,))
    assert result.assignments_checked > 0
    assert chi_l_complete_search(1, 1).defeated_by is None


def test_ceiling_when_cap_allows_identical_lists():
    # c >= n - 1 admits n identical (n-1)-lists, forcing the full n;
    # K_4 at k=4 needs n*k = 16, so raise the cap accordingly
    for n in (2, 3, 4):
        for c in (n - 1, n):
            assert chi_l_complete_search(n, c, cap=16).chi_l == n


def test_monotone_in_separation_cap():
    for n in (2, 3, 4):
        values = [chi_l_complete_search(n, c, cap=16).chi_l for c in range(0, n + 1)]
        assert values == sorted(values)


# -- arbitrary small graphs -----------------------------------------------------------

def test_list_colorable_graph_basics():
    edgeless = SmallGraph.of(3, [])
    assert list_colorable_graph(edgeless, assignment_from_lists([(0,), (0,), (0,)], c=1))
    edge = SmallGraph.of(2, [(0, 1)])
    assert not list_colorable_graph(edge, assignment_from_lists([(0,), (0,)], c=1))
    assert list_colorable_graph(edge, assignment_from_lists([(0,), (1,)], c=1))


def test_list_colorable_graph_answers_beyond_eight_vertices():
    """Seeded random lists on 9..12 vertices: K_n agrees with the matching
    solver and random graphs with the reference colorer, and both answers
    occur on each."""
    rng = random.Random(18)
    seen = set()
    for trial in range(400):
        n = rng.randint(9, 12)
        lists = [rng.sample(range(n), rng.randint(1, 4)) for _ in range(n)]
        inst = assignment_from_lists(lists, c=4, num_colors=n)
        if trial % 2:
            want = solver.colorable(inst).colorable
            got = list_colorable_graph(complete_graph(n), inst)
        else:
            edges = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            want = reference_colorer(n, edges)(inst.lists)
            got = list_colorable_graph(SmallGraph.of(n, edges), inst)
        assert got == want, (n, lists)
        seen.add((trial % 2, want))
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


@pytest.mark.parametrize("n, edges", [(3, ((-1, 0),)), (3, ((0, 5),)), (2, ((1, 1),)),
                                      (3, ((1, 0),))],
                         ids=["negative", "past-n", "self-loop", "unsorted"])
def test_small_graph_rejects_bad_edges_when_made(n, edges):
    with pytest.raises(ValueError, match="bad edge"):
        SmallGraph(n, edges)


def test_list_colorable_graph_needs_one_list_per_vertex():
    path3 = SmallGraph.of(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="2 lists for 3 vertices"):
        list_colorable_graph(path3, assignment_from_lists([(0,), (1,)], c=1))
    with pytest.raises(ValueError, match="4 lists for 3 vertices"):
        list_colorable_graph(path3, assignment_from_lists([(0,), (1,), (0,), (0,)], c=1))


def test_list_colorable_graph_agrees_with_per_assignment_colorer():
    """Seeded random graphs on 0..6 vertices with lists of 0..4 colors, the
    ids including 2**61 and 10**18 (so no bitmask may be indexed by color
    id); many cases have G - w itself uncolorable."""
    rng = random.Random(14)
    palette = [0, 1, 2, 3, 2**61, 10**18]
    g_minus_w_uncolorable = 0
    for _ in range(20000):
        n = rng.randint(0, 6)
        edges = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        lists = [rng.sample(palette, rng.randint(0, 4)) for _ in range(n)]
        inst = assignment_from_lists(lists, c=4, num_colors=2**61 + 1)
        want = reference_colorer(n, edges)(inst.lists)
        assert list_colorable_graph(SmallGraph.of(n, edges), inst) == want, (n, edges, lists)
        if n and not reference_colorer(n - 1, [e for e in edges if n - 1 not in e])(inst.lists):
            g_minus_w_uncolorable += 1
    assert g_minus_w_uncolorable > 1000


def test_backtracking_agrees_with_matching_solver_on_k1_to_k5():
    """`exact` decides K_n by backtracking and `solve` by matching: the two
    agree on every canonical assignment with n <= 5, k <= 3, c <= 2."""
    for n in range(1, 6):
        graph = complete_graph(n)
        for k in (1, 2, 3):
            for c in (0, 1, 2):
                for assignment in iter_canonical_assignments(n, k, c, cap=15):
                    inst = assignment_from_lists(assignment, c)
                    assert (list_colorable_graph(graph, inst)
                            == solver.colorable(inst).colorable), (n, k, c, assignment)


def _product_colorable(graph, lists):
    """Plain search over every choice of one color per list."""
    return any(all(coloring[u] != coloring[v] for u, v in graph.edges)
               for coloring in itertools.product(*lists))


def test_backtracking_agrees_with_product_search_on_small_graphs():
    """On every labeled graph with n <= 4, the colorer agrees with a plain
    product search on every canonical assignment with k <= 2, c <= k."""
    for n in range(1, 5):
        for graph in _all_labeled_graphs(n):
            for k in (1, 2):
                for c in range(k + 1):
                    for assignment in iter_canonical_assignments(n, k, c, edges=graph.edges):
                        inst = assignment_from_lists(assignment, c)
                        assert (list_colorable_graph(graph, inst)
                                == _product_colorable(graph, assignment)), (graph, assignment)


def test_exact_complete_does_not_call_matching_solver(monkeypatch):
    """The oracle is a second algorithm for `solve`, not a rerun of it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called solver.colorable")

    monkeypatch.setattr(solver, "colorable", refuse)
    # c = 0 forces disjoint lists; c >= n - 1 admits n identical (n-1)-lists
    known = {(1, 0): 1, (1, 1): 1, (2, 0): 1, (2, 1): 2, (2, 2): 2,
             (3, 0): 1, (3, 1): 2, (3, 2): 3, (3, 3): 3,
             (4, 0): 1, (4, 1): 2, (4, 2): 3, (4, 3): 4}
    for (n, c), value in known.items():
        assert chi_l_complete_search(n, c, cap=16).chi_l == value, (n, c)


def test_exact_chi_l_graph_examples():
    path3 = SmallGraph.of(3, [(0, 1), (1, 2)])
    assert chi_l_graph_search(path3, 1).chi_l == 2
    assert chi_l_graph_search(SmallGraph.of(4, []), 1).chi_l == 1
    for n in (1, 2, 3):
        assert (chi_l_graph_search(complete_graph(n), 1).chi_l
                == chi_l_complete_search(n, 1).chi_l)


def _all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield SmallGraph(n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1))


def test_induced_subgraph_monotonicity():
    cache: dict[tuple, int] = {}

    def chi(graph, c):
        key = (graph.n, graph.edges, c)
        if key not in cache:
            cache[key] = chi_l_graph_search(graph, c).chi_l
        return cache[key]

    for graph in _all_labeled_graphs(4):
        whole = chi(graph, 1)
        for kept in itertools.combinations(range(4), 3):
            index = {v: i for i, v in enumerate(kept)}
            sub = SmallGraph.of(3, [(index[u], index[v]) for u, v in graph.edges
                                    if u in index and v in index])
            assert chi(sub, 1) <= whole


# -- conjecture probe ---------------------------------------------------------------

def test_probe_tiny():
    report = conjecture_probe(2, 1)
    assert report.counterexample is None
    assert report.graphs_checked == 3  # one 1-vertex graph, two 2-vertex graphs
    assert report.complete_values == {1: 1, 2: 2}


def test_probe_three_vertices():
    report = conjecture_probe(3, 1)
    assert report.counterexample is None
    assert report.graphs_checked == 3 + 8


def test_probe_cap():
    # no search cap raises the labeled-graph limit, so it is not a SearchTooLarge
    with pytest.raises(ValueError, match="n_max") as refusal:
        conjecture_probe(6, 1)
    assert not isinstance(refusal.value, SearchTooLarge)
