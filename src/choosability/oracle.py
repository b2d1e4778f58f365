"""Ground-truth brute force at desk scale.

The adversary space for the list-size question is enumerated in a
canonical form that kills color-relabeling symmetry exactly: an
assignment is canonical when it is the lexicographically smallest member
of its orbit under color permutations, which works out to sorting the
per-color vertex sets by their characteristic vectors. The enumerator is
orderly: it extends assignments vertex by vertex and drops a partial
assignment as soon as two adjacent colors' vertex sets are out of that
order, which no later vertex can repair, so every assignment it completes
is canonical and no finished assignment is thrown away. Every
(k,c)-assignment is equivalent to exactly one canonical assignment, so
running the canonical space through a backtracking colorer decides whether
a given k always admits a proper coloring.

Searches refuse instead of truncating: a partial search must never report
an exact value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instances import ListAssignment


class SearchTooLarge(ValueError):
    """The search's n * k exceeds the configured cap."""


DEFAULT_SEARCH_CAP = 14  # refuse enumerations with n * k above this

Assignment = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SmallGraph:
    """Simple undirected graph on vertices 0..n-1, edges as sorted pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not 0 <= u < v < self.n:
                raise ValueError(f"bad edge ({u}, {v}) for {self.n} vertices")

    @classmethod
    def of(cls, n: int, edge_iter) -> "SmallGraph":
        return cls(n, tuple(sorted({(min(u, v), max(u, v)) for u, v in edge_iter})))


def complete_graph(n: int) -> SmallGraph:
    return SmallGraph.of(n, itertools.combinations(range(n), 2))


def iter_canonical_assignments(n: int, k: int, c: int, *, edges=None,
                               cap: int = DEFAULT_SEARCH_CAP):
    """Yield every canonical (k,c)-assignment on n vertices exactly once,
    in lexicographic order.

    `edges` restricts the pairwise intersection cap to adjacent pairs;
    None means the complete graph. Partial assignments violating the
    intersection cap, or whose color columns are already out of canonical
    order, are pruned, so every assignment completed is yielded. Raises
    SearchTooLarge when n * k exceeds `cap` (the search is refused
    outright, never truncated) and ValueError on a self-loop or an edge
    endpoint outside 0..n-1.
    """
    if n < 0 or k < 0 or c < 0:
        raise ValueError(f"need n, k, c >= 0, got ({n}, {k}, {c})")
    if n * k > cap:
        raise SearchTooLarge(
            f"refusing exhaustive search: n * k = {n * k} exceeds cap {cap}"
        )
    pairs = (itertools.combinations(range(n), 2) if edges is None
             else SmallGraph.of(n, edges).edges)
    prev_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        prev_adj[v].append(u)
    return _generate(n, k, c, prev_adj)


def _generate(n, k, c, prev_adj):
    # depth first over the vertices, each list a k-subset of the colors in
    # use plus k fresh ones, in lexicographic order. cols[x] has bit n-1-v
    # set when vertex v lists color x; an assignment is canonical exactly
    # when cols is non-increasing. Later vertices set only lower bits, so
    # once cols[x-1] < cols[x] the prefix can never become canonical: a list
    # holding x but not x-1 is pruned when that would happen. The prune also
    # forces restricted growth, so the colors in use are the nonempty columns,
    # cols.index(0) of them (one column is spare). frames[v] is vertex v's
    # combination iterator; the last vertex's lists are yielded in place.
    if not n:
        yield ()
    lists: list[tuple[int, ...]] = []
    masks: list[int] = []
    cols = [0] * (n * k + 1)
    frames = [itertools.combinations(range(k), k)] if n else []
    while frames:
        v = len(frames) - 1
        bit = 1 << (n - 1 - v)
        if len(lists) > v:  # back at frame v: take back its previous list
            for x in lists.pop():
                cols[x] ^= bit
            masks.pop()
        for combo in frames[v]:
            if any(cols[x - 1] < cols[x] | bit for x in combo if x and x - 1 not in combo):
                continue
            mask = 0
            for x in combo:
                mask |= 1 << x
            if any((mask & masks[u]).bit_count() > c for u in prev_adj[v]):
                continue
            if v == n - 1:
                yield (*lists, combo)
                continue
            for x in combo:
                cols[x] |= bit
            lists.append(combo)
            masks.append(mask)
            frames.append(itertools.combinations(range(cols.index(0) + k), k))
            break
        else:
            frames.pop()


@dataclass(frozen=True)
class ChiSearchResult:
    """Outcome of an exact list-size search.

    `defeated_by` is the first canonical assignment that defeats list size
    chi_l - 1 (None when chi_l == 1); `assignments_checked` counts every
    assignment examined across all candidate k.
    """

    n: int
    c: int
    chi_l: int
    defeated_by: Assignment | None
    assignments_checked: int


def _first_uncolorable(n: int, k: int, c: int, edges, cap: int) -> tuple[Assignment | None, int]:
    """The first canonical (k,c)-assignment on the graph that is not
    colorable (None if none) and how many were examined. One `forced` search
    decides each run of assignments sharing the lists of vertices 0..n-2.
    The enumerator refuses n * k over `cap` before the colorer's setup runs."""
    assignments = iter_canonical_assignments(n, k, c, edges=edges, cap=cap)
    forced = _colorer(n, edges)
    checked = 0
    prefix = used = None
    for assignment in assignments:
        checked += 1
        if assignment[:-1] != prefix:
            prefix = assignment[:-1]
            used = forced(assignment)
        if n and (used is None or used.issuperset(assignment[-1])):
            return assignment, checked
    return None, checked


def _chi_search(n: int, c: int, edges, cap: int) -> ChiSearchResult:
    if n < 1 or c < 0:
        raise ValueError(f"need n >= 1 and c >= 0, got n={n}, c={c}")
    checked = 0
    defeated = None
    for k in range(1, n + 1):
        bad, examined = _first_uncolorable(n, k, c, edges, cap)
        checked += examined
        if bad is None:
            return ChiSearchResult(n=n, c=c, chi_l=k, defeated_by=defeated,
                                   assignments_checked=checked)
        defeated = bad
    raise AssertionError("list size n always suffices on n vertices")


def chi_l_complete_search(n: int, c: int, *, cap: int = DEFAULT_SEARCH_CAP) -> ChiSearchResult:
    """Exact least k such that every canonical (k,c)-assignment on K_n is
    colorable, decided by the backtracking of `chi_l_graph_search` (not by
    the matching solver, which it thereby cross-checks)."""
    return _chi_search(n, c, None, cap)


def _colorer(n: int, edges):
    """`forced(lists)` for the graph G on n vertices with these edges (None
    for the complete graph), built once per enumeration. With w = n-1 it is
    None when G - w has no proper coloring from lists[:w], else a set holding
    every color that all of them put on w's neighbors N(w). A coloring of
    G - w extends to w exactly when lists[w] holds a color it leaves off N(w)
    (Erdos-Rubin-Taylor), so the lists are colorable exactly when the set
    misses a color of lists[w]. The search backtracks over G - w, N(w) first,
    and returns once fewer colors than lists[w] holds are common so far."""
    w = n - 1
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2) if edges is None else edges:
        adj[u].add(v)
        adj[v].add(u)
    near = adj[w] if n else set()
    order = sorted(range(w), key=lambda v: (v not in near, -len(adj[v]), v))
    # step i colors order[i], unlike the earlier steps placed[i] adjacent to it
    placed = [[j for j in range(i) if order[j] in adj[v]] for i, v in enumerate(order)]
    m = len(near)  # steps 0..m-1 color N(w)
    chosen = [-1] * len(order)

    def forced(lists) -> set | None:
        if not order:
            return set()
        common = None
        # frames[i] iterates the colors that step i has not tried yet
        frames = [iter(lists[order[0]])]
        while frames:
            i = len(frames) - 1
            for color in frames[i]:
                if all(chosen[j] != color for j in placed[i]):
                    chosen[i] = color
                    # a color that puts all of `common` on N(w) cannot shrink it
                    if i >= m or common is None or not common.issubset(chosen[:i + 1]):
                        break
            else:
                frames.pop()
                continue
            if i + 1 < len(order):
                frames.append(iter(lists[order[i + 1]]))
                continue
            common = set(chosen[:m]) if common is None else common.intersection(chosen[:m])
            if len(common) < len(set(lists[w])):
                break
            del frames[m:]  # the steps after N(w) cannot change its colors
        return common

    return forced


def list_colorable_graph(graph: SmallGraph, assignment: ListAssignment) -> bool:
    """Proper list-colorability of an arbitrary graph, by `_colorer`'s
    backtracking. Raises ValueError when the assignment does not have one
    list per vertex."""
    if assignment.n != graph.n:
        raise ValueError(f"assignment has {assignment.n} lists for {graph.n} vertices")
    used = _colorer(graph.n, graph.edges)(assignment.lists)
    return not graph.n or (used is not None and not used.issuperset(assignment.lists[-1]))


def chi_l_graph_search(graph: SmallGraph, c: int, *, cap: int = DEFAULT_SEARCH_CAP) -> ChiSearchResult:
    """Exact least k such that every canonical (k,c)-assignment on the
    graph (cap applying to adjacent pairs only) is colorable."""
    return _chi_search(graph.n, c, graph.edges, cap)


# the benchmark's golden-table script (perfbench/make_golden.py) calls this name
def exact_chi_l_graph(graph: SmallGraph, c: int, *, cap: int = DEFAULT_SEARCH_CAP) -> int:
    return chi_l_graph_search(graph, c, cap=cap).chi_l


@dataclass(frozen=True)
class ProbeReport:
    """Result of the exhaustive no-graph-beats-the-complete-graph probe."""

    n_max: int
    c: int
    complete_values: dict
    counterexample: tuple[SmallGraph, Assignment] | None
    graphs_checked: int
    assignments_checked: int


def conjecture_probe(n_max: int, c: int, *, cap: int = DEFAULT_SEARCH_CAP) -> ProbeReport:
    """Check, for every labeled graph G on up to n_max vertices, that G is
    colorable from every (k,c)-assignment with k the exact value for K_n.

    A counterexample would be a graph needing larger lists than the
    complete graph on the same vertices; the report carries the witnessing
    assignment. Labeled-graph enumeration caps n_max at 5.
    """
    if not 1 <= n_max <= 5 or c < 0:
        raise ValueError(f"need 1 <= n_max <= 5 (the probe enumerates all labeled graphs) "
                         f"and c >= 0, got n_max={n_max}, c={c}")
    complete_values: dict[int, int] = {}
    counterexample = None
    graphs_checked = 0
    assignments_checked = 0
    for n in range(1, n_max + 1):
        k0 = chi_l_complete_search(n, c, cap=cap).chi_l
        complete_values[n] = k0
        all_pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(all_pairs)):
            edges = tuple(pair for i, pair in enumerate(all_pairs) if bits >> i & 1)
            graphs_checked += 1
            bad, examined = _first_uncolorable(n, k0, c, edges, cap)
            assignments_checked += examined
            if bad is not None:
                counterexample = (SmallGraph(n, edges), bad)
                break
        if counterexample is not None:
            break
    return ProbeReport(n_max=n_max, c=c, complete_values=complete_values,
                       counterexample=counterexample, graphs_checked=graphs_checked,
                       assignments_checked=assignments_checked)
