"""List-colorability of complete graphs via bipartite matching.

K_n is colorable from lists L exactly when the bipartite vertex-color
adjacency graph (vertex v adjacent to every color in L(v)) has a matching
saturating all n vertices, because on a complete graph every vertex needs
its own color. The decision procedure therefore runs a maximum matching
on the lists themselves and, on failure, reads a Hall violator off the
matching's last search: a vertex set S whose combined lists contain fewer
than |S| colors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from .instances import ColorOutOfRange, ListAssignment  # solver exports ColorOutOfRange too


@dataclass(frozen=True)
class ColorabilityResult:
    """Either a proper coloring or a Hall-violator certificate.

    Exactly one of `coloring` and `violator` is set. The violator is a
    pair (S, N) of sorted vertex and color tuples with N the full
    neighborhood of S and |N| < |S|.
    """

    coloring: tuple[int, ...] | None = None
    violator: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        if (self.coloring is None) == (self.violator is None):
            raise ValueError("exactly one of coloring and violator must be set")

    @property
    def colorable(self) -> bool:
        return self.coloring is not None


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a (k,c)-validity check, with the first witness on failure."""

    valid: bool
    bad_vertex: int | None = None
    bad_pair: tuple[int, int] | None = None
    overlap: int | None = None


def _hopcroft_karp(lists):
    """Maximum matching of vertices to listed colors in O(E * sqrt(V)); deterministic.

    Returns (match_l, dist): match_l[v] is v's color or -1. The last
    breadth-first search found no free color, so its dist[v] >= 0 exactly
    for the vertices that alternating paths reach from unmatched ones.
    Vertices and colors are scanned in list order, so the matching (and
    every certificate derived from it) is reproducible.
    """
    n = len(lists)
    match_l = [-1] * n
    match_r: dict[int, int] = {}
    dist = [0] * n

    def bfs() -> bool:
        # one level at a time: the next level is the partners of the colors
        # the frontier lists, less the vertices seen (a free color's partner
        # reads None); distances do not depend on the order a level is read in
        dist[:] = [0 if color == -1 else -1 for color in match_l]
        frontier = [v for v in range(n) if match_l[v] == -1]
        seen = set()  # free vertices are matched to no color, so never reached
        found_free, level = False, 0
        while frontier:
            reached = set(map(match_r.get, chain.from_iterable(map(lists.__getitem__, frontier))))
            if None in reached:
                found_free = True
                reached.discard(None)
            reached -= seen
            seen |= reached
            level += 1
            for u in reached:
                dist[u] = level
            frontier = reached
        return found_free

    def dfs(root: int) -> bool:
        # explicit stack (augmenting paths can be long); frames hold the
        # vertex, its color iterator, and the color currently explored
        stack = [[root, iter(lists[root]), -1]]
        while stack:
            frame = stack[-1]
            v, colors = frame[0], frame[1]
            descended = False
            for color in colors:
                u = match_r.get(color, -1)
                if u == -1:
                    frame[2] = color
                    for fv, _, fcolor in stack:
                        match_l[fv] = fcolor
                        match_r[fcolor] = fv
                    return True
                if dist[u] == dist[v] + 1:
                    frame[2] = color
                    stack.append([u, iter(lists[u]), -1])
                    descended = True
                    break
            if not descended:
                dist[v] = -1
                stack.pop()
        return False

    # the first search finds every vertex free, at distance 0, so its round
    # of searches is this greedy pass: each vertex takes its first free color
    for v, lst in enumerate(lists):
        for color in lst:
            if color not in match_r:
                match_l[v] = color
                match_r[color] = v
                break
    while bfs():
        for v in range(n):
            if match_l[v] == -1:
                dfs(v)
    return match_l, dist


def colorable(assignment: ListAssignment) -> ColorabilityResult:
    """Decide L-colorability of K_n, with a coloring or a Hall violator.

    The violator is the set S of vertices reachable by alternating paths
    from the unmatched vertices of a maximum matching, the standard
    deficiency certificate: |S| - |N(S)| equals n minus the matching size.
    """
    lists = assignment.lists
    match_l, dist = _hopcroft_karp(lists)
    if -1 not in match_l:
        return ColorabilityResult(coloring=tuple(match_l))

    violator_s = tuple(v for v, d in enumerate(dist) if d >= 0)
    neighbors = tuple(sorted(set(chain.from_iterable(map(lists.__getitem__, violator_s)))))
    if len(neighbors) >= len(violator_s):
        raise AssertionError("deficiency certificate failed its own recount")
    return ColorabilityResult(violator=(violator_s, neighbors))


def pair_overlaps(assignment: ListAssignment, c: int):
    """Yield (u, sizes, over) for each list u of `assignment`, in index
    order: `sizes` holds the overlaps of at most max(c, 0) colors that u has
    with later lists, and `over` is every later list v sharing more than c
    colors with u, as (v, exact overlap) in index order. One pass reads the
    lists, each as given, from the last to the first, with list v at bit
    n-1-v of each color's column, so the columns of list u hold exactly the
    later lists, in their low n-1-u bits, and u's bit joins them once they
    are read. The columns are a plain list indexed by color when num_colors
    is at most T, the total entry count, and a dict otherwise, so they stay
    linear in the input. Bit j of planes[i] is set when list n-1-j shares
    more than i colors with u: a saturating unary counter over u's columns
    (Knuth, TAOCP 4A §7.1.3), so each list costs O(k * c) operations on ints
    of about n - u bits, not one AND per other list. The pass keeps only
    each list's sizes and whether some later list is over c; a flagged
    list recounts its top plane when it is yielded.
    """
    lists, n = assignment.lists, assignment.n
    top = min(max(c, 0), max(map(len, lists), default=0))  # planes above plane 0
    if assignment.num_colors <= sum(map(len, lists)):
        columns = [0] * assignment.num_colors
    else:
        columns = defaultdict(int)

    def count(entries, bit):
        """The planes over the columns of `entries`, ORing `bit` into each once read."""
        low, upper = 0, [0] * top  # planes[0] and the planes above it
        for entry in entries:
            column = columns[entry]
            # carry holds the lists whose count this entry lifts past the
            # plane below; in a design within the cap it is mostly empty
            carry = low & column
            low |= column
            if carry:
                i = 0
                while carry and i < top:
                    plane = upper[i]
                    upper[i] = plane | carry
                    carry &= plane
                    i += 1
            columns[entry] = column | bit
        return [low, *upper]

    # per list, bit i + 1 is set when a later list shares exactly i entries,
    # and bit 0 when one shares more than c
    records = [0] * n
    for u in range(n - 1, -1, -1):
        lst, bit = lists[u], 1 << (n - 1 - u)
        planes = count(lst, bit)
        # the later lists sharing i or more entries nest; where two differ, some list shares i
        record, above = 0, bit - 1
        for i, plane in enumerate(planes):
            if plane != above:
                record |= 2 << i
            above = plane
        records[u] = record | bool(planes[-1] if c >= 0 else bit - 1)
    for u, record in enumerate(records):
        over = []
        if record & 1:  # recount the top plane, from the finished columns masked to the later lists
            entries = set(lists[u])
            later = (1 << (n - 1 - u)) - 1
            flagged = count(entries, 0)[-1] & later if c >= 0 else later
            while flagged:  # highest bit, so lowest v, first
                j = flagged.bit_length() - 1
                flagged ^= 1 << j
                over.append((n - 1 - j, len(entries & set(lists[n - 1 - j]))))
        yield u, {i for i in range(top + 1) if record >> i + 1 & 1}, over


def validate_assignment(assignment: ListAssignment, k: int, c: int) -> ValidityReport:
    """Check that every list has size k and every pair overlaps in <= c colors.

    Returns the first offending vertex (size violation) or vertex pair
    (overlap violation) in index order.
    """
    lists = assignment.lists
    for v, lst in enumerate(lists):
        if len(lst) != k:
            return ValidityReport(valid=False, bad_vertex=v)
    if c >= k:  # lists of size k share at most k colors
        return ValidityReport(valid=True)
    for u, _, over in pair_overlaps(assignment, c):
        if over:
            v, size = over[0]
            return ValidityReport(valid=False, bad_pair=(u, v), overlap=size)
    return ValidityReport(valid=True)


def verify_coloring(assignment: ListAssignment, coloring) -> bool:
    """True iff the coloring is proper for K_n: distinct colors, each from its list."""
    colors = list(coloring)
    if len(colors) != assignment.n:
        return False
    if len(set(colors)) != len(colors):
        return False
    return all(color in assignment.lists[v] for v, color in enumerate(colors))


def check_certificate(assignment: ListAssignment,
                      certificate: ColorabilityResult) -> tuple[bool, str]:
    """Check a coloring or Hall-violator certificate against the instance,
    recounting the violator's neighborhood; returns (ok, reason)."""
    if certificate.colorable:
        if verify_coloring(assignment, certificate.coloring):
            return True, "coloring is proper and drawn from the lists"
        return False, "coloring is not a proper coloring of the instance"
    violator_s, claimed_neighborhood = certificate.violator
    if not violator_s:
        return False, "violator set is empty"
    if not (0 <= min(violator_s) and max(violator_s) < assignment.n):
        return False, "violator set references vertices outside the instance"
    if len(set(violator_s)) != len(violator_s):
        return False, "violator set repeats a vertex"
    actual: set[int] = set()
    for v in violator_s:
        actual.update(assignment.lists[v])
    if tuple(sorted(actual)) != tuple(sorted(claimed_neighborhood)):
        return False, "claimed neighborhood differs from the recounted one"
    if len(actual) >= len(violator_s):
        return False, "claimed violator does not violate Hall's condition"
    return True, "violator recount confirms |N(S)| < |S|"
