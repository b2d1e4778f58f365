"""Shared independent oracles and instance builders for the test suite.

These deliberately re-derive results through different algorithms than the
package uses (augmenting-path matching instead of Hopcroft-Karp, a
breadth-first search one vertex at a time instead of one level at a time, trial
division instead of Miller-Rabin, filter-based enumeration instead of the
pruned generator, one AND per pair of lists instead of the column counter,
a full coloring search per assignment instead of one search of G - w per
run of assignments, an orbit scan of every pair instead of the class table
built from whole multiplication rows, both step-down prime searches rerun
on every row of a bounds table instead of once per step, the asymptotic
term's whole prime window searched instead of its two deciding primes, every
header field checked by the instance loader instead of by `ListAssignment`),
so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from choosability.bounds import (
    BoundsReport,
    _ceil_sqrt_half,
    _hall_q,
    icbrt_ceil,
    is_admissible,
    is_prime,
)
from choosability.construction import ClassSpace, DesignReport
from choosability.formats import INSTANCE_FORMAT_VERSION, FormatError, _parse_json, _require
from choosability.gf import FiniteField
from choosability.instances import ListAssignment
from choosability.oracle import iter_canonical_assignments
from choosability.solver import ValidityReport

# every admissible pair with q <= 16; superset of the 13 pairs the
# acceptance criteria name
ADMISSIBLE_16 = [(q, c) for q in (3, 4, 5, 7, 8, 9, 11, 13, 16)
                 for c in range(1, q - 1) if (q - 1) % c == 0]


# a header field that is no int >= 0: negative, a bool, a float, a string,
# null and an array, which is unhashable
BAD_HEADER_VALUES = [-1, True, 3.0, "5", None, [1]]


def admissible_prime_powers(c: int, q_max: int) -> list[int]:
    """All prime powers q <= q_max with c | q-1 and c < q-1, ascending."""
    return [q for q in range(c + 1, q_max + 1, c) if is_admissible(q, c)]


def assignment_from_lists(lists, c: int, num_colors: int | None = None,
                          k: int | None = None, meta: dict | None = None) -> ListAssignment:
    """Build a ListAssignment from an iterable of color iterables.

    Lists are deduplicated and sorted. When omitted, k is taken from the
    first list and num_colors from the largest color id present.
    """
    norm = tuple(tuple(sorted(set(lst))) for lst in lists)
    if k is None:
        k = len(norm[0]) if norm else 0
    if num_colors is None:
        num_colors = 1 + max((lst[-1] for lst in norm if lst), default=-1)
    return ListAssignment(k=k, c=c, num_colors=num_colors, lists=norm, meta=meta)


def furedi_hypergraph(q: int, c: int) -> ListAssignment:
    """The q-uniform hypergraph on class ids whose edge i is the incidence
    list of class i: (q^2-1)/c vertices and edges, intersections <= c.
    Needs only c | q-1, so it also covers c = q-1, which `hard_instance`
    refuses."""
    space = ClassSpace(FiniteField(q), c)
    edges = tuple(space.list_of_class(i) for i in range(len(space.reps)))
    return ListAssignment(k=q, c=c, num_colors=len(edges), lists=edges)


def class_of(space: ClassSpace, a: int, b: int) -> int:
    """The id of the class of the nonzero pair (a, b): the index in
    `space.reps` of the smallest pair of its orbit under the subgroup."""
    fld = space.field
    return space.reps.index(min((fld.mul(t, a), fld.mul(t, b)) for t in space.subgroup))


def reference_class_table(fld: FiniteField, c: int):
    """`ClassSpace.__init__` as an orbit scan, one orbit per unvisited pair:
    returns (reps, class_id), with class_id[a*q + b] the id of the nonzero
    pair (a, b) and class_id[0] = -1."""
    q = fld.q
    subgroup = frozenset(x for x in range(1, q) if fld.pow(x, c) == 1)

    # scanning pairs in lexicographic order meets every orbit first at
    # its smallest member, so classes come out in representative order;
    # index 0, the origin, is never filled
    class_id = [-1] * (q * q)
    reps: list[tuple[int, int]] = []
    for key in range(1, q * q):
        if class_id[key] >= 0:
            continue
        a, b = divmod(key, q)
        orbit = {fld.mul(t, a) * q + fld.mul(t, b) for t in subgroup}
        if len(orbit) != c:
            raise AssertionError("scaling action is not free")
        for member in orbit:
            class_id[member] = len(reps)
        reps.append((a, b))
    return tuple(reps), class_id


def kuhn_matching_size(adj, n_left: int, n_right: int) -> int:
    """Maximum bipartite matching size by plain augmenting-path search."""
    match_r = [-1] * n_right

    def try_augment(v, seen):
        for color in adj[v]:
            if color in seen:
                continue
            seen.add(color)
            if match_r[color] == -1 or try_augment(match_r[color], seen):
                match_r[color] = v
                return True
        return False

    size = 0
    for v in range(n_left):
        if try_augment(v, set()):
            size += 1
    return size


def reference_hopcroft_karp(lists):
    """`solver._hopcroft_karp` with its breadth-first search run one vertex
    at a time from a queue, reading each color's partner in Python.

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
        queue = deque()
        for v in range(n):
            if match_l[v] == -1:
                dist[v] = 0
                queue.append(v)
            else:
                dist[v] = -1
        found_free = False
        while queue:
            v = queue.popleft()
            for color in lists[v]:
                u = match_r.get(color, -1)
                if u == -1:
                    found_free = True
                elif dist[u] == -1:
                    dist[u] = dist[v] + 1
                    queue.append(u)
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


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def totient(n: int) -> int:
    count = 0
    for a in range(1, n + 1):
        if math.gcd(a, n) == 1:
            count += 1
    return count


def relabel_by_first_appearance(lists) -> tuple:
    """Rename colors in order of first appearance (vertices in order,
    lists sorted); the result is in restricted-growth order."""
    rename: dict[int, int] = {}
    for lst in lists:
        for color in sorted(lst):
            if color not in rename:
                rename[color] = len(rename)
    return tuple(tuple(sorted(rename[color] for color in lst)) for lst in lists)


def brute_force_canonical(lists) -> tuple:
    """Lexicographic minimum of an assignment's color-permutation orbit,
    found by trying every permutation of the colors in use. Only viable
    for a handful of colors; meant as an independent cross-check."""
    colors = sorted({color for lst in lists for color in lst})
    best = None
    for perm in itertools.permutations(range(len(colors))):
        mapping = dict(zip(colors, perm))
        candidate = tuple(tuple(sorted(mapping[color] for color in lst))
                          for lst in lists)
        if best is None or candidate < best:
            best = candidate
    return best if best is not None else tuple(tuple(lst) for lst in lists)


def canonical_form(lists) -> tuple:
    """The lexicographically smallest color relabeling of an assignment.

    Relabeling colors permutes the per-color vertex sets ("columns");
    the tuple of sorted lists is minimized exactly when the columns are
    numbered in ascending characteristic-vector order (at the first vertex
    where two columns differ, the one containing it comes first). An
    adjacent swap violating that order strictly lowers the first affected
    list, so the sorted order is the unique minimum.
    """
    n = len(lists)
    columns: dict[int, list[int]] = {}
    for v, lst in enumerate(lists):
        for color in lst:
            columns.setdefault(color, []).append(v)

    def column_key(vertices: list[int]) -> tuple[int, ...]:
        bits = [1] * n
        for v in vertices:
            bits[v] = 0
        return tuple(bits)

    order = sorted(columns.values(), key=column_key)
    relabeled: list[list[int]] = [[] for _ in range(n)]
    for new_id, vertices in enumerate(order):
        for v in vertices:
            relabeled[v].append(new_id)
    return tuple(tuple(lst) for lst in relabeled)


def generate_then_filter(n: int, k: int, c: int, edges=None):
    """Canonical (k,c)-assignments on n vertices in the enumerator's order,
    by the generate-then-filter method: every restricted-growth candidate
    passing the intersection cap on adjacent pairs (`edges`, None for the
    complete graph) is built in full, and kept when `canonical_form` leaves
    it unchanged. This is the enumerator as it was before it pruned
    non-canonical prefixes at interior nodes."""
    pairs = itertools.combinations(range(n), 2) if edges is None else edges
    prev_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        prev_adj[max(u, v)].append(min(u, v))
    lists: list[tuple[int, ...]] = []
    masks: list[int] = []

    def extend(v: int, next_fresh: int):
        if v == n:
            snapshot = tuple(lists)
            if canonical_form(snapshot) == snapshot:
                yield snapshot
            return
        for combo in itertools.combinations(range(next_fresh + k), k):
            fresh = sum(1 for color in combo if color >= next_fresh)
            # fresh colors must be the next ids in order, nothing skipped
            if fresh and combo[-fresh:] != tuple(range(next_fresh, next_fresh + fresh)):
                continue
            mask = sum(1 << color for color in combo)
            if any((mask & masks[u]).bit_count() > c for u in prev_adj[v]):
                continue
            lists.append(combo)
            masks.append(mask)
            yield from extend(v + 1, next_fresh + fresh)
            lists.pop()
            masks.pop()

    yield from extend(0, 0)


def overlap_rows(lists):
    """Yield (u, row) for each list u, where row[j] counts the entries that
    lists u and u + 1 + j share: every pair once, in index order.

    Each list becomes a bitmask whose bits rank entries by first appearance,
    so any int ids work and a repeated entry counts once.
    """
    rank: dict[int, int] = {}
    masks = []
    for lst in lists:
        mask = 0
        for entry in lst:
            mask |= 1 << rank.setdefault(entry, len(rank))
        masks.append(mask)
    for u, mask in enumerate(masks):
        yield u, [(mask & other).bit_count() for other in masks[u + 1:]]


def reference_validate_assignment(assignment, k: int, c: int) -> ValidityReport:
    """`solver.validate_assignment` by comparing every pair of lists."""
    for v, lst in enumerate(assignment.lists):
        if len(lst) != k:
            return ValidityReport(valid=False, bad_vertex=v)
    for u, row in overlap_rows(assignment.lists):
        for j, size in enumerate(row):
            if size > c:
                return ValidityReport(valid=False, bad_pair=(u, u + 1 + j), overlap=size)
    return ValidityReport(valid=True)


def _is_int(value) -> bool:
    # bool is an int subclass; JSON true/false must not pass as numbers
    return isinstance(value, int) and not isinstance(value, bool)


def reference_loads_instance(text: str) -> ListAssignment:
    """`formats.loads_instance` as it was when it checked every header field
    itself, before it left `c`, `k` and `num_colors` to `ListAssignment`;
    only the `n=` keyword the type no longer takes is dropped, and a `meta`
    that is no dict, which the type now refuses, is passed as None (it is
    refused below the build either way)."""
    data = _parse_json(text)
    _require(isinstance(data, dict), "instance must be a JSON object")
    for key in ("format_version", "n", "c", "k", "num_colors", "lists"):
        _require(key in data, f"missing required field '{key}'")
    version = data["format_version"]
    _require(_is_int(version) and version == INSTANCE_FORMAT_VERSION,
             f"unsupported format_version {version!r}")
    n, c, k, num_colors = data["n"], data["c"], data["k"], data["num_colors"]
    for name, value in (("n", n), ("c", c), ("k", k), ("num_colors", num_colors)):
        _require(_is_int(value) and value >= 0,
                 f"field '{name}' must be a nonnegative integer, got {value!r}")
    lists = data["lists"]
    _require(isinstance(lists, list), "field 'lists' must be an array")
    _require(len(lists) == n, f"expected {n} lists, found {len(lists)}")
    # a list that is no array of k colors is named only after the lists
    # before it, which go to ListAssignment to have their colors checked
    shaped = n
    if not (set(map(type, lists)) <= {list} and set(map(len, lists)) <= {k}):
        shaped = next(v for v, lst in enumerate(lists)
                      if not (isinstance(lst, list) and len(lst) == k))
    meta = data.get("meta")
    try:
        assignment = ListAssignment(k=k, c=c, num_colors=num_colors,
                                    lists=tuple(map(tuple, lists[:shaped])),
                                    meta=meta if isinstance(meta, dict) and meta else None)
    except ValueError as exc:  # ColorOutOfRange or a list not strictly increasing
        raise FormatError(str(exc)) from exc
    if shaped < n:
        _require(isinstance(lists[shaped], list), f"lists[{shaped}] must be an array")
        raise FormatError(f"lists[{shaped}] has {len(lists[shaped])} colors, expected k={k}")
    _require(meta is None or isinstance(meta, dict), "field 'meta' must be an object")
    return assignment


def reference_verify_design(design, q: int, c: int) -> DesignReport:
    """`construction.verify_design` by comparing every pair of edges, with
    degrees counted edge by edge."""
    violations = []
    degrees = [0] * design.num_colors
    for i, edge in enumerate(design.lists):
        if len(edge) != q:
            violations.append(f"edge {i} has size {len(edge)}, expected {q}")
        for v in edge:
            degrees[v] += 1
    sizes = set()
    for i, row in overlap_rows(design.lists):
        sizes.update(row)
        violations.extend(f"edges {i} and {j} intersect in {size} > {c} vertices"
                          for j, size in enumerate(row, i + 1) if size > c)
    histogram: dict[int, int] = {}
    for d in degrees:
        histogram[d] = histogram.get(d, 0) + 1
    return DesignReport(
        ok=not violations,
        n_vertices=design.num_colors,
        n_edges=len(design.lists),
        max_intersection=max(sizes, default=0),
        intersection_sizes=tuple(sorted(sizes)),
        degree_histogram=dict(sorted(histogram.items())),
        violations=violations,
    )


def reference_colorer(n: int, edges):
    """The backtracking list-colorability test for the graph on n vertices
    with these edges (None for the complete graph), applied to raw
    per-vertex lists: vertices are tried in decreasing degree order, each
    against the neighbors placed before it, until one proper coloring is
    found."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2) if edges is None else edges:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    steps = [(v, [u for u in order[:i] if u in adj[v]]) for i, v in enumerate(order)]
    chosen = [-1] * n

    def colorable(lists) -> bool:
        # frames[i] iterates the colors that step i has not tried yet
        frames = [iter(lists[steps[0][0]])] if steps else []
        while frames:
            i = len(frames) - 1
            v, placed = steps[i]
            for color in frames[i]:
                if all(chosen[u] != color for u in placed):
                    chosen[v] = color
                    break
            else:
                frames.pop()
                continue
            if i + 1 == len(steps):
                return True
            frames.append(iter(lists[steps[i + 1][0]]))
        return not steps

    return colorable


def reference_first_uncolorable(n: int, k: int, c: int, edges, cap: int):
    """`oracle._first_uncolorable` with `reference_colorer` run on every
    assignment the canonical enumerator yields."""
    colorable = reference_colorer(n, edges)
    checked = 0
    for assignment in iter_canonical_assignments(n, k, c, edges=edges, cap=cap):
        checked += 1
        if not colorable(assignment):
            return assignment, checked
    return None, checked


def _largest_one_mod_c(hi: int, lo: int, c: int, accept) -> int | None:
    """Largest q in [lo, hi] with q = 1 (mod c) and accept(q), else None."""
    for q in range(hi - (hi - 1) % c, lo - 1, -c):
        if accept(q):
            return q
    return None


def reference_lower_bound_constructive(n: int, c: int) -> tuple[int, str]:
    """`bounds.lower_bound_constructive` with its search rerun on every call."""
    if n < 1 or c < 1:
        raise ValueError(f"need n >= 1 and c >= 1, got n={n}, c={c}")
    best = 0
    if n >= 2:
        q_cap = math.isqrt(c * (n - 2) + 1)
        q = _largest_one_mod_c(q_cap, c + 2, c, lambda x: is_admissible(x, c))
        if q is not None:
            best = q + 1
    fallback = max(1, _ceil_sqrt_half(c * n))
    if best >= fallback:
        return best, "constructive"
    return fallback, "ktv"


def reference_lower_bound_asymptotic(n: int, c: int) -> int:
    """The asymptotic term of `bounds.bounds_report`, floor(sqrt(c*(n-2)+1) + 1)
    - ceil(n^(1/3)) floored at 1, with its own isqrt and cube root."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    return max(1, math.isqrt(c * (n - 2) + 1) + 1 - icbrt_ceil(n))


def reference_find_admissible_prime(n: int, c: int) -> int | None:
    """The prime that admits `bounds.bounds_report`'s asymptotic term: the
    largest prime q = 1 (mod c) in [max(2, hi - ceil(n^(1/3))), hi], hi =
    isqrt(c*(n-2)+1) + 1, or None, with its search rerun on every call."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    hi = math.isqrt(c * (n - 2) + 1) + 1
    return _largest_one_mod_c(hi, max(2, hi - icbrt_ceil(n)), c, is_prime)


def reference_bounds_report(n: int, c: int) -> BoundsReport:
    """`bounds.bounds_report` built from the reference searches above."""
    if n < 1 or c < 1:
        raise ValueError(f"need n >= 1 and c >= 1, got n={n}, c={c}")
    lower, tag = reference_lower_bound_constructive(n, c)
    if n >= 2 and reference_find_admissible_prime(n, c) is not None:
        asymptotic = reference_lower_bound_asymptotic(n, c)
        if asymptotic > lower:
            lower, tag = asymptotic, "asymptotic"
    lower = min(lower, n)
    hall = _hall_q(n, c) + 1
    upper, upper_tag = (n, "trivial-n") if n < hall else (hall, "hall-threshold")
    exact = lower if lower == upper else None
    return BoundsReport(n=n, c=c, lower=lower, lower_provenance=tag,
                        upper=upper, upper_provenance=upper_tag, exact=exact)
