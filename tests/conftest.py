"""Shared independent oracles for the test suite.

These deliberately re-derive results through different algorithms than the
package uses (augmenting-path matching instead of Hopcroft-Karp, trial
division instead of Miller-Rabin, filter-based enumeration instead of the
pruned generator), so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math


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
