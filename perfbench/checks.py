"""Output checkers that share no code with the package under test.

Each checker takes plain JSON-decoded data (or files read with the `json`
module) and returns None when the output is right, or a one-line reason
when it is not. Nothing here imports `choosability`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _masks(lists):
    out = []
    for lst in lists:
        mask = 0
        for color in lst:
            mask |= 1 << color
        out.append(mask)
    return out


def check_hard_instance(data: dict, q: int, c: int) -> str | None:
    """The constructed (q, c) instance: n = (q^2-1)/c + 2 lists of q
    colors from n-1 colors, strictly increasing, pairwise overlap <= c."""
    n = (q * q - 1) // c + 2
    for key, want in (("n", n), ("k", q), ("c", c), ("num_colors", n - 1)):
        if data.get(key) != want:
            return f"field {key} is {data.get(key)!r}, expected {want}"
    lists = data.get("lists")
    if not isinstance(lists, list) or len(lists) != n:
        return "wrong number of lists"
    for v, lst in enumerate(lists):
        if len(lst) != q or any(not 0 <= x < n - 1 for x in lst):
            return f"list {v} has the wrong size or a color out of range"
        if any(a >= b for a, b in zip(lst, lst[1:])):
            return f"list {v} is not strictly increasing"
    masks = _masks(lists)
    for u in range(n):
        mu = masks[u]
        for v in range(u + 1, n):
            if (mu & masks[v]).bit_count() > c:
                return f"lists {u} and {v} share more than {c} colors"
    return None


def check_violator(lists, cert: dict) -> str | None:
    """A Hall violator: S nonempty and in range, N(S) recounted from the
    lists equals the claimed neighborhood, and |N(S)| < |S|."""
    if cert.get("colorable") is not False:
        return "certificate does not claim the instance is not colorable"
    s, claimed = cert.get("violator_S"), cert.get("neighborhood")
    if not isinstance(s, list) or not isinstance(claimed, list) or not s:
        return "violator set missing or empty"
    if len(set(s)) != len(s) or any(not 0 <= v < len(lists) for v in s):
        return "violator set repeats a vertex or leaves the instance"
    recount = set()
    for v in s:
        recount.update(lists[v])
    if sorted(recount) != sorted(claimed):
        return "claimed neighborhood differs from the recount"
    if len(recount) >= len(s):
        return f"|N(S)| = {len(recount)} is not below |S| = {len(s)}"
    return None


def check_coloring(lists, cert: dict) -> str | None:
    """A proper coloring of K_n: one color per vertex, all distinct, each
    drawn from that vertex's list."""
    if cert.get("colorable") is not True:
        return "certificate does not claim a coloring"
    coloring = cert.get("coloring")
    if not isinstance(coloring, list) or len(coloring) != len(lists):
        return "coloring has the wrong length"
    if len(set(coloring)) != len(coloring):
        return "coloring repeats a color"
    for v, color in enumerate(coloring):
        if color not in lists[v]:
            return f"vertex {v} gets color {color}, which is not on its list"
    return None


def check_verify_output(code: int, out: str) -> str | None:
    if code != 0:
        return f"verify exited {code}, expected 0"
    try:
        payload = json.loads(out)
    except ValueError:
        return "verify --json printed no JSON"
    if payload.get("valid") is not True or payload.get("certificate_consistent") is not True:
        return f"verify reported {payload}"
    return None


def check_design_report(report, q: int, c: int) -> str | None:
    """The audit of the augmented hypergraph: n edges on n-1 vertices,
    q-uniform, intersections <= c, degrees summing to n*q."""
    n = (q * q - 1) // c + 2
    if not report.ok or report.violations:
        return f"design audit found violations: {report.violations[:1]}"
    if (report.n_edges, report.n_vertices) != (n, n - 1):
        return f"design has {report.n_edges} edges on {report.n_vertices} vertices"
    if report.max_intersection > c:
        return f"max intersection {report.max_intersection} exceeds {c}"
    if sum(d * count for d, count in report.degree_histogram.items()) != n * q:
        return "degree histogram does not sum to n*q"
    return None


def _uncolorable(lists, edges) -> bool:
    """No choice of one color per vertex gives adjacent vertices distinct
    colors; plain product over the lists."""
    for choice in itertools.product(*lists):
        if all(choice[u] != choice[v] for u, v in edges):
            return False
    return True


def check_witness(witness, k: int, c: int, edges) -> str | None:
    """`witness` defeats list size k: k-lists, adjacent lists sharing at
    most c colors, and no proper coloring."""
    if not isinstance(witness, list) or any(len(set(lst)) != k or len(lst) != k
                                            for lst in witness):
        return f"witness is not a list of {k}-color lists"
    for u, v in edges:
        if len(set(witness[u]) & set(witness[v])) > c:
            return f"witness lists {u} and {v} share more than {c} colors"
    if not _uncolorable(witness, edges):
        return "witness has a proper coloring"
    return None


def complete_edges(n: int):
    return list(itertools.combinations(range(n), 2))


def graph_key(n: int, edges) -> str:
    """Canonical label of a small graph: the least sorted edge list over
    all vertex permutations, written as a string."""
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or relabeled < best:
            best = relabeled
    return f"{n}:" + ",".join(f"{u}{v}" for u, v in best)


def hall_upper(n: int, c: int) -> int:
    """min(n, q*+1), q* the least q >= 1 with
    q^2(c+1) + (c+3)q - 2(c-1) >= n c (c+1), found by isqrt and a local
    correction instead of a linear scan."""
    a, b, k = c + 1, c + 3, n * c * (c + 1) + 2 * (c - 1)
    q = max(1, (math.isqrt(b * b + 4 * a * k) - b) // (2 * a) - 2)
    while q > 1 and a * q * q + b * q >= k:
        q -= 1
    while a * q * q + b * q < k:
        q += 1
    return min(n, q + 1)


def check_bounds_rows(rows, lo: int, hi: int, c: int) -> str | None:
    """One row per n in [lo, hi]; lower <= upper; exact set iff they meet;
    upper recomputed independently; lower at least ceil(sqrt(c*n/2))."""
    if not isinstance(rows, list) or [r.get("n") for r in rows] != list(range(lo, hi + 1)):
        return "rows do not cover the requested n exactly once, in order"
    for row in rows:
        n = row["n"]
        if row["c"] != c or not row["lower"] <= row["upper"] <= n:
            return f"row n={n} breaks lower <= upper <= n"
        if row["exact"] != (row["lower"] if row["lower"] == row["upper"] else None):
            return f"row n={n} has exact={row['exact']!r}"
        if row["upper"] != hall_upper(n, c):
            return f"row n={n} upper {row['upper']} != {hall_upper(n, c)}"
        floor = max(1, math.isqrt(c * n // 2))
        if row["lower"] < min(n, floor):
            return f"row n={n} lower {row['lower']} below sqrt(c*n/2)"
    return None


# Exact values the paper pins down: chi(n, 1) = 4 on [10, 15] and
# chi(n, 2) = 6 on [14, 16].
KNOWN_EXACT = {1: (range(10, 16), 4), 2: (range(14, 17), 6)}


def check_known_windows(rows, c: int) -> str | None:
    if c not in KNOWN_EXACT:
        return None
    window, value = KNOWN_EXACT[c]
    for row in rows:
        if row["n"] in window and row["exact"] != value:
            return f"chi({row['n']}, {c}) reported as {row['exact']!r}, known to be {value}"
    return None
