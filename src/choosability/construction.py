"""Finite-field constructions of extremal list assignments for K_n.

For a prime power q and a cap c dividing q-1, the nonzero pairs of
GF(q) x GF(q) split into (q^2-1)/c equivalence classes under coordinatewise
scaling by the order-c multiplicative subgroup H. Each class <a,b> carries
the q-element incidence list of classes <x,y> with a*x + b*y in H; distinct
lists meet in 0 or exactly c classes. Those lists form a q-uniform
hypergraph with as many edges as vertices; adding one fresh vertex and two
"bundle" edges built from origin lines y = m*x tips the edge count past the
vertex count. Reading the edges of the augmented hypergraph as color lists
yields a (q,c)-valid assignment on K_n, n = (q^2-1)/c + 2, that uses only
n - 1 colors in total and is therefore not properly colorable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .bounds import check_admissible
from .gf import FiniteField, OrderUnavailable
from .instances import ListAssignment
from .solver import pair_overlaps


# largest instance built, in list entries n*q: (q, c) = (128, 1) has 2,097,280;
# n > q for admissible pairs, so this also caps the q^2-entry field tables
MAX_LIST_ENTRIES = 2 ** 22


class InstanceTooLarge(ValueError):
    """The instance for (q, c) would hold more than MAX_LIST_ENTRIES list entries."""


class ClassSpace:
    """The classes of GF(q) x GF(q) minus the origin under scaling by H.

    A class is an int id; `reps[i]` is the lexicographically smallest pair
    of class i, and ids number the classes in order of those pairs.
    Requires c | q - 1. Precomputes the subgroup H and the class id of
    every nonzero pair (a, b) at `_rows[a][b]`, one row per a, each built
    from one row of the multiplication table, so the two queries,
    `list_of_class` and `origin_line`, are list lookups. Immutable once built.
    """

    def __init__(self, fld: FiniteField, c: int):
        q = fld.q
        if c < 1 or (q - 1) % c:
            raise OrderUnavailable(
                f"no element of order {c} in GF({q}): {c} does not divide {q - 1}")
        self.field = fld
        # GF(q)* is cyclic, so its one subgroup of order c is the c-th roots of unity
        self.subgroup = frozenset(x for x in range(1, q) if fld.pow(x, c) == 1)

        # the orbit of x != 0 is its coset xH: one min across the rows t*x finds
        # every coset's least member m, and (a, b), a != 0, is in the class of
        # its least pair (m, (m/a)*b), m the least member of aH
        least = list(map(min, zip(*(fld.line(t, 0) for t in self.subgroup))))
        minima = sorted(set(least[1:]))
        if len(minima) * c != q - 1:  # the orbits on GF(q)* are cosets of c elements
            raise AssertionError("scaling action is not free")
        # ids in representative order: the (0, m), then the (m, y); the origin reads -1
        rank = dict(zip([0, *minima], range(-1, len(minima))))
        rows = [list(map(rank.__getitem__, least))]
        for a in range(1, q):
            first = len(minima) + rank[least[a]] * q
            rows.append(list(map(first.__add__, fld.line(fld.mul(least[a], fld.inv(a)), 0))))
        self._rows = rows
        self.reps = (*((0, m) for m in minima), *((m, y) for m in minima for y in range(q)))

    def list_of_class(self, i: int) -> tuple[int, ...]:
        """The ids of the q classes <x,y> with a*x + b*y in H, (a, b) = reps[i],
        in increasing order.

        Membership only depends on the classes involved, not on the chosen
        representatives, because H is closed under multiplication. Each
        member class has exactly one pair with a*x + b*y = 1 (scaling by t
        multiplies the sum by t), so the q solutions of that equation, with
        y = 1/b - (a/b)*x for every x when b != 0 and x = 1/a for every y
        otherwise, name the q members directly.
        """
        if not 0 <= i < len(self.reps):
            raise ValueError(f"class id {i} is outside [0, {len(self.reps)})")
        fld = self.field
        a, b = self.reps[i]
        if b:
            beta = fld.inv(b)
            ys = fld.line(fld.neg(fld.mul(a, beta)), beta)
            members = map(list.__getitem__, self._rows, ys)
        else:
            members = self._rows[fld.inv(a)]
        return tuple(sorted(members))

    def origin_line(self, slope: int) -> tuple[int, ...]:
        """The ids of the (q-1)/c classes of the punctured line y = slope * x,
        in increasing order."""
        ys = self.field.line(slope, 0)
        return tuple(sorted(set(map(list.__getitem__, self._rows[1:], ys[1:]))))


# -- the hard instance ---------------------------------------------------------
# a hypergraph is a ListAssignment: edge i is list i, and its vertices are
# the colors [0, num_colors), so the hard instance reads its edges as lists

def hard_instance(q: int, c: int) -> ListAssignment:
    """A (q,c)-valid list assignment on K_n, n = (q^2-1)/c + 2, with only
    n-1 colors in total, hence not properly colorable.

    It is the Füredi hypergraph, whose edge i is the incidence list of
    class i, plus one fresh vertex and two bundle edges, with the field it
    was built over recorded in `meta`: vertex i of K_n receives edge i,
    the class edges in id order, then the two bundles.
    Each bundle is the fresh vertex together with c origin lines of
    consecutive slopes (field indices 0..c-1, then c..2c-1), which keeps
    the edges q-uniform and pairwise intersections within c while making
    the edge count exceed the vertex count by one.
    """
    check_admissible(q, c)
    entries = ((q * q - 1) // c + 2) * q
    if entries > MAX_LIST_ENTRIES:
        raise InstanceTooLarge(
            f"the (q={q}, c={c}) instance would hold n*q = {entries} list entries, "
            f"above the limit of {MAX_LIST_ENTRIES} (2**22)"
        )
    space = ClassSpace(FiniteField(q), c)
    fresh = len(space.reps)
    edges = [space.list_of_class(i) for i in range(fresh)]
    for start in (0, c):
        members = {fresh}
        for slope in range(start, start + c):
            members.update(space.origin_line(slope))
        edges.append(tuple(sorted(members)))
    fld = space.field
    return ListAssignment(
        k=q, c=c, num_colors=fresh + 1, lists=edges,
        meta={"q": q, "c": c, "p": fld.p, "m": fld.m,
              "modulus": list(fld.modulus) if fld.modulus is not None else None,
              "construction": "furedi-augmented"})


augmented_hypergraph = hard_instance


# -- design verification -------------------------------------------------------

@dataclass
class DesignReport:
    """Structural audit of a hypergraph against its declared parameters."""

    ok: bool
    n_vertices: int
    n_edges: int
    max_intersection: int
    intersection_sizes: tuple[int, ...]
    degree_histogram: dict[int, int]
    violations: list[str] = field(default_factory=list)


def verify_design(design: ListAssignment, q: int, c: int) -> DesignReport:
    """Check q-uniformity and the pairwise intersection cap c of the edges
    `design.lists` over the vertices [0, design.num_colors), and report
    counts, the observed intersection sizes, and the vertex degree
    histogram. Violations carry a concrete witness (edge or edge pair).

    A `ListAssignment`'s edges are strictly increasing and in range, so
    each holds each of its vertices once and the degrees are one `Counter`
    over all edges.
    """
    lists, num_colors = design.lists, design.num_colors
    degrees = Counter(chain.from_iterable(lists))
    violations = [f"edge {i} has size {len(edge)}, expected {q}"
                  for i, edge in enumerate(lists) if len(edge) != q]

    sizes = set()
    for i, within, over in pair_overlaps(design, c):
        sizes |= within
        for j, size in over:
            sizes.add(size)
            violations.append(f"edges {i} and {j} intersect in {size} > {c} vertices")

    # only the vertices some edge holds have a degree; the rest count as zeros
    histogram = Counter(degrees.values())
    if num_colors > len(degrees):
        histogram[0] = num_colors - len(degrees)
    return DesignReport(
        ok=not violations,
        n_vertices=num_colors,
        n_edges=len(lists),
        max_intersection=max(sizes, default=0),
        intersection_sizes=tuple(sorted(sizes)),
        degree_histogram=dict(sorted(histogram.items())),
        violations=violations,
    )
