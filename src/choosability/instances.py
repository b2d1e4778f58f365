"""List assignments on complete graphs over a global integer color universe."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists for K_n, colors drawn from [0, num_colors).

    `lists[v]` is a strictly increasing tuple of color ids. `k` is the
    intended list size and `c` the intended pairwise-intersection cap;
    whether the lists actually satisfy them is checked by
    solver.validate_assignment, not by this container.

    `meta` optionally carries construction provenance (field parameters
    and the like) and is passed through to serialized instance files.
    """

    n: int
    k: int
    c: int
    num_colors: int
    lists: tuple[tuple[int, ...], ...]
    meta: dict | None = None

