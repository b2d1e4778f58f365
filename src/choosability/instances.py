"""List assignments on complete graphs over a global integer color universe."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, lt


class ColorOutOfRange(ValueError):
    """A list holds a color that is not an int in [0, num_colors)."""


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists for K_n, colors drawn from [0, num_colors).

    `lists[v]` is a strictly increasing tuple of color ids, each of type
    `int` and in [0, num_colors). Building an assignment, or replacing its
    fields, checks that for every list and names the first faulty one:
    ColorOutOfRange for a color of another type or outside the range, and
    ValueError for a list that is not strictly increasing. `k` is the
    intended list size and `c` the intended pairwise-intersection cap;
    whether the lists satisfy them is checked by solver.validate_assignment.

    `meta` optionally carries construction provenance (field parameters
    and the like) and is passed through to serialized instance files.
    """

    n: int
    k: int
    c: int
    num_colors: int
    lists: tuple[tuple[int, ...], ...]
    meta: dict | None = None

    def __post_init__(self):
        lists, num_colors = self.lists, self.num_colors
        # builtins check the whole family at once, and a strictly increasing
        # list lies in range when its first and last colors do; the lists are
        # walked only when a check fails, to name the first faulty one
        if (set(map(type, chain.from_iterable(lists))) <= {int}
                and all(all(map(lt, lst, lst[1:])) for lst in lists)
                and 0 <= min(map(itemgetter(0), filter(None, lists)), default=0)
                and max(map(itemgetter(-1), filter(None, lists)), default=-1) < num_colors):
            return
        for v, lst in enumerate(lists):
            for color in lst:
                if type(color) is not int or not 0 <= color < num_colors:
                    raise ColorOutOfRange(
                        f"lists[{v}] contains {color!r}, outside [0, {num_colors})")
            if not all(map(lt, lst, lst[1:])):
                raise ValueError(f"lists[{v}] must be strictly increasing")
