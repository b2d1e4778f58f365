"""List assignments on complete graphs over a global integer color universe."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, lt


class ColorOutOfRange(ValueError):
    """A list holds a color that is not an int in [0, num_colors)."""


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists for K_n, n = len(lists), colors from [0, num_colors).

    Building an assignment, or replacing its fields, checks `c`, `k` and
    `num_colors` in that order, each an int >= 0 (ValueError), then names
    the first list holding a color that is no `int` in [0, num_colors)
    (ColorOutOfRange) or that is not strictly increasing (ValueError).
    `lists` is stored as a tuple of tuples. `k` is the intended list size
    and `c` the intended pairwise-intersection cap; whether the lists
    satisfy them is checked by solver.validate_assignment.

    `meta` optionally carries construction provenance and is passed through
    to serialized instance files; it is a dict, so an assignment is unhashable.
    """

    k: int
    c: int
    num_colors: int
    lists: tuple[tuple[int, ...], ...]
    meta: dict | None = None

    @property
    def n(self) -> int:
        return len(self.lists)

    def __post_init__(self):
        for name, value in (("c", self.c), ("k", self.k), ("num_colors", self.num_colors)):
            if type(value) is not int or value < 0:
                raise ValueError(f"field '{name}' must be a nonnegative integer, got {value!r}")
        lists, num_colors = tuple(map(tuple, self.lists)), self.num_colors
        object.__setattr__(self, "lists", lists)
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
