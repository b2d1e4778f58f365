"""List assignments on complete graphs over a global integer color universe."""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt


class ColorOutOfRange(ValueError):
    """A list holds a color that is not an int in [0, num_colors)."""


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color lists for K_n, n = len(lists), colors from [0, num_colors).

    Building an assignment, or replacing its fields, checks `c`, `k` and
    `num_colors` in that order, each an int >= 0 (ValueError), then names
    `lists` if it is not iterable, or else the first list that is not
    iterable (ValueError), holds a color that is no `int` in [0, num_colors)
    (ColorOutOfRange) or is not strictly increasing (ValueError), and last
    that `meta` is None or a dict (ValueError). `lists` is stored as a tuple
    of tuples. `k` is the intended list size and `c` the intended
    pairwise-intersection cap; whether the lists satisfy them is checked by
    solver.validate_assignment.

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
        try:
            family = iter(self.lists)
        except TypeError:
            raise ValueError(f"field 'lists' must be iterable, got {self.lists!r}") from None
        num_colors, lists = self.num_colors, []
        for v, lst in enumerate(family):
            try:
                lst = tuple(lst)
            except TypeError:
                raise ValueError(f"lists[{v}] must be iterable, got {lst!r}") from None
            for color in lst:
                if type(color) is not int or not 0 <= color < num_colors:
                    raise ColorOutOfRange(
                        f"lists[{v}] contains {color!r}, outside [0, {num_colors})")
            if not all(map(lt, lst, lst[1:])):
                raise ValueError(f"lists[{v}] must be strictly increasing")
            lists.append(lst)
        if not (self.meta is None or isinstance(self.meta, dict)):
            raise ValueError(f"field 'meta' must be a dict or None, got {self.meta!r}")
        object.__setattr__(self, "lists", tuple(lists))
