"""Loads the package under test from the checkout's `src/` and times calls
into it.

Every CLI call and every library session starts from a freshly imported
package, so module-level caches (the `_space` lru_cache, field tables)
start cold exactly as they do for a separate `choosability` process, and
no operation profits from an earlier one's cache.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import signal
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("gf", "construction", "formats", "solver", "oracle", "bounds", "cli")


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no package source)."""


def fresh_import(tracer=None) -> SimpleNamespace:
    """Import `choosability` anew from src/ and return its modules by name.

    With a tracer, its wrappers are installed on the new module objects.
    """
    if not os.path.isfile(os.path.join(SRC, "choosability", "__init__.py")):
        raise BenchError(f"no package source at {os.path.join(SRC, 'choosability')}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "choosability" or m.startswith("choosability.")]:
        del sys.modules[name]
    pkg = importlib.import_module("choosability")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported choosability from {pkg.__file__}, not from {SRC}")
    mods = SimpleNamespace(**{name: importlib.import_module(f"choosability.{name}")
                              for name in MODULES})
    if tracer is not None:
        tracer.install(mods)
    return mods


SAMPLE_INTERVAL_S = 0.02


def reference_loop() -> int:
    """A fixed half millisecond of interpreter work (integer arithmetic,
    dict and list traffic, small sorts)."""
    acc, table, rows = 0, {}, []
    for i in range(1250):
        acc = (acc * 1_000_003 + i) % 998_244_353
        table[i & 511] = table.get(i & 511, 0) + (acc & 7)
        if i & 15 == 0:
            rows.append(tuple(sorted((acc % 97, i % 89, acc % 13))))
    return acc + len(rows) + sum(table.values())


class Timer:
    """Sums wall time per operation kind; the clock runs only around the
    call into the package.

    The machine this runs on is shared, and its speed drifts by 10-30%
    over tens of seconds. With `sample=True`, a SIGALRM every
    SAMPLE_INTERVAL_S of the call times `reference_loop` in the middle of
    the program's work; `reference` collects those times, so a round's
    time can be stated in reference loops run under the same conditions.
    Time spent in the sampler is taken out of the operation's time.
    """

    def __init__(self, sample: bool = False):
        self.times: dict[str, float] = {}
        self.reference: list[float] = []
        self.sample = sample

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.reference.append(time.perf_counter() - start)

    def call(self, kind: str, fn, *args, **kwargs):
        gc.collect()
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        sampled = sum(self.reference)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                elapsed -= sum(self.reference) - sampled
            self.times[kind] = self.times.get(kind, 0.0) + elapsed


def run_cli(timer: Timer, kind: str, argv, tracer=None) -> tuple[int, str, str]:
    """`choosability.cli.main(argv)` in a fresh package, capturing stdout
    and stderr; returns (exit code, stdout, stderr)."""
    mods = fresh_import(tracer)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = timer.call(kind, mods.cli.main, [str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()
