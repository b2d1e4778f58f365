"""Tracing from outside the package: wrappers on the public functions of
each module, spans kept in memory, per-layer metrics per round.

`Tracer.install(mods)` replaces every public function of the traced
modules (module attributes) and every public method, plus `__init__` of
non-dataclass classes (class attributes), with a wrapper. A wrapper records
a span (name, start, end, parent) and the call count. Field element
operations run millions of times per instance, so their wrappers only
count. A span's self time is its duration minus the time its child spans
cover; on one thread the children are disjoint, so that is the duration
minus the sum of the children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
import json
import os
import time
from array import array

from program import MODULES

# FiniteField element operations: counted, never timed
COUNT_ONLY = {f"gf.FiniteField.{m}" for m in (
    "add", "neg", "sub", "mul", "inv", "pow", "digits", "from_digits",
    "elements", "element_order")}
# the enumerator is a generator; each step it takes becomes a span
GENERATORS = {"oracle.iter_canonical_assignments"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, start, time covered by children]
        self.epoch = time.perf_counter()
        self.round_first_span = 0
        self.hooks = {
            "formats.dumps_instance": self._count_bytes,
            "formats.dumps_certificate": self._count_bytes,
            "bounds.primes_up_to": self._count_sieve,
        }

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self.ids[name]

    def _enter(self, nid: int) -> list:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        frame = [index, start, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, nid: int, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        index, start, covered = frame
        self.span_end[index] = end
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - covered

    def _count_bytes(self, args, kwargs, result) -> None:
        self._add("formats.bytes_out", len(result.encode()))

    def _count_sieve(self, args, kwargs, result) -> None:
        limit = args[0] if args else kwargs["limit"]
        if limit >= 2:
            self._add("bounds.sieve_entries", limit + 1)

    def _add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._id(name)
        if name in COUNT_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
            return counted

        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(nid, frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        if name not in GENERATORS:
            return spanned
        step_id = self._id(name + ".next")

        def steps(gen):
            while True:
                frame = self._enter(step_id)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(step_id, frame)
                self._add("oracle.kept", 1)
                yield item

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            return steps(spanned(*args, **kwargs))
        return generator

    def install(self, mods) -> None:
        """Wrap the public functions and methods of freshly imported modules.

        A function imported from another traced module is named after the
        module that defines it; one imported from an untraced module (such
        as `instances`) after the module that calls it.
        """
        for short in MODULES:
            module = getattr(mods, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith("choosability"):
                    continue
                owner_short = owner.rsplit(".", 1)[-1]
                if inspect.isfunction(obj):
                    prefix = owner_short if owner_short in MODULES else short
                    setattr(module, attr, self.wrap(f"{prefix}.{attr}", obj))
                elif inspect.isclass(obj) and owner_short == short:
                    self._install_class(short, obj)

    def _install_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and not (attr == "__init__"
                                             and not dataclasses.is_dataclass(cls)):
                continue
            setattr(cls, attr, self.wrap(f"{short}.{cls.__name__}.{attr}", obj))

    # -- per-round aggregates ----------------------------------------------

    def reset_round(self) -> None:
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.total[i] = 0.0
            self.self_time[i] = 0.0
        self.counters = {}
        self.round_first_span = len(self.span_name)

    def _get(self, table, name):
        nid = self.ids.get(name)
        return table[nid] if nid is not None else 0

    def layer_metrics(self) -> dict:
        """This round's per-layer metrics, keyed as in BENCHMARK.json."""
        calls = lambda name: self._get(self.calls, name)  # noqa: E731
        total = lambda *names: sum(self._get(self.total, n) for n in names)  # noqa: E731
        self_s = lambda name: self._get(self.self_time, name)  # noqa: E731
        count = lambda name: self.counters.get(name, 0)  # noqa: E731
        leaves, kept = calls("oracle.canonical_form"), count("oracle.kept")
        reports, sieve = calls("bounds.bounds_report"), count("bounds.sieve_entries")
        return {
            "gf.field_init_s": total("gf.FiniteField.__init__"),
            "gf.mul_calls": calls("gf.FiniteField.mul"),
            "gf.add_calls": calls("gf.FiniteField.add"),
            "construction.class_space_init_s": total("construction.ClassSpace.__init__"),
            "construction.list_of_class_calls": calls("construction.ClassSpace.list_of_class"),
            "construction.list_of_class_s": total("construction.ClassSpace.list_of_class"),
            "construction.origin_line_s": total("construction.ClassSpace.origin_line"),
            "construction.furedi_hypergraph_calls": calls("construction.furedi_hypergraph"),
            "construction.furedi_hypergraph_s": total("construction.furedi_hypergraph"),
            "construction.verify_design_s": total("construction.verify_design"),
            "formats.dumps_s": total("formats.dumps_instance", "formats.dumps_certificate"),
            "formats.loads_s": total("formats.loads_instance", "formats.loads_certificate"),
            "formats.write_atomic_s": total("formats.write_atomic"),
            "formats.bytes_out": count("formats.bytes_out"),
            "solver.validate_assignment_s": total("solver.validate_assignment"),
            "solver.colorable_calls": calls("solver.colorable"),
            "solver.colorable_s": total("solver.colorable"),
            "solver.verify_coloring_s": total("solver.verify_coloring"),
            "oracle.leaves": leaves,
            "oracle.kept": kept,
            "oracle.kept_per_leaf": kept / leaves if leaves else 0.0,
            "oracle.canonical_form_s": total("oracle.canonical_form"),
            "oracle.enumerate_self_s": (self_s("oracle.iter_canonical_assignments")
                                        + self_s("oracle.iter_canonical_assignments.next")),
            "oracle.list_colorable_graph_calls": calls("oracle.list_colorable_graph"),
            "oracle.list_colorable_graph_s": total("oracle.list_colorable_graph"),
            "oracle.assignment_from_lists_s": total("oracle.assignment_from_lists"),
            "bounds.bounds_report_calls": reports,
            "bounds.bounds_report_self_s": self_s("bounds.bounds_report"),
            "bounds.lower_bound_constructive_s": total("bounds.lower_bound_constructive"),
            "bounds.primes_up_to_calls": calls("bounds.primes_up_to"),
            "bounds.sieve_entries": sieve,
            "bounds.sieve_entries_per_report": sieve / reports if reports else 0.0,
            "bounds.find_admissible_prime_s": total("bounds.find_admissible_prime"),
            "bounds.is_prime_calls": calls("bounds.is_prime"),
            "bounds.ktv_reference_bounds_s": total("bounds.ktv_reference_bounds"),
            "cli.self_s": sum(t for name, t in zip(self.names, self.self_time)
                              if name.startswith("cli.")),
            "trace.spans": len(self.span_name) - self.round_first_span,
        }

    def silent_layers(self) -> list[str]:
        """Traced modules with no recorded call this round."""
        return [short for short in MODULES
                if not any(c for name, c in zip(self.names, self.calls)
                           if name.startswith(short + "."))]

    def write(self, path: str, header: dict) -> None:
        """Every span recorded in the run, columns relative to the epoch."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = dict(header)
        payload["span_names"] = self.names
        payload["spans"] = {
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_s": [round(t - self.epoch, 9) for t in self.span_start],
            "end_s": [round(t - self.epoch, 9) for t in self.span_end],
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(payload, handle, separators=(",", ":"))


def exercise_layers(mods, workdir: str) -> None:
    """Call every traced layer once on a tiny input.

    Each traced round starts with this, so a wrapper that no longer reaches
    its layer (a renamed or moved function) shows up as a silent layer, and
    every per-layer time is measured on every workload.
    """
    fld = mods.gf.FiniteField(4)
    fld.add(fld.mul(2, 3), 1)
    inst = mods.construction.hard_instance(3, 1)
    mods.construction.verify_design(mods.construction.augmented_hypergraph(3, 1), 3, 1)
    text = mods.formats.dumps_instance(inst)
    mods.formats.loads_instance(text)
    result = mods.solver.colorable(inst)
    mods.solver.validate_assignment(inst, inst.k, inst.c)
    mods.formats.loads_certificate(mods.formats.dumps_certificate(result))
    mods.formats.write_atomic(os.path.join(workdir, "exercise.json"), text)
    mods.solver.verify_coloring(inst, range(inst.n))
    mods.oracle.chi_l_graph_search(mods.oracle.complete_graph(2), 1)
    mods.oracle.chi_l_complete_search(2, 1)
    mods.bounds.bounds_report(100, 1)
    mods.bounds.ktv_reference_bounds(100, 1)
    mods.cli.build_parser()
