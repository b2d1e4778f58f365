"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py -v` to see the per-criterion lines
alongside pytest's own verdicts. Every tolerance and runtime limit is
asserted exactly as stated; nothing is deferred to later calibration.
"""

import json
import math
import random
import time

from choosability import bounds as bnd
from choosability import solver
from choosability.cli import main
from choosability.construction import hard_instance, verify_design
from choosability.oracle import (
    chi_l_complete_search,
    complete_graph,
    iter_canonical_assignments,
    list_colorable_graph,
)
from conftest import ADMISSIBLE_16, assignment_from_lists, furedi_hypergraph

REQUIRED_PAIRS = {(3, 1), (4, 1), (5, 1), (5, 2), (7, 2), (7, 3), (8, 1),
                  (9, 2), (9, 4), (11, 5), (13, 4), (16, 3), (16, 5)}
assert REQUIRED_PAIRS <= set(ADMISSIBLE_16)


def _report(label: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert not failures, f"{label}: {failures[:5]}"


def test_criterion_1_design_verification():
    failures = []
    worst = 0.0
    for q, c in ADMISSIBLE_16:
        start = time.perf_counter()
        hypergraph = furedi_hypergraph(q, c)
        report = verify_design(hypergraph, q, c)
        expected = (q * q - 1) // c
        edge_sets = [set(edge) for edge in hypergraph.lists]
        symmetric = all(u in edge_sets[v]
                        for u in range(expected) for v in edge_sets[u])
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        checks = [
            (report.ok, f"violations {report.violations[:2]}"),
            (report.n_vertices == expected, "vertex count"),
            (report.n_edges == expected, "edge count"),
            (set(report.intersection_sizes) <= {0, c}, "intersection dichotomy"),
            (report.degree_histogram == {q: expected}, "vertex degrees"),
            (symmetric, "incidence symmetry"),
            (elapsed < 1.0, f"runtime {elapsed:.2f}s"),
        ]
        for ok, what in checks:
            if not ok:
                failures.append((q, c, what))
    _report("1 design-verification", failures,
            f"{len(ADMISSIBLE_16)} designs, worst case {worst * 1000:.0f} ms")


def test_criterion_2_hard_instances():
    failures = []
    for q, c in ADMISSIBLE_16:
        inst = hard_instance(q, c)
        if not solver.validate_assignment(inst, q, c).valid:
            failures.append((q, c, "not a valid (q,c)-assignment"))
        if inst.num_colors != inst.n - 1:
            failures.append((q, c, "color count"))
        result = solver.colorable(inst)
        if result.colorable:
            failures.append((q, c, "unexpectedly colorable"))
            continue
        violator_s, neighborhood = result.violator
        if len(violator_s) != inst.n or len(neighborhood) != inst.n - 1:
            failures.append((q, c, f"violator sizes {len(violator_s)}, {len(neighborhood)}"))
    _report("2 hard-instances", failures, f"{len(ADMISSIBLE_16)} instances")


def test_criterion_2_cli_round_trip(tmp_path, capsys):
    failures = []
    for q, c in ADMISSIBLE_16:
        inst = tmp_path / f"inst-{q}-{c}.json"
        cert = tmp_path / f"cert-{q}-{c}.json"
        codes = (
            main(["construct", "--q", str(q), "--c", str(c), "--out", str(inst)]),
            main(["solve", str(inst), "--out", str(cert)]),
            main(["verify", str(inst), str(cert)]),
        )
        if codes != (0, 1, 0):
            failures.append((q, c, f"exit codes {codes}"))
    capsys.readouterr()
    _report("2 cli-round-trip", failures, "construct/solve/verify exit codes 0/1/0")


def test_criterion_3_exact_windows():
    failures = []
    for n in (14, 15, 16):
        report = bnd.bounds_report(n, 2)
        if report.exact != 6:
            failures.append((n, 2, report))
    for n in range(10, 16):  # n = 15 is the exact-arithmetic boundary
        report = bnd.bounds_report(n, 1)
        if report.exact != 4:
            failures.append((n, 1, report))
    if bnd.vertex_count_bound(3, 1) != 15:
        failures.append(("threshold at q=3, c=1 must be exactly 15",))
    _report("3 exact-windows", failures,
            "chi = 6 on 14..16 (c=2), chi = 4 on 10..15 (c=1)")


def test_criterion_4_oracle_ground_truth():
    failures = []
    cases = [(2, 1, 2, 14), (3, 1, 2, 14), (4, 1, 2, 14), (5, 1, 3, 15), (3, 2, 3, 14)]
    for n, c, expected, cap in cases:
        start = time.perf_counter()
        value = chi_l_complete_search(n, c, cap=cap).chi_l
        elapsed = time.perf_counter() - start
        if value != expected:
            failures.append((n, c, f"chi {value} != {expected}"))
        if elapsed >= 60.0:
            failures.append((n, c, f"runtime {elapsed:.1f}s"))
    _report("4 oracle-values", failures, "chi = 2,2,2,3,3 across the five cases")


def test_criterion_4_solver_backtracking_agreement():
    disagreements = []
    total = 0
    for n in range(1, 5):
        graph = complete_graph(n)
        for k in range(1, 4):
            for c in range(0, 3):
                for assignment in iter_canonical_assignments(n, k, c):
                    total += 1
                    inst = assignment_from_lists(assignment, c)
                    if solver.colorable(inst).colorable != list_colorable_graph(graph, inst):
                        disagreements.append((n, k, c, assignment))
    _report("4 solver-vs-backtracking", disagreements,
            f"{total} canonical assignments, zero disagreements required")


def test_criterion_5_bound_sandwich():
    failures = []
    for c in range(1, 6):
        for n in range(1, 2001):
            report = bnd.bounds_report(n, c)
            if not 1 <= report.lower <= report.upper <= n:
                failures.append(("sandwich", n, c, report))
    _report("5 bound-sandwich", failures, "lower <= upper for all n <= 2000, c <= 5")


def test_criterion_5_threshold_dominance_full_box_as_stated():
    """Stated check: johnson_threshold(q,c) <= vertex_count_bound(q,c) on the
    whole box 1 <= q,c <= 100.

    This inequality is FALSE as a mathematical statement on that box: the
    smallest counterexample is q=1, c=3, where the Johnson route gives 3/5
    and the counting route 1/2. Every violation has q <= c-2; the
    inequality provably holds whenever q >= c-1 (see the companion test),
    which covers all admissible pairs. The check is kept exactly as stated
    and is expected to fail.
    """
    failures = []
    for q in range(1, 101):
        for c in range(1, 101):
            if bnd.johnson_threshold(q, c) > bnd.vertex_count_bound(q, c):
                failures.append((q, c, bnd.johnson_threshold(q, c),
                                 bnd.vertex_count_bound(q, c)))
    _report("5 threshold-dominance (full box, as stated)", failures,
            f"{len(failures)} violations, all with q <= c-2; "
            "inequality is false on the stated domain")


def test_criterion_5_threshold_dominance_applicable_regime():
    failures = []
    for q in range(1, 101):
        for c in range(1, 101):
            if q >= c - 1 and bnd.johnson_threshold(q, c) > bnd.vertex_count_bound(q, c):
                failures.append((q, c))
    _report("5 threshold-dominance (q >= c-1)", failures,
            "holds on the whole regime containing every admissible pair")


def test_criterion_5_randomized_formula_suites():
    failures = []
    rng = random.Random(20250811)
    for trial in range(1000):
        q = rng.randrange(2, 9)
        c = rng.randrange(1, 5)
        support = _random_uniform_hypergraph_support(rng, q, q + 2, c - 1)
        if support < bnd.vertex_count_bound(q, c):
            failures.append(("vertex-count", trial, q, c, support))

    for trial in range(1000):
        m = rng.randrange(1, 9)
        k = rng.randrange(1, 7)
        c = rng.randrange(0, 4)
        support = _random_uniform_hypergraph_support(rng, k, m, c)
        if support < bnd.johnson_bound(m, k, c):
            failures.append(("johnson", trial, m, k, c, support))
    _report("5 randomized-formula-suites", failures,
            "2 x 1000 randomized instances never undercut their bounds")


def _random_uniform_hypergraph_support(rng, size, count, cap):
    """Support size of a random family of `count` size-`size` sets with
    pairwise intersections <= cap, built by rejection sampling from the
    smallest pool that admits one."""
    pool = max(size, 1)
    while True:
        edges = []
        for _ in range(count):
            for _ in range(300):
                edge = frozenset(rng.sample(range(pool), size))
                if all(len(edge & other) <= cap for other in edges):
                    edges.append(edge)
                    break
            else:
                break
        if len(edges) == count:
            return len(frozenset().union(*edges)) if edges else 0
        pool += 1


def test_criterion_6_asymptotic_ratio():
    start = time.perf_counter()
    failures = []
    for c in (1, 2, 3):
        widths = {}
        for n in (10 ** 4, 10 ** 6, 10 ** 8):
            lower, _ = bnd.lower_bound_constructive(n, c)
            upper, _ = bnd.upper_bound(n, c)
            scale = math.sqrt(c * n)
            lo, hi = lower / scale, upper / scale
            if not lo <= 1.0 <= hi:
                failures.append((c, n, f"bracket [{lo:.4f}, {hi:.4f}] misses 1"))
            widths[n] = hi - lo
        if widths[10 ** 8] > 0.05:
            failures.append((c, f"width at 1e8 is {widths[10 ** 8]:.4f} > 0.05"))
        if not widths[10 ** 8] < widths[10 ** 4]:
            failures.append((c, "width did not shrink from 1e4 to 1e8"))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _report("6 asymptotic-ratio", failures, f"runtime {elapsed:.2f}s < 10s")


def test_criterion_7_conjecture_probe(capsys):
    start = time.perf_counter()
    code = main(["probe", "--nmax", "4", "--c", "1", "--json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    failures = []
    payload = json.loads(out)
    if code != 0:
        failures.append(f"exit code {code}")
    if payload["counterexample"] is not None:
        failures.append(payload["counterexample"])
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s")
    with capsys.disabled():
        _report("7 conjecture-probe", failures,
                f"{payload['graphs_checked']} graphs, "
                f"{payload['assignments_checked']} assignments, {elapsed:.1f}s")


def test_criterion_8_byte_determinism(tmp_path, capsys):
    failures = []
    for q, c in ADMISSIBLE_16:
        blobs = []
        for run in ("first", "second"):
            inst = tmp_path / f"{run}-inst-{q}-{c}.json"
            cert = tmp_path / f"{run}-cert-{q}-{c}.json"
            main(["construct", "--q", str(q), "--c", str(c), "--out", str(inst)])
            main(["solve", str(inst), "--out", str(cert)])
            blobs.append((inst.read_bytes(), cert.read_bytes()))
        if blobs[0] != blobs[1]:
            failures.append((q, c))
    capsys.readouterr()
    _report("8 determinism", failures, "instance and certificate bytes identical")
