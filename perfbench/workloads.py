"""The three workloads: `instances`, `oracle` and `bounds`.

Each workload has `make_inputs(seed, golden)`, the seeded input
generation that counts as set-up, and `run_round(inputs, ctx)`, one pass
over every operation, timed per operation kind and checked by `checks`. Seeded
choices whose outputs have golden digests (colorable variants and bounds
offsets) are drawn from a pool of GOLDEN_POOL variants, so every output
the benchmark can produce has a digest captured at the baseline.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import checks
from program import fresh_import, run_cli

GOLDEN_POOL = 16

# (q, c): a prime field, an odd extension with m=3, a characteristic-2
# extension, an odd extension with m=2, and a large c.
HARD_INSTANCES = ((31, 3), (27, 1), (32, 1), (49, 3), (16, 5))

ORACLE_CAP = 15
GRAPH_N = 5
# chi(K_5, 1) = 3 and chi(K_4, 2) = 3; no graph on <= 4 vertices needs
# larger lists than K_n, whose values for c = 1 are these.
EXACT_CASES = (((5, 1), 3), ((4, 2), 3))
PROBE_VALUES = {"1": 1, "2": 2, "3": 2, "4": 2}
PROBE_LABELED_GRAPHS = 1 + 2 + 8 + 64

RANGE_HI = 4000
RANGE_CS = (1, 2, 3, 4, 5)
POINT_BASES = (10 ** 12, 10 ** 13)
POINT_CS = (1, 3)
POINT_OFFSET_SPAN = 1_000_000


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{what}: {reason}")

    def check(self, what: str, step) -> bool:
        """Run `step`, one operation plus its check, which returns None or
        the reason the output is wrong. An exception raised by the program
        or while reading its output fails the operation too."""
        try:
            reason = step()
        except Exception as exc:  # the round goes on; the failure is recorded
            reason = f"raised {type(exc).__name__}: {exc}"
        self.record(what, reason)
        return reason is None


@dataclass
class Context:
    timer: object
    tally: Tally
    workdir: str
    golden: dict
    tracer: object = None

    def cli(self, kind, argv):
        return run_cli(self.timer, kind, argv, self.tracer)

    def fresh(self):
        return fresh_import(self.tracer)


def _digest_reason(got: str, want: str | None) -> str | None:
    if want is None:
        return "no golden digest for this output"
    return None if got == want else "output bytes differ from the golden digest"


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# -- instances ------------------------------------------------------------------

def variant_plan(q: int, c: int, variant: int) -> dict:
    """The seeded colorable variant of the (q, c) hard instance: which
    vertex to drop, and how to relabel the colors and remaining vertices."""
    n = (q * q - 1) // c + 2
    rng = random.Random(1_000_003 * variant + 1009 * q + c)
    vertex_order = list(range(n - 1))
    rng.shuffle(vertex_order)
    return {"drop": rng.randrange(n), "colors": rng.sample(range(n - 1), n - 1),
            "vertices": vertex_order, "variant": variant}


def variant_instance(inst: dict, plan: dict) -> dict:
    lists = [lst for v, lst in enumerate(inst["lists"]) if v != plan["drop"]]
    relabel = plan["colors"]
    lists = [sorted(relabel[x] for x in lists[v]) for v in plan["vertices"]]
    return {"format_version": 1, "n": len(lists), "c": inst["c"], "k": inst["k"],
            "num_colors": inst["num_colors"], "lists": lists, "meta": {}}


def instances_inputs(seed: int, golden: dict) -> dict:
    variant = seed % GOLDEN_POOL
    return {(q, c): variant_plan(q, c, variant) for q, c in HARD_INSTANCES}


def _cli_file(ctx: Context, kind: str, argv, want_code: int, path: str):
    """Run a command that writes `path`; returns (reason, file bytes)."""
    code, _, _ = ctx.cli(kind, argv)
    if code != want_code or not os.path.exists(path):
        return f"{argv[0]} exited {code}, expected {want_code}", None
    return None, _read(path)


def instances_round(plans: dict, ctx: Context) -> None:
    golden = ctx.golden
    for q, c in HARD_INSTANCES:
        tag = f"{q},{c}"
        paths = {name: os.path.join(ctx.workdir, f"{name}-{q}-{c}.json")
                 for name in ("inst", "cert", "var", "varcert")}
        for path in paths.values():
            if os.path.exists(path):
                os.unlink(path)
        made = {}

        def construct():
            reason, raw = _cli_file(ctx, "construct", ["construct", "--q", q, "--c", c,
                                                       "--out", paths["inst"]], 0, paths["inst"])
            if reason:
                return reason
            made["inst"] = json.loads(raw)
            return _first(_digest_reason(checks.sha256(raw), golden["construct"].get(tag)),
                          checks.check_hard_instance(made["inst"], q, c))

        def solve():
            reason, raw = _cli_file(ctx, "solve", ["solve", paths["inst"], "--out", paths["cert"]],
                                    1, paths["cert"])
            return reason or _first(
                _digest_reason(checks.sha256(raw), golden["solve"].get(tag)),
                checks.check_violator(made["inst"]["lists"], json.loads(raw)))

        def solve_variant():
            plan = plans[(q, c)]
            variant = variant_instance(made["inst"], plan)
            with open(paths["var"], "w") as handle:
                handle.write(json.dumps(variant, separators=(",", ":")) + "\n")
            reason, raw = _cli_file(
                ctx, "solve", ["solve", paths["var"], "--out", paths["varcert"]],
                0, paths["varcert"])
            key = f"{tag},{plan['variant']}"
            return reason or _first(
                _digest_reason(checks.sha256(raw), golden["solve_variant"].get(key)),
                checks.check_coloring(variant["lists"], json.loads(raw)))

        def verify(inst, cert):
            return lambda: checks.check_verify_output(
                *ctx.cli("verify", ["verify", paths[inst], paths[cert], "--json"])[:2])

        def audit():
            construction = ctx.fresh().construction
            report = ctx.timer.call("audit", lambda: construction.verify_design(
                construction.augmented_hypergraph(q, c), q, c))
            return checks.check_design_report(report, q, c)

        if ctx.tally.check(f"construct {tag}", construct):
            ctx.tally.check(f"solve {tag}", solve)
            ctx.tally.check(f"verify {tag}", verify("inst", "cert"))
            ctx.tally.check(f"solve variant {tag}", solve_variant)
            ctx.tally.check(f"verify variant {tag}", verify("var", "varcert"))
        ctx.tally.check(f"audit {tag}", audit)


# -- oracle ---------------------------------------------------------------------

def oracle_inputs(seed: int, golden: dict) -> list:
    """Every graph on GRAPH_N vertices up to isomorphism (the keys of the
    golden chi table), each under a seeded vertex labeling."""
    rng = random.Random(seed)
    graphs = []
    for key in sorted(golden["graph_chi"]):
        perm = list(range(GRAPH_N))
        rng.shuffle(perm)
        edges = [(int(e[0]), int(e[1])) for e in key.split(":")[1].split(",") if e]
        graphs.append(tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)))
    return graphs


def _check_exact(code, out, n, c, want) -> str | None:
    if code != 0:
        return f"exact exited {code}"
    payload = json.loads(out)
    if payload.get("chi_l") != want:
        return f"chi_l(K_{n}, {c}) reported as {payload.get('chi_l')}, known to be {want}"
    return checks.check_witness(payload.get("defeated_by"), want - 1, c,
                                checks.complete_edges(n))


def _check_probe(code, out) -> str | None:
    if code != 0:
        return f"probe exited {code}"
    payload = json.loads(out)
    if payload.get("counterexample") is not None:
        return "probe reported a counterexample"
    if payload.get("complete_values") != PROBE_VALUES:
        return f"probe complete values {payload.get('complete_values')}"
    if payload.get("graphs_checked") != PROBE_LABELED_GRAPHS:
        return f"probe checked {payload.get('graphs_checked')} graphs"
    return None


def _check_graph(result, edges, golden) -> str | None:
    chi = result.chi_l
    want = golden["graph_chi"].get(checks.graph_key(GRAPH_N, edges))
    if chi != want:
        return f"chi_l is {chi}, golden value {want}"
    if chi == 1:
        return None if result.defeated_by is None else "chi_l = 1 with a witness"
    witness = [list(lst) for lst in result.defeated_by]
    return checks.check_witness(witness, chi - 1, 1, edges)


def oracle_round(graphs: list, ctx: Context) -> None:
    saved = os.environ.get("CHOOSABILITY_SEARCH_CAP")
    os.environ["CHOOSABILITY_SEARCH_CAP"] = str(ORACLE_CAP)
    try:
        for (n, c), want in EXACT_CASES:
            ctx.tally.check(f"exact n={n} c={c}", lambda: _check_exact(
                *ctx.cli("exact", ["exact", "--n", n, "--c", c, "--json"])[:2], n, c, want))
        ctx.tally.check("probe nmax=4 c=1", lambda: _check_probe(
            *ctx.cli("probe", ["probe", "--nmax", 4, "--c", 1, "--json"])[:2]))
    finally:
        if saved is None:
            del os.environ["CHOOSABILITY_SEARCH_CAP"]
        else:
            os.environ["CHOOSABILITY_SEARCH_CAP"] = saved

    oracle = ctx.fresh().oracle

    def graph_exact(edges):
        # exact_chi_l_graph(g, c, cap) is chi_l_graph_search(...).chi_l; the
        # search also returns the witness the checker needs
        result = ctx.timer.call("graph_exact", oracle.chi_l_graph_search,
                                oracle.SmallGraph(GRAPH_N, edges), 1, cap=ORACLE_CAP)
        return _check_graph(result, edges, ctx.golden)

    for i, edges in enumerate(graphs):
        ctx.tally.check(f"graph {i}", lambda: graph_exact(edges))


# -- bounds ---------------------------------------------------------------------

def point_n(base: int, c: int, variant: int) -> int:
    return base + random.Random(7919 * variant + 31 * c + len(str(base))).randrange(
        POINT_OFFSET_SPAN)


def bounds_inputs(seed: int, golden: dict) -> list:
    variant = seed % GOLDEN_POOL
    return [(point_n(base, c, variant), c) for base in POINT_BASES for c in POINT_CS]


def _check_bounds(code, out, lo, hi, c, want) -> str | None:
    if code != 0:
        return f"bounds exited {code}"
    rows = json.loads(out)
    return _first(_digest_reason(checks.sha256(out), want),
                  checks.check_bounds_rows(rows, lo, hi, c),
                  checks.check_known_windows(rows, c))


def bounds_round(points: list, ctx: Context) -> None:
    golden = ctx.golden
    for c in RANGE_CS:
        argv = ["bounds", "--range", f"1..{RANGE_HI}", "--c", c, "--json"]
        ctx.tally.check(f"bounds range c={c}", lambda: _check_bounds(
            *ctx.cli("bounds_range", argv)[:2], 1, RANGE_HI, c,
            golden["bounds_range"].get(str(c))))
    for n, c in points:
        argv = ["bounds", "--n", n, "--c", c, "--json"]
        ctx.tally.check(f"bounds n={n} c={c}", lambda: _check_bounds(
            *ctx.cli("bounds_n", argv)[:2], n, n, c, golden["bounds_n"].get(f"{n},{c}")))


# The operation kinds each workload times, in report order.
WORKLOADS = {
    "instances": (instances_inputs, instances_round,
                  ("construct", "solve", "verify", "audit")),
    "oracle": (oracle_inputs, oracle_round, ("exact", "probe", "graph_exact")),
    "bounds": (bounds_inputs, bounds_round, ("bounds_range", "bounds_n")),
}
