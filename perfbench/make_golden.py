"""Capture the golden digests the benchmark compares outputs against.

    python3 perfbench/make_golden.py

Run it from the checkout root on the baseline commit only: a digest taken
after a change could not show that the change kept output bytes. It
writes perfbench/golden.json with sha256 digests of every `construct`
instance file, every `solve` certificate (hard instances and all
GOLDEN_POOL colorable variants), every `bounds --json` stdout the
workloads can request, and chi_l(G, 1) for each of the 34 graphs on five
vertices up to isomorphism.

The graph values are computed twice: by the package, and by a brute force
over restricted-growth 2-list assignments here that shares no code with
it; the script refuses to write a table on which they disagree.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile

import checks
import workloads as W
from program import Timer, fresh_import, run_cli

HERE = os.path.dirname(os.path.abspath(__file__))


def _cli(argv):
    code, out, err = run_cli(Timer(), "golden", argv)
    if err:
        sys.stderr.write(err)
    return code, out


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"refusing to write goldens: {what}")


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def instance_digests(tmp: str) -> dict:
    out = {"construct": {}, "solve": {}, "solve_variant": {}}
    for q, c in W.HARD_INSTANCES:
        tag = f"{q},{c}"
        inst_path, cert_path = os.path.join(tmp, "inst.json"), os.path.join(tmp, "cert.json")
        _require(_cli(["construct", "--q", q, "--c", c, "--out", inst_path])[0] == 0,
                 f"construct {tag} failed")
        raw = _read(inst_path)
        inst = json.loads(raw)
        _require(checks.check_hard_instance(inst, q, c) is None, f"instance {tag} is wrong")
        out["construct"][tag] = checks.sha256(raw)
        _require(_cli(["solve", inst_path, "--out", cert_path])[0] == 1, f"solve {tag} exit code")
        raw = _read(cert_path)
        cert = json.loads(raw)
        _require(checks.check_violator(inst["lists"], cert) is None, f"violator of {tag}")
        # deficiency one with every vertex in S: dropping any vertex leaves
        # a colorable instance, so every seeded variant is colorable
        _require(len(cert["violator_S"]) == inst["n"] == len(cert["neighborhood"]) + 1,
                 f"violator of {tag} is not all vertices with deficiency one")
        out["solve"][tag] = checks.sha256(raw)
        for variant in range(W.GOLDEN_POOL):
            var = W.variant_instance(inst, W.variant_plan(q, c, variant))
            var_path = os.path.join(tmp, "var.json")
            with open(var_path, "w") as handle:
                handle.write(json.dumps(var, separators=(",", ":")) + "\n")
            _require(_cli(["solve", var_path, "--out", cert_path])[0] == 0,
                     f"variant {variant} of {tag} is not colorable")
            raw = _read(cert_path)
            _require(checks.check_coloring(var["lists"], json.loads(raw)) is None,
                     f"coloring of variant {variant} of {tag}")
            out["solve_variant"][f"{tag},{variant}"] = checks.sha256(raw)
        print(f"instance {tag} done", file=sys.stderr)
    return out


def bounds_digests() -> dict:
    out = {"bounds_range": {}, "bounds_n": {}}
    for c in W.RANGE_CS:
        code, text = _cli(["bounds", "--range", f"1..{W.RANGE_HI}", "--c", c, "--json"])
        _require(code == 0 and checks.check_bounds_rows(json.loads(text), 1, W.RANGE_HI, c) is None,
                 f"bounds range at c={c}")
        out["bounds_range"][str(c)] = checks.sha256(text)
    points = sorted({p for v in range(W.GOLDEN_POOL) for p in W.bounds_inputs(v, {})})
    for n, c in points:
        code, text = _cli(["bounds", "--n", n, "--c", c, "--json"])
        _require(code == 0 and checks.check_bounds_rows(json.loads(text), n, n, c) is None,
                 f"bounds at n={n}, c={c}")
        out["bounds_n"][f"{n},{c}"] = checks.sha256(text)
    print(f"bounds done ({len(points)} points)", file=sys.stderr)
    return out


def _two_list_defeat_exists(n: int, edges) -> bool:
    """Is some (2,1)-assignment on the graph uncolorable? Restricted-growth
    lists in vertex order (every assignment is a relabeling of one), with
    adjacent lists distinct, each leaf tested by a product over the lists."""
    lists = []

    def extend(v, fresh):
        if v == n:
            return checks.check_witness(lists, 2, 1, edges) is None
        for pair in itertools.combinations(range(fresh + 2), 2):
            new = sum(1 for x in pair if x >= fresh)
            if new and pair[-new:] != tuple(range(fresh, fresh + new)):
                continue
            if any(w == v and lists[u] == list(pair) for u, w in edges):
                continue
            lists.append(list(pair))
            if extend(v + 1, fresh + new):
                return True
            lists.pop()
        return False

    return extend(0, 0)


def graph_values() -> dict:
    n = W.GRAPH_N
    pairs = list(itertools.combinations(range(n), 2))
    classes = {}
    for bits in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
        classes.setdefault(checks.graph_key(n, edges), edges)
    oracle = fresh_import().oracle
    values = {}
    for key, edges in sorted(classes.items()):
        chi = oracle.exact_chi_l_graph(oracle.SmallGraph(n, edges), 1, cap=W.ORACLE_CAP)
        # independent: 1 iff edgeless; 3 iff some 2-list assignment is
        # uncolorable, since chi(K_5, 1) = 3 bounds every 5-vertex graph
        brute = 1 if not edges else (3 if _two_list_defeat_exists(n, edges) else 2)
        _require(chi == brute, f"graph {key}: package says {chi}, brute force {brute}")
        values[key] = chi
    print(f"graphs done ({len(values)} classes)", file=sys.stderr)
    return values


def main() -> None:
    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        golden.update(instance_digests(tmp))
    golden.update(bounds_digests())
    golden["graph_chi"] = graph_values()
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
