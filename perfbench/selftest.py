"""Self-test of the benchmark's checks: injected faults must raise the
error rate.

    python3 perfbench/selftest.py

Runs the `instances` round on its smallest hard instance three times:
as is, with every `solve` certificate corrupted after the program writes
it, and with the exit code of every `verify` call flipped. The clean pass
must fail nothing; each faulty pass must fail at least one operation.
Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import workloads as W
from program import Timer

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCE = (16, 5)


class CorruptCertificates(W.Context):
    """Drops the last vertex of each violator set the program writes."""

    def cli(self, kind, argv):
        code, out, err = super().cli(kind, argv)
        if argv[0] == "solve":
            path = argv[argv.index("--out") + 1]
            with open(path) as handle:
                cert = json.load(handle)
            if cert.get("violator_S"):
                cert["violator_S"] = cert["violator_S"][:-1]
            with open(path, "w") as handle:
                json.dump(cert, handle, separators=(",", ":"))
        return code, out, err


class WrongExitCodes(W.Context):
    """Reports exit code 2 for every `verify` that succeeded."""

    def cli(self, kind, argv):
        code, out, err = super().cli(kind, argv)
        return (2 if argv[0] == "verify" and code == 0 else code), out, err


def error_rate(context_class, golden, workdir) -> float:
    tally = W.Tally()
    ctx = context_class(timer=Timer(), tally=tally, workdir=workdir, golden=golden)
    W.instances_round(W.instances_inputs(0, golden), ctx)
    return tally.failed / tally.attempted


def main() -> int:
    W.HARD_INSTANCES = (INSTANCE,)
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        rates = {cls.__name__: error_rate(cls, golden, workdir)
                 for cls in (W.Context, CorruptCertificates, WrongExitCodes)}
    for name, rate in rates.items():
        print(f"{name}: error_rate {rate:.3f}")
    clean = rates.pop("Context")
    ok = clean == 0 and all(rate > clean for rate in rates.values())
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
