"""Hash the outputs of the benchmark workloads, to show a change kept them.

Runs every case of the chosen workloads (all four by default: suite,
moduli, premetric, linear) once per seed, from the checkout at ROOT (its
`src/` and `perfbench/workloads.py`), runs each case's own check, and prints
one sha256 of the outputs' `repr`s per (workload, seed). Run it on two
checkouts and compare the lines:

    python3 scripts/output_hashes.py --seeds 1 2 3
    python3 scripts/output_hashes.py ../parent --workload linear --workload suite --seeds 1 2

Hashes of `repr`s of sets and dicts depend on string hashing, so the script
runs with PYTHONHASHSEED=0, restarting itself when it is not set. It writes
nothing into ROOT. It exits 1 when a check fails on a case that carries no
known fault.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

NAMES = ("suite", "moduli", "premetric", "linear")


def _load_workloads(root: Path):
    """ROOT's perfbench workloads module, importing almostreg from ROOT/src."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import almostreg
    import workloads

    if Path(almostreg.__file__).resolve().parent != (root / "src" / "almostreg").resolve():
        raise SystemExit(f"imported almostreg from {almostreg.__file__}, not from {root / 'src'}")
    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=".", help="checkout root (default: .)")
    parser.add_argument("--workload", action="append", choices=NAMES,
                        help="workload to hash; repeat for several (default: all four)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    if sys.flags.hash_randomization:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    root = Path(args.root).resolve()
    workloads = _load_workloads(root)
    failed = False
    for name in args.workload or NAMES:
        for seed in args.seeds:
            digest = hashlib.sha256()
            errors = 0
            for case in workloads.WORKLOADS[name](seed, root):
                out = case.run()
                digest.update(repr(out).encode() + b"\n")
                bad = case.check(out)
                errors += bool(bad)
                failed |= bool(bad) and not case.known_fault
            print(f"{name} seed={seed} sha256={digest.hexdigest()} failed_checks={errors}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
