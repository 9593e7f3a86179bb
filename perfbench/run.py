"""almostreg benchmark: whole-pass timings on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload moduli --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One run builds the workload's inputs from the seed, then repeats whole
passes over its fixed list of cases until `--seconds` have gone by, checks
every output after every pass, and prints the metrics. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the first pass runs plain, later passes run under the tracer,
and the metrics are the per-layer ones. `--workload all` runs the four
workloads one after another, each in a fresh process. Result and trace files
go to `perfbench/results/`.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
NAMES = ("suite", "moduli", "premetric", "linear")
SETUP_REPEATS = 9
IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                  "import almostreg; print(time.perf_counter() - t)")


def _machine() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "cpus_pinned": False,
        "caches_dropped": False,
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _import_seconds(root: Path) -> float:
    """Median time of `import almostreg` in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=root, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _run_pass(cases) -> tuple[float, list, list[float]]:
    outputs, case_s = [], []
    start = time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        try:
            outputs.append(("ok", case.run()))
        except Exception as exc:  # a raising case is a failed operation, not a crash
            outputs.append(("raised", f"{type(exc).__name__}: {exc}"))
        case_s.append(time.perf_counter() - t0)
    return time.perf_counter() - start, outputs, case_s


def _check_pass(cases, outputs, tally: dict) -> None:
    for case, (status, out) in zip(cases, outputs):
        errors = [out] if status == "raised" else case.check(out)
        tally["attempted"] += case.verdicts
        if not errors:
            continue
        tally["failed"] += case.verdicts
        if case.known_fault:
            tally["known"].add(f"{case.label}: {case.known_fault}")
        else:
            tally["correct"] = False
            for e in errors[:5]:
                tally["errors"].add(f"{case.label}: {e}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import almostreg

    if Path(almostreg.__file__).resolve().parent != (root / "src" / "almostreg").resolve():
        raise SystemExit(f"imported almostreg from {almostreg.__file__}, not from {root / 'src'}")
    import workloads

    tracer = tracing.Tracer() if trace else None
    import_s = _import_seconds(root)
    build_s, setup_marks = [], []
    if tracer:
        tracer.install()
    for _ in range(SETUP_REPEATS):
        mark = tracer.mark() if tracer else None
        t0 = time.perf_counter()
        cases = workloads.WORKLOADS[name](seed, root)
        build_s.append(time.perf_counter() - t0)
        if tracer:
            setup_marks.append((mark, tracer.mark()))
    if tracer:
        tracer.uninstall()

    tally = {"attempted": 0, "failed": 0, "correct": True, "errors": set(), "known": set()}
    pass_s, traced_s, case_s, pass_marks = [], [], [], []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds or (tracer and not traced_s):
        traced = tracer is not None and bool(pass_s)
        if traced:
            tracer.install()
            mark = tracer.mark()
        wall, outputs, per_case = _run_pass(cases)
        if traced:
            pass_marks.append((mark, tracer.mark()))
            tracer.uninstall()
            traced_s.append(wall)
        else:
            pass_s.append(wall)
        case_s.append(per_case)
        _check_pass(cases, outputs, tally)
        # Drop this pass's outputs before the next pass, so they neither
        # count towards its peak memory nor lengthen its garbage collections.
        del outputs

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": _machine(),
        "setup": {"import_s": import_s, "build_s": build_s},
        "pass_s": pass_s, "traced_pass_s": traced_s,
        "cases": {c.label: statistics.median(t[i] for t in case_s)
                  for i, c in enumerate(cases)},
        "correct": tally["correct"], "attempted": tally["attempted"],
        "failed": tally["failed"], "errors": sorted(tally["errors"]),
        "known_faults": sorted(tally["known"]),
    }
    if tracer:
        metrics, record["counts_repeat"] = _layer_metrics(tracer, setup_marks, pass_marks,
                                                          pass_s, traced_s)
        _write(HERE / "results" / f"trace-{name}-seed{seed}.json",
               {"workload": name, "seed": seed, "setup_marks": setup_marks,
                "pass_marks": pass_marks, **tracer.dump()})
    else:
        verdicts = sum(c.verdicts for c in cases) * len(pass_s)
        metrics = {
            "setup_s": (import_s + statistics.median(build_s), "s"),
            "verdicts_per_s": (verdicts / sum(pass_s), "1/s"),
            "pass_p50_s": (statistics.median(pass_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    _write(HERE / "results" / f"{name}-seed{seed}-trace{int(trace)}.json", record)
    return record


def _layer_metrics(tracer, setup_marks, pass_marks, plain_s, traced_s) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every count repeated in every traced pass."""
    per_pass = [tracer.summarize(a, b) for a, b in pass_marks]
    per_setup = [tracer.summarize(a, b) for a, b in setup_marks]
    out = {}
    for key in tracing.SPAN_METRICS + tracing.COUNT_METRICS:
        in_pass = [p.get(key, 0) for p in per_pass]
        # Work done only while building inputs (loading scenarios) is
        # reported per build instead.
        values = in_pass if any(in_pass) else [s.get(key, 0) for s in per_setup]
        unit = "count" if key in tracing.COUNT_METRICS else "s"
        out[key] = (statistics.median(values) if unit == "s" else values[0], unit)
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_pct"] = (100.0 * overhead / statistics.median(plain_s), "%")
    repeat = all(p.get(k) == per_pass[0].get(k) for p in per_pass for k in tracing.COUNT_METRICS)
    return out, repeat


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))


def _summary_line(record: dict) -> str:
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})


def _print_record(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{len(record['pass_s']) + len(record['traced_pass_s'])} passes, "
          f"attempted {record['attempted']}, failed {record['failed']}, "
          f"correct {record['correct']}")
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for fault in record["known_faults"]:
        print(f"  known fault (counted as failed): {fault}")
    for err in record["errors"]:
        print(f"  WRONG OUTPUT: {err}")


def run_all(args, root: Path) -> int:
    """Each workload in a fresh process; one table and one JSON line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=root, capture_output=True,
                              text=True, timeout=600)
        print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0] if proc.stdout else "", flush=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "almostreg" / "__init__.py").is_file() or \
            not (root / "scenarios").is_dir():
        print(f"error: {root} is not an almostreg checkout (no src/almostreg or scenarios/)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    _print_record(record)
    print(_summary_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
