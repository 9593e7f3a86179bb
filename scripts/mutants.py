"""Run the committed mutants: each must make its named tests fail.

Every entry names a file under the checkout, an exact text that occurs once
in it, the text that replaces it, and the test files that must catch the
change. For each entry the script copies the checkout (without .git) to a
temporary directory, applies the mutant there, runs pytest on the named
test files, and prints killed or survived. The checkout itself is never
written. It exits 1 when a mutant survives, and 2 when an entry's text does
not occur exactly once or the named tests fail on the unmutated copy.

    python3 scripts/mutants.py

A mutant is killed when pytest fails, runs out of its 1 GiB address space
or runs past 120 s. The list holds exactness mutants of the kernels and
tables (a tile size, a stop, a reduction's starts, a boundary comparison)
and boundary mutants of the perturbation, linear, Ekeland and point-lookup
layers.
"""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("scan tile step", "src/almostreg/regularity.py",
           "step = max(1, _TILE_ENTRIES // max(cols, 1))",
           "step = max(2, _TILE_ENTRIES // max(cols, 1))", ("tests/test_regularity.py",)),
    Mutant("first-hit break", "src/almostreg/regularity.py",
           "        if first and hits:\n            break\n",
           "        if first and hits:\n            pass\n", ("tests/test_regularity.py",)),
    Mutant("reduceat starts", "src/almostreg/regularity.py",
           "heads[lo:hi] - heads[lo],", "heads[lo:hi] - heads[lo] + 1,",
           ("tests/test_regularity.py",)),
    Mutant("cover_radius tol", "src/almostreg/regularity.py",
           "np.nonzero(self.DYG.T <= tol)", "np.nonzero(self.DYG.T < tol)",
           ("tests/test_regularity.py",)),
    Mutant("preimage_distance eps", "src/almostreg/regularity.py",
           "np.nonzero(self.DYG.T < eps)", "np.nonzero(self.DYG.T <= eps)",
           ("tests/test_regularity.py",)),
    Mutant("sum dedup tolerance", "src/almostreg/perturb.py",
           "math.dist(v, k) <= dedup_tol", "math.dist(v, k) < dedup_tol",
           ("tests/test_perturb.py",)),
    Mutant("sum split tolerance", "src/almostreg/perturb.py",
           "math.dist(s, v) <= 1e-12", "math.dist(s, v) < 1e-12", ("tests/test_perturb.py",)),
    Mutant("sum exact dedup", "src/almostreg/perturb.py",
           "elif v in kept:", "elif False:", ("tests/test_perturb.py",)),
    Mutant("mesh stop", "src/almostreg/linear.py",
           "min(values[-3:]) <= _MESH_STABLE_TOL", "min(values[-3:]) < _MESH_STABLE_TOL",
           ("tests/test_linear.py",)),
    Mutant("harte rank", "src/almostreg/linear.py",
           "(sigmas > _RANK_TOL)", "(sigmas >= _RANK_TOL)", ("tests/test_linear.py",)),
    Mutant("mesh chunk", "src/almostreg/linear.py",
           "range(0, len(part), 1024):\n            support = part[lo:lo + 1024]",
           "range(0, len(part), 2048):\n            support = part[lo:lo + 2048]",
           ("tests/test_linear.py",)),
    Mutant("trace descent", "src/almostreg/ekeland.py",
           "value_arr + eta[:, cur] < vals[cur]", "value_arr + eta[:, cur] <= vals[cur]",
           ("tests/test_ekeland.py",)),
    Mutant("certificate descent", "src/almostreg/ekeland.py",
           "descent_ok = lhs <= rhs", "descent_ok = lhs < rhs", ("tests/test_acceptance.py",)),
    Mutant("index tolerance", "src/almostreg/spaces.py",
           "_INDEX_TOL = 1e-9", "_INDEX_TOL = 1e-8", ("tests/test_regularity.py",)),
)


def check_texts() -> list[str]:
    """The entries whose old text does not occur exactly once in its file."""
    return [m.name for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]


def _limit_memory() -> None:
    # A mutant can turn a loop endless and growing (the trace descent one
    # does); the cap ends it with a MemoryError, which fails its tests.
    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_CAP, _MEMORY_CAP))


_MEMORY_CAP = 2 ** 30
_TIMEOUT_S = 120


def _tests_pass(mutant: Mutant | None, tests: tuple[str, ...]) -> bool:
    """Whether the tests pass on a copy of the checkout, with the mutant applied
    when one is given. A run past _TIMEOUT_S counts as failing."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "results"))
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                                   "-p", "no:cacheprovider", *tests], cwd=copy, env=env,
                                  capture_output=True, timeout=_TIMEOUT_S,
                                  preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return False
    return done.returncode == 0


def main() -> int:
    bad = check_texts()
    if bad:
        print(f"old text not found exactly once: {bad}")
        return 2
    # A kill counts only against tests that pass on the unmutated copy.
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        if not _tests_pass(None, tests):
            print(f"tests fail without a mutant: {' '.join(tests)}")
            return 2
    survived = 0
    for mutant in MUTANTS:
        killed = not _tests_pass(mutant, mutant.tests)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED'}  {mutant.name}  ({mutant.path})", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
