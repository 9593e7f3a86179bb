"""Per-layer cost at several sample sizes, for the cost-growth figures.

Run from the root of a checkout:

    python3 perfbench/sizes.py

Times `estimate_modulus(kind="sur")` on x -> 2x at 51, 201, 401 and 801 grid
points and `check_axioms` under the Euclidean premetric on 100, 150 and 200
points, each once under the tracer, and prints the wall time with the
layers that dominate it. These are the figures of the "Recent" baseline in
ROADMAP.md; they are single timings, so expect the run-to-run noise stated
in perfbench/README.md.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from almostreg import regularity, spaces  # noqa: E402

LAYERS = {
    "sur": ("regularity.first_reaching.calls", "regularity.first_reaching.self_s",
            "regularity.MapGeometry.self_s", "regularity.cover_radius.self_s"),
    "axioms": ("spaces.premetric.calls", "spaces.check_axioms.self_s",
               "extreal.ExtReal.allocs"),
}


def measure(label: str, layers: tuple[str, ...], fn) -> None:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = tracer.mark()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        summary = tracer.summarize(start, tracer.mark())
    finally:
        tracer.uninstall()
    parts = "  ".join(f"{name.split('.', 1)[1]}={summary.get(name, 0):.4g}"
                      if name.endswith("_s") else f"{name.split('.', 1)[1]}={summary.get(name, 0)}"
                      for name in layers)
    print(f"{label:32s} {wall:8.3f} s  {parts}", flush=True)


def main() -> None:
    for n in (51, 201, 401, 801):
        dom = spaces.PointCloud.from_grid(-1.0, 1.0, 2.0 / (n - 1))
        m = regularity.SampledMap.from_function(dom, lambda p: (round(2.0 * p[0], 12),))
        measure(f"estimate_modulus sur n={n}", LAYERS["sur"],
                lambda: regularity.estimate_modulus(m, ((0.0,), (0.0,)), "sur"))
    for n in (100, 150, 200):
        cloud = spaces.PointCloud(tuple((k * 0.01,) for k in range(n)))
        measure(f"check_axioms euclidean n={n}", LAYERS["axioms"],
                lambda: spaces.check_axioms(spaces.euclidean_premetric(), cloud))


if __name__ == "__main__":
    main()
