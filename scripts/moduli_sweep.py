"""Sweep all nine regularity moduli for a sampled scalar map and check
the product and coincidence laws on the resulting brackets.

Example:
    python scripts/moduli_sweep.py --expr "x + 0.3 * sin(x)" --step 0.01
"""
from __future__ import annotations

import argparse

from almostreg.expressions import compile_expression
from almostreg.regularity import (
    MODULUS_KINDS,
    ModulusSearchConfig,
    SampledMap,
    estimate_modulus,
    verify_product_laws,
)
from almostreg.spaces import PointCloud

PRODUCT_PAIRS = (("sur", "reg"), ("popen", "subreg"), ("lopen", "semireg"))
COINCIDENT_PAIRS = (("reg", "lip_inv"), ("subreg", "calm"), ("semireg", "incalm"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expr", default="2 * x", help="map expression in x")
    parser.add_argument("--start", type=float, default=-1.0)
    parser.add_argument("--stop", type=float, default=1.0)
    # Step 0.01 keeps the stabilized-threshold quantisation below the
    # default 0.05 product-law slack; coarser grids can fail honestly.
    parser.add_argument("--step", type=float, default=0.01)
    parser.add_argument("--ref-x", type=float, default=0.0,
                        help="domain coordinate of the reference graph point")
    parser.add_argument("--tol", type=float, default=0.05,
                        help="slack for the product law verdicts")
    args = parser.parse_args(argv)

    fn = compile_expression(args.expr, ("x",))
    domain = PointCloud.from_grid(args.start, args.stop, args.step)
    mapping = SampledMap.from_function(domain, lambda p: (fn(p[0]),))
    ref = ((args.ref_x,), (fn(args.ref_x),))
    if not mapping.on_graph(*ref):
        raise SystemExit(f"reference point {ref} is not on the sampled graph")
    cfg = ModulusSearchConfig()

    reports = {}
    print(f"map: {args.expr} on [{args.start}, {args.stop}] step {args.step}")
    print(f"{'kind':>8}  {'lower':>12}  {'upper':>12}  {'gamma':>8}  limited")
    for kind in MODULUS_KINDS:
        rep = estimate_modulus(mapping, ref, kind, cfg)
        reports[kind] = rep
        gamma = "-" if rep.stabilized_gamma is None else f"{rep.stabilized_gamma:.4g}"
        print(f"{kind:>8}  {rep.lower:12.6g}  {float(rep.upper):12.6g}"
              f"  {gamma:>8}  {rep.resolution_limited}")

    ok = True
    for a, b in PRODUCT_PAIRS:
        law = verify_product_laws(reports[a], reports[b], tol=args.tol)
        ok &= law.verdict
        print(f"product {a} * {b}: [{law.interval_low:.6g},"
              f" {float(law.interval_high):.6g}] contains 1: {law.verdict}")
    for a, b in COINCIDENT_PAIRS:
        law = verify_product_laws(reports[a], reports[b], tol=args.tol)
        ok &= law.verdict
        print(f"coincide {a} ~ {b}: overlap within {args.tol}: {law.verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
