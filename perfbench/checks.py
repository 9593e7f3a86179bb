"""Output checks for the benchmark workloads.

Every check recomputes what it needs apart from almostreg: closed forms,
numpy scans of coordinate distances, plain loops, `numpy.linalg.svd`, or an
exact enumeration. It never compares against output recorded from an earlier
run. Each function returns a list of error strings; an empty list means the
output is correct.
"""
from __future__ import annotations

import json
import math

import numpy as np

# Tolerances stated by the properties under test, not fitted to output.
LAW_TOL = 0.05            # product and coincidence laws (verify_product_laws default)
TRIANGLE_SLACK = 1e-12    # round-off slack of the A2 predicate, as documented in spaces
RESOLUTION_STEPS = 6.0    # sampled moduli may miss the closed form by a few grid steps
SVD_RTOL = 1e-9


def _close(a: float, b: float, rtol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# --- suite --------------------------------------------------------------------


def expectation_met(exp: dict, got) -> bool:
    """Evaluate one scenario-file expectation against a machine-report value."""
    if "equals" in exp:
        return got == exp["equals"]
    if "value" in exp:
        return isinstance(got, (int, float)) and not isinstance(got, bool) and \
            abs(float(got) - float(exp["value"])) <= float(exp["tol"])
    tol = float(exp.get("tol", 0.0))
    if not isinstance(got, list) or len(got) != 2:
        return False
    lo = float(got[0])
    hi = math.inf if got[1] == "inf" else float(got[1])
    target = float(exp["bracket_contains"])
    return lo - tol <= target <= hi + tol


def check_suite_report(report: bytes, scenario_docs: dict[str, dict]) -> list[str]:
    """Every scenario ran without error and meets every expectation of its file."""
    errors = []
    doc = json.loads(report)
    by_id = {r["id"]: r for r in doc["reports"]}
    if sorted(by_id) != sorted(scenario_docs):
        errors.append(f"report ids {sorted(by_id)} != scenario ids {sorted(scenario_docs)}")
    for sid, scenario in scenario_docs.items():
        rep = by_id.get(sid)
        if rep is None:
            continue
        if rep["error"] is not None:
            errors.append(f"{sid}: error {rep['error']}")
            continue
        for exp in scenario.get("expectations", []):
            name = exp["quantity"]
            if name not in rep["quantities"]:
                errors.append(f"{sid}: quantity {name} missing")
            elif not expectation_met(exp, rep["quantities"][name]):
                errors.append(f"{sid}: {name} = {rep['quantities'][name]!r} misses {exp}")
    return errors


def check_identical(first: bytes, again: bytes) -> list[str]:
    return [] if first == again else ["machine report differs between passes"]


# --- moduli -------------------------------------------------------------------


def resolution_tol(slope: float, step: float) -> float:
    return RESOLUTION_STEPS * step * max(abs(slope), 1.0 / abs(slope))


def check_linear_moduli(reports: dict, slope: float, step: float) -> list[str]:
    """Moduli of x -> slope * x: rate kinds |slope|, bound kinds 1 / |slope|."""
    errors = []
    tol = resolution_tol(slope, step)
    for kind, rep in reports.items():
        exact = abs(slope) if kind in ("sur", "popen", "lopen") else 1.0 / abs(slope)
        lo, hi = rep.lower, float(rep.upper)
        if not (lo <= hi and lo - tol <= exact <= hi + tol):
            errors.append(f"{kind}: bracket [{lo}, {hi}] misses {exact} by more than {tol}")
    return errors


def _times(a: float, b: float) -> float:
    """Product on [0, inf] with 0 * inf = 1."""
    if (a == 0.0 and math.isinf(b)) or (math.isinf(a) and b == 0.0):
        return 1.0
    return a * b


def check_laws(reports: dict, laws: dict) -> list[str]:
    """Paired kinds multiply to 1 and coincident kinds overlap, within LAW_TOL.

    The relation is recomputed from the two brackets; the program's own
    verdict must agree with it.
    """
    errors = []
    for (k1, k2), law in laws.items():
        r1, r2 = reports[k1], reports[k2]
        if law.relation == "product":
            low = _times(r1.lower, r2.lower)
            high = _times(float(r1.upper), float(r2.upper))
            holds = low <= 1.0 + LAW_TOL and high >= 1.0 - LAW_TOL
        else:
            holds = max(r1.lower, r2.lower) <= min(float(r1.upper), float(r2.upper)) + LAW_TOL
        if not holds:
            errors.append(f"{law.relation} law {k1}/{k2} fails on the brackets")
        if law.verdict is not holds:
            errors.append(f"{law.relation} law {k1}/{k2}: verdict {law.verdict} != {holds}")
    return errors


def check_stability(rep, slope: float, step: float, xs: np.ndarray, h, shrink: float | None,
                    shrink_tol: float | None) -> list[str]:
    """Rate stability under x -> slope * x + h(x).

    The Lipschitz rate is recomputed as the largest pairwise ratio over the
    sample points within half the domain diameter of the origin, the base
    rate must match |slope|, and the perturbed rate must clear |slope| - lip
    up to the stated tolerance. A linear perturbation h = -shrink * slope * x
    gives the perturbed rate |slope| * (1 - shrink), within shrink_tol (the
    grid resolution when None).
    """
    errors = []
    d = dict(rep.details)
    dx = np.abs(xs[:, None] - xs[None, :])
    ball = xs[np.abs(xs) <= 0.5 * float(dx.max())]
    hx = np.array([h((x,))[0] for x in ball])
    dx = np.abs(ball[:, None] - ball[None, :])
    dh = np.abs(hx[:, None] - hx[None, :])
    off = dx > 0.0
    lip = float((dh[off] / dx[off]).max())
    if not _close(d["lip"], lip, 1e-9):
        errors.append(f"lip {d['lip']} != sampled maximum ratio {lip}")
    tol = resolution_tol(slope, step)
    if not d["sur_base_lower"] - tol <= abs(slope) <= d["sur_base_upper"] + tol:
        errors.append(f"base rate bracket misses |slope| = {abs(slope)}")
    bound = d["sur_base_lower"] - lip - 3.0 * step * (1.0 + d["sur_base_lower"] + lip)
    if not (rep.passed and d["sur_perturbed_lower"] >= bound):
        errors.append(f"perturbed rate {d['sur_perturbed_lower']} below {bound}")
    if shrink is not None:
        exact = abs(slope) * (1.0 - shrink)
        tol = tol if shrink_tol is None else shrink_tol
        if abs(d["sur_perturbed_lower"] - exact) > tol:
            errors.append(f"slope-shrink rate {d['sur_perturbed_lower']} != {exact} +- {tol}")
    return errors


def check_verdicts(expected: bool, **verdicts: bool) -> list[str]:
    return [f"{name} = {got}, expected {expected}"
            for name, got in verdicts.items() if got is not expected]


def check_routes_agree(rep) -> list[str]:
    """Direct and projected set-valued criterion routes must reach one verdict."""
    if rep.direct.passed == rep.projected.passed and rep.agree:
        return []
    return [f"routes disagree: direct {rep.direct.passed}, projected {rep.projected.passed}"]


# --- premetric ----------------------------------------------------------------


def axiom_scan(eta: np.ndarray) -> dict:
    """A1-A3 violation counts by numpy over a full premetric matrix."""
    n = len(eta)
    a1 = int((np.diag(eta) != 0.0).sum())
    a2 = 0
    for i in range(n):
        rhs = eta[i][:, None] + eta          # rhs[k, j] = eta[i, k] + eta[k, j]
        lhs = eta[i][None, :]
        with np.errstate(invalid="ignore"):
            bad = np.isfinite(rhs) & (lhs > rhs + TRIANGLE_SLACK * np.maximum(1.0, np.abs(rhs)))
        a2 += int(bad.sum())
    off = ~np.eye(n, dtype=bool)
    a3 = int(((eta == 0.0) & off).sum())
    return {"A1": a1, "A2": a2, "A3": a3}


def check_axiom_report(report, xs: np.ndarray, eta: np.ndarray) -> list[str]:
    """Statuses and counts match a numpy scan; every witness truly violates."""
    errors = []
    counts = axiom_scan(eta)
    for axiom, count in counts.items():
        check = report.checks[axiom]
        status = "fail" if count else "pass"
        if check.status != status or len(check.violations) != count:
            errors.append(f"{axiom}: {check.status} with {len(check.violations)} "
                          f"violations, numpy scan says {status} with {count}")
    index = {float(x): i for i, x in enumerate(xs)}
    a2 = report.checks["A2"].violations
    n = len(xs)
    seen = np.zeros(n * n * n, dtype=bool)
    # Chunks keep the check's own memory small next to the witness list.
    for lo in range(0, len(a2), 65536):
        chunk = a2[lo:lo + 65536]
        i, k, j = (np.fromiter((index[w[f][0]] for w in chunk), np.int64, len(chunk))
                   for f in range(3))
        w_lhs, w_rhs = (np.fromiter((w[f] for w in chunk), float, len(chunk)) for f in (3, 4))
        lhs, rhs = eta[i, j], eta[i, k] + eta[k, j]
        if not (np.array_equal(lhs, w_lhs) and np.array_equal(rhs, w_rhs)):
            errors.append("A2 witness values differ from the coordinates")
        if not (lhs > rhs + TRIANGLE_SLACK * np.maximum(1.0, np.abs(rhs))).all():
            errors.append("an A2 witness does not violate the triangle inequality")
        seen[(i * n + k) * n + j] = True
    if int(seen.sum()) != len(a2):
        errors.append("A2 witnesses repeat a triple")
    for p, u, value in report.checks["A3"].violations:
        if not (p != u and value == 0.0 and eta[index[p[0]], index[u[0]]] == 0.0):
            errors.append(f"A3 witness {p, u, value} does not violate separation")
    for p, value in report.checks["A1"].violations:
        if not (value != 0.0 and eta[index[p[0]], index[p[0]]] == value):
            errors.append(f"A1 witness {p, value} does not violate A1")
    return errors


def check_chain(points: list[float], vals: dict, eta) -> list[str]:
    """Strict chain law value(u_j) + eta(u_j, u_k) < value(u_k) for k < j."""
    errors = []
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            pa, pb = points[a], points[b]
            if not vals[pb] + eta(pb, pa) < vals[pa]:
                errors.append(f"chain law fails between steps {a} and {b}")
    return errors


def stationary(u: float, vals: dict, eta, epsilon: float) -> bool:
    """Exact (epsilon = 0) or epsilon-stationarity of u over the cloud."""
    if epsilon > 0.0:
        return all(vals[q] + eta(q, u) > vals[u] - epsilon for q in vals)
    return all(vals[q] + eta(q, u) >= vals[u] for q in vals)


def check_trace(trace, verification, vals: dict, eta, epsilon: float) -> list[str]:
    points = [p[0] for p in trace.points]
    errors = check_chain(points, vals, eta)
    if not stationary(points[-1], vals, eta, 0.0):
        errors.append("last trace point is not exactly stationary")
    cutoff = None
    for pos in range(len(points) - 1, -1, -1):
        if not stationary(points[pos], vals, eta, epsilon):
            break
        cutoff = pos + 1
    if not verification.chain_ok or verification.stationary_index != cutoff:
        errors.append(f"verify_trace: chain_ok {verification.chain_ok}, cutoff "
                      f"{verification.stationary_index}, loops say {cutoff}")
    return errors


def check_certificate(cert, start: float, vals: dict, eta, epsilon: float) -> list[str]:
    u = cert.point[0]
    errors = []
    if not vals[u] + eta(u, start) <= vals[start] + eta(start, start):
        errors.append(f"descent bound fails at {u}")
    if not stationary(u, vals, eta, epsilon):
        errors.append(f"{u} is not {epsilon}-stationary")
    if not (cert.descent_ok and cert.stationarity_ok):
        errors.append("certificate flags a failure")
    return errors


# --- linear -------------------------------------------------------------------


def check_svd(sur_report, opnorm_value: float, a: np.ndarray) -> list[str]:
    sigma = np.linalg.svd(a, compute_uv=False)
    scale = SVD_RTOL * float(sigma[0])
    errors = []
    reported = (sur_report.lower, sur_report.estimate, float(sur_report.upper))
    if any(abs(v - float(sigma[-1])) > scale for v in reported):
        errors.append(f"sur {reported} != smallest singular value {sigma[-1]}")
    if abs(opnorm_value - float(sigma[0])) > scale:
        errors.append(f"opnorm {opnorm_value} != largest singular value {sigma[0]}")
    return errors


_UNIT_BALL_VERTICES = {
    "sup": np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
    "one": np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
}
_DUAL = {"sup": "one", "one": "sup"}


def _norm(kind: str, w: np.ndarray) -> np.ndarray:
    return np.abs(w).sum(axis=-1) if kind == "one" else np.abs(w).max(axis=-1)


def exact_sur(a: np.ndarray, kind: str) -> float:
    """Exact rate of a 2-D matrix between two copies of the sup or one norm.

    sur = min over the dual unit sphere of the dual norm of A^T v. Along each
    edge of that polygon the objective is convex and piecewise linear, so its
    minimum sits at an edge end or at a kink: a zero of a component of A^T v,
    or (max norm) a point where the two components have equal modulus.
    """
    dual = _DUAL[kind]
    verts = _UNIT_BALL_VERTICES[dual]
    cands = [verts]
    for p, q in zip(verts, np.roll(verts, -1, axis=0)):
        wp, wq = a.T @ p, a.T @ q
        for f0, f1 in ((wp[0], wq[0]), (wp[1], wq[1]), (wp[0] - wp[1], wq[0] - wq[1]),
                       (wp[0] + wp[1], wq[0] + wq[1])):
            if f0 != f1:
                t = f0 / (f0 - f1)
                if 0.0 < t < 1.0:
                    cands.append((p + t * (q - p))[None, :])
    pts = np.concatenate(cands)
    return float(_norm(dual, pts @ a).min())


def exact_opnorm(a: np.ndarray, kind: str) -> float:
    """Largest norm of A x over the vertices of the unit ball."""
    return float(_norm(kind, _UNIT_BALL_VERTICES[kind] @ a.T).max())


def check_mesh_bracket(report, a: np.ndarray, kind: str) -> list[str]:
    exact = exact_sur(a, kind)
    lo, hi = report.lower, float(report.upper)
    if not lo <= exact <= hi:
        return [f"{kind} mesh bracket [{lo}, {hi}] misses exact rate {exact}"]
    return []


def check_mesh_opnorm(value: float, a: np.ndarray, kind: str) -> list[str]:
    exact = exact_opnorm(a, kind)
    return [] if _close(value, exact, 1e-12) else [f"{kind} opnorm {value} != {exact}"]
