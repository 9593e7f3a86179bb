"""Openness moduli of linear operators between small normed spaces.

A DenseMatrix is one read-only float array, built and checked once. The
rate of a matrix A is the largest c with c B_Y inside A(B_X): for euclidean
norms this is the smallest singular value of the transposed operator, read
by LAPACK (numpy.linalg.svd) from the matrix's array or its transposed view.
An independent sphere-mesh oracle evaluates the same quantity by brute
force; the two routes are kept separate so each can audit the other.
Non-euclidean norms are handled by the mesh route only, with refinement
until stable, and always reported as a bracket. The mesh route walks the
dual sphere one part (a polyhedral edge) at a time. On a 2-D sup- or
one-norm domain its inner max, and the operator norm, read the 4 vertices
of the domain ball, where a linear functional or a norm attains its max.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .extreal import as_ext
from .regularity import ModulusReport

_JACOBI_REL_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60
_RANK_TOL = 1e-10
_MESH_STABLE_TOL = 1e-6


class DenseMatrix:
    """A real matrix held as one read-only float array of shape (rows, cols).

    The constructor takes the rows * cols entries row by row, reads each as
    float() does, and rejects a non-finite one; scaled, plus and minus check
    their results the same way, so an overflow to inf is an error.
    """

    __slots__ = ("_array",)

    def __init__(self, rows: int, cols: int, entries: Sequence[float]) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count must equal rows * cols")
        a = np.array(entries, dtype=float).reshape(rows, cols)
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        a.flags.writeable = False
        self._array = a

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "DenseMatrix":
        r = len(rows)
        if r == 0:
            raise ValueError("matrix needs at least one row")
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, np.array(rows, dtype=float).ravel())

    @property
    def rows(self) -> int:
        return self._array.shape[0]

    @property
    def cols(self) -> int:
        return self._array.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self._array.shape, tuple(self._array.ravel().tolist())))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}, {self.cols}, {tuple(self._array.ravel().tolist())})"

    def as_array(self) -> np.ndarray:
        """The matrix's own read-only array; no copy is made."""
        return self._array

    def scaled(self, factor: float) -> "DenseMatrix":
        with np.errstate(all="ignore"):
            return DenseMatrix(self.rows, self.cols, (factor * self._array).ravel())

    def minus(self, other: "DenseMatrix") -> "DenseMatrix":
        if self._array.shape != other._array.shape:
            raise ValueError("shape mismatch")
        with np.errstate(all="ignore"):
            return DenseMatrix(self.rows, self.cols, (self._array - other._array).ravel())

    def plus(self, other: "DenseMatrix") -> "DenseMatrix":
        if self._array.shape != other._array.shape:
            raise ValueError("shape mismatch")
        with np.errstate(all="ignore"):
            return DenseMatrix(self.rows, self.cols, (self._array + other._array).ravel())


@dataclass(frozen=True)
class NormSpec:
    kind: str  # "euclidean", "sup", or "one"
    dimension: int

    def __post_init__(self) -> None:
        if self.kind not in ("euclidean", "sup", "one"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")

    def norms(self, vs: np.ndarray) -> np.ndarray:
        if self.kind == "euclidean":
            return np.sqrt((vs * vs).sum(axis=-1))
        if self.kind == "sup":
            return np.abs(vs).max(axis=-1)
        return np.abs(vs).sum(axis=-1)


def euclidean_space(dimension: int) -> NormSpec:
    return NormSpec("euclidean", dimension)


def _dual_space(space: NormSpec) -> NormSpec:
    # Supporting functionals live in the dual norm: sup and one swap,
    # euclidean is self-dual.
    if space.kind == "sup":
        return NormSpec("one", space.dimension)
    if space.kind == "one":
        return NormSpec("sup", space.dimension)
    return space


def jacobi_column_norms(a: np.ndarray) -> np.ndarray:
    """Singular values of a via one-sided Jacobi, one per column, descending.

    Row-cyclic sweeps of plane rotations orthogonalize the columns; sweeps
    stop when the off-diagonal Frobenius mass of the Gram matrix drops below
    1e-12 of its total, or after 60 sweeps. Column norms of the rotated
    matrix are the singular values (zeros included when rank < cols).

    No program path calls it: singular_values uses LAPACK. It stays defined
    and exported only because perfbench's traced mode patches this name as a
    layer; it goes once that layer is renamed.
    """
    b = np.array(a, dtype=float, copy=True)
    n = b.shape[1]
    if n == 1:
        return np.array([float(np.sqrt((b * b).sum()))])
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                u = b[:, i]
                v = b[:, j]
                p = float(u @ v)
                q = float(u @ u)
                r = float(v @ v)
                total += q * q + r * r
                off += 2.0 * p * p
                if p == 0.0 or q * r == 0.0:
                    continue
                zeta = (r - q) / (2.0 * p)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                bi = cs * u - sn * v
                bj = sn * u + cs * v
                b[:, i] = bi
                b[:, j] = bj
        if total == 0.0 or math.sqrt(off) <= _JACOBI_REL_TOL * math.sqrt(total + off):
            break
    sigmas = np.sqrt((b * b).sum(axis=0))
    return np.sort(sigmas)[::-1]


def singular_values(m: DenseMatrix) -> np.ndarray:
    """All singular values of m (length = cols), descending.

    LAPACK's values through numpy.linalg.svd, with zeros appended when
    rows < cols.
    """
    sigmas = np.linalg.svd(m.as_array(), compute_uv=False)
    return sigmas if m.rows >= m.cols else np.pad(sigmas, (0, m.cols - m.rows))


def _spaces(m: DenseMatrix, nx: NormSpec | None,
            ny: NormSpec | None) -> tuple[NormSpec, NormSpec]:
    """The domain and codomain norms, euclidean by default, checked against
    the shape of m."""
    nx = nx or euclidean_space(m.cols)
    ny = ny or euclidean_space(m.rows)
    if nx.dimension != m.cols:
        raise ValueError("domain norm dimension must equal matrix cols")
    if ny.dimension != m.rows:
        raise ValueError("codomain norm dimension must equal matrix rows")
    return nx, ny


def _sphere_parts(space: NormSpec, count: int) -> Iterator[np.ndarray]:
    """Points on the unit sphere of the norm, one part at a time;
    deterministic, anchored meshes.

    Euclidean: one part, an angle grid anchored at angle 0 (2-D) or a
    Fibonacci spiral (3-D). Polyhedral norms (sup, one): one part per edge,
    each with both its vertices, so linear maxima over the ball are hit
    exactly.
    """
    d = space.dimension
    if d == 1:
        yield np.array([[1.0], [-1.0]])
        return
    if space.kind == "euclidean":
        if d == 2:
            angles = np.arange(count) * (2.0 * math.pi / count)
            yield np.stack([np.cos(angles), np.sin(angles)], axis=1)
            return
        if d == 3:
            k = np.arange(count) + 0.5
            phi = math.pi * (1.0 + math.sqrt(5.0)) * k
            z = 1.0 - 2.0 * k / count
            rad = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            yield np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)
            return
        raise NotImplementedError("euclidean sphere meshes only for dimensions 1-3")
    if d != 2:
        raise NotImplementedError("polyhedral sphere meshes only for dimensions 1-2")
    per_edge = max(count // 4, 3) | 1  # odd: includes endpoints and midpoint
    s = np.linspace(-1.0, 1.0, per_edge)
    if space.kind == "sup":
        yield np.stack([np.full(per_edge, 1.0), s], axis=1)
        yield np.stack([np.full(per_edge, -1.0), s], axis=1)
        yield np.stack([s, np.full(per_edge, 1.0)], axis=1)
        yield np.stack([s, np.full(per_edge, -1.0)], axis=1)
        return
    # one-norm: diamond with vertices (+-1, 0), (0, +-1)
    t = 0.5 * (s + 1.0)  # in [0, 1]
    yield np.stack([1.0 - t, t], axis=1)
    yield np.stack([-t, 1.0 - t], axis=1)
    yield np.stack([t - 1.0, -t], axis=1)
    yield np.stack([t, t - 1.0], axis=1)


def _sphere_mesh(space: NormSpec, count: int) -> np.ndarray:
    """The whole sphere mesh of _sphere_parts as one array; a mesh of one part
    is returned as it is, not copied."""
    parts = list(_sphere_parts(space, count))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# Vertices of the 2-D polyhedral unit balls. Every polyhedral sphere mesh
# contains them exactly.
_BALL_VERTICES = {
    "sup": np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
    "one": np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
}


def _ball_vertices(space: NormSpec) -> np.ndarray | None:
    """The vertices of a 2-D sup- or one-norm unit ball; None for any other
    space. A linear functional or a norm attains its max over the ball at one
    of them (Rockafellar, Convex Analysis, 1970, section 32)."""
    if space.dimension == 2 and space.kind in _BALL_VERTICES:
        return _BALL_VERTICES[space.kind]
    return None


def _mesh_min_support(m: DenseMatrix, nx: NormSpec, ny: NormSpec,
                      count: int) -> float:
    """min over dual-sphere mesh of max over the domain ball of <v, Ax>.

    The inner max is the farthest reach of A(B_X) behind each supporting
    hyperplane; supporting functionals carry the dual norm of the target
    space, so the outer min runs over the dual unit sphere and yields the
    certified covering radius. The inner max reads the ball's vertices on a
    polyhedral 2-D domain, where it is exact, and the domain-sphere mesh
    otherwise. The dual mesh is walked one part (an edge of a polyhedral
    sphere) at a time, in chunks, to bound memory; min and max are exact, so
    the walk gives the value of the whole mesh.
    """
    sources = _ball_vertices(nx)
    if sources is None:
        sources = _sphere_mesh(nx, count)
    imgs = sources @ m.as_array().T  # (n_src, rows)
    best = math.inf
    for part in _sphere_parts(_dual_space(ny), count):
        for lo in range(0, len(part), 1024):
            # One chunk's (chunk, n_src) supports, freed before the next is made.
            best = min(best, float((part[lo:lo + 1024] @ imgs.T).max(axis=1).min()))
    return best


def _refine_until_stable(evaluate) -> tuple[float, float, int]:
    """Run evaluate(count) on doubling mesh counts, from 360 points up to the
    cap of 360 * 2**7 = 46,080, until three values agree."""
    values: list[float] = []
    for count in (360 * 2 ** k for k in range(8)):
        values.append(evaluate(count))
        if len(values) >= 3 and max(values[-3:]) - min(values[-3:]) <= _MESH_STABLE_TOL:
            break
    spread = (max(values[-3:]) - min(values[-3:])) if len(values) >= 3 else math.inf
    return values[-1], spread, count


def opnorm(m: DenseMatrix, nx: NormSpec | None = None,
           ny: NormSpec | None = None) -> float:
    """Operator norm: the largest singular value for euclidean norms, the
    max over the ball's vertices on a polyhedral 2-D domain, and otherwise
    the max over refined domain-sphere meshes."""
    nx, ny = _spaces(m, nx, ny)
    if nx.kind == "euclidean" and ny.kind == "euclidean":
        return float(np.linalg.svd(m.as_array(), compute_uv=False)[0])
    vertices = _ball_vertices(nx)
    if vertices is not None:
        return float(ny.norms(vertices @ m.as_array().T).max())
    value, _, _ = _refine_until_stable(
        lambda count: float(ny.norms(_sphere_mesh(nx, count) @ m.as_array().T).max()))
    return value


def _svd_sur(m: DenseMatrix, sigmas: np.ndarray) -> float:
    """The svd route's rate from the singular values of m's transposed view:
    the smallest, or zero when rank < rows."""
    value = float(sigmas[-1])
    if m.rows > m.cols or value <= _RANK_TOL * max(1.0, float(sigmas[0])):
        return 0.0
    return value


def sur_modulus(m: DenseMatrix, nx: NormSpec | None = None,
                ny: NormSpec | None = None, method: str = "svd",
                mesh_count: int = 3600) -> ModulusReport:
    """Largest rate c with c B_Y covered by A(B_X).

    method="svd" (euclidean only): smallest singular value of the transposed
    operator, read by LAPACK from a view of m's array; zero when rank < rows.
    method="grid": sphere-mesh brute force, reported with the mesh step as
    resolution. Non-euclidean norms force the mesh route and a bracket.
    """
    nx, ny = _spaces(m, nx, ny)
    euclid = nx.kind == "euclidean" and ny.kind == "euclidean"
    if method not in ("svd", "grid"):
        raise ValueError(f"unknown method {method!r}")
    limited = False
    if method == "svd":
        if not euclid:
            raise ValueError("svd route applies to euclidean norms only")
        value = _svd_sur(m, np.linalg.svd(m.as_array().T, compute_uv=False))
        err = step = 0.0
    elif euclid:
        value = max(_mesh_min_support(m, nx, ny, mesh_count), 0.0)
        step = 2.0 * math.pi / mesh_count
        err = 2.0 * step * opnorm(m)
    else:
        value, spread, count = _refine_until_stable(
            lambda count: _mesh_min_support(m, nx, ny, count))
        value = max(value, 0.0)
        step = 2.0 * math.pi / count
        err = max(spread, _MESH_STABLE_TOL) + 2.0 * step * opnorm(m)
        limited = spread > _MESH_STABLE_TOL
    return ModulusReport(
        kind="sur",
        lower=max(value - err, 0.0),
        upper=as_ext(value + err),
        estimate=value,
        grid_resolution=step,
        stabilized_gamma=None,
        resolution_limited=limited,
        witness_ok=None,
        witness_fail=None,
    )


def injectivity_bound(m: DenseMatrix, nx: NormSpec | None = None,
                      ny: NormSpec | None = None) -> float:
    """inf over the unit domain sphere of the codomain norm of Ax."""
    nx, ny = _spaces(m, nx, ny)
    if nx.kind == "euclidean" and ny.kind == "euclidean":
        # Zero when cols > rows (m has a kernel); floored at the rank
        # tolerance as in sur_modulus, so a rank-deficient m reads 0, not
        # LAPACK's noise.
        sigmas = np.linalg.svd(m.as_array(), compute_uv=False)
        value = float(sigmas[-1]) if m.rows >= m.cols else 0.0
        return 0.0 if value <= _RANK_TOL * max(1.0, float(sigmas[0])) else value
    value, _, _ = _refine_until_stable(
        lambda count: float(ny.norms(_sphere_mesh(nx, count) @ m.as_array().T).min()))
    return max(value, 0.0)


@dataclass(frozen=True)
class LinearVerdict:
    name: str
    passed: bool
    skipped: bool
    reason: str
    data: tuple[tuple[str, float], ...]


def harte_check(m: DenseMatrix, nx: NormSpec | None = None,
                ny: NormSpec | None = None, tol: float = 1e-9) -> LinearVerdict:
    """Rate at least the injectivity bound, for full-row-rank operators."""
    nx, ny = _spaces(m, nx, ny)
    sigmas = np.linalg.svd(m.as_array().T, compute_uv=False)
    rank = int((sigmas > _RANK_TOL).sum())
    if rank < m.rows:
        return LinearVerdict(
            name="harte",
            passed=True,
            skipped=True,
            reason="range not dense: rank below row count",
            data=(("rank", float(rank)),),
        )
    alpha = injectivity_bound(m, nx, ny)
    # Under euclidean norms the rank test's values are sur_modulus's own:
    # the same LAPACK call on the same view.
    if nx.kind == "euclidean" and ny.kind == "euclidean":
        sur = _svd_sur(m, sigmas)
    else:
        sur = sur_modulus(m, nx, ny, method="grid").estimate
    if alpha <= 0.0:
        return LinearVerdict(
            name="harte",
            passed=True,
            skipped=False,
            reason="injectivity bound zero: hypothesis empty",
            data=(("alpha", alpha), ("sur", sur)),
        )
    ok = sur >= alpha - tol
    return LinearVerdict(
        name="harte",
        passed=ok,
        skipped=False,
        reason="" if ok else "rate fell below the injectivity bound",
        data=(("alpha", alpha), ("sur", sur)),
    )


def sur_lipschitz_check(a: DenseMatrix, b: DenseMatrix,
                        nx: NormSpec | None = None, ny: NormSpec | None = None,
                        tol: float = 1e-8) -> LinearVerdict:
    """|sur A - sur B| <= opnorm(A - B) + tol."""
    diff = a.minus(b)  # raises on a shape mismatch
    nx, ny = _spaces(a, nx, ny)
    method = "svd" if nx.kind == "euclidean" and ny.kind == "euclidean" else "grid"
    sur_a = sur_modulus(a, nx, ny, method=method).estimate
    sur_b = sur_modulus(b, nx, ny, method=method).estimate
    gap = opnorm(diff, nx, ny)
    ok = abs(sur_a - sur_b) <= gap + tol
    return LinearVerdict(
        name="sur-lipschitz",
        passed=ok,
        skipped=False,
        reason="" if ok else "modulus moved more than the operator distance",
        data=(("sur_a", sur_a), ("sur_b", sur_b), ("opnorm_diff", gap)),
    )


def open_set_check(m: DenseMatrix, nx: NormSpec | None = None,
                   ny: NormSpec | None = None, samples: int = 100,
                   seed: int = 0) -> LinearVerdict:
    """Perturbations smaller than the rate keep the rate positive.

    Samples matrices E with opnorm(E) < 0.99 * sur(A) and asserts
    sur(A + E) > 0 on each.
    """
    nx, ny = _spaces(m, nx, ny)
    method = "svd" if nx.kind == "euclidean" and ny.kind == "euclidean" else "grid"
    base = sur_modulus(m, nx, ny, method=method).estimate
    if not base > 0.0:
        raise ValueError("open_set_check needs a positive base rate")
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(samples):
        em = DenseMatrix(m.rows, m.cols, rng.standard_normal((m.rows, m.cols)).ravel())
        scale = float(rng.uniform(0.05, 0.99)) * base / max(opnorm(em, nx, ny), 1e-300)
        em = em.scaled(scale)
        perturbed = sur_modulus(m.plus(em), nx, ny, method=method).estimate
        worst = min(worst, perturbed)
        if not perturbed > 0.0:
            return LinearVerdict(
                name="open-set",
                passed=False,
                skipped=False,
                reason="a small perturbation killed the rate",
                data=(("base", base), ("worst", perturbed)),
            )
    return LinearVerdict(
        name="open-set",
        passed=True,
        skipped=False,
        reason="",
        data=(("base", base), ("worst", worst), ("samples", float(samples))),
    )
