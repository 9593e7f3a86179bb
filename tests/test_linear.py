"""Surjection rates, operator norms, and perturbation checks for matrices.

Singular-value pins are hand-derived closed forms (symmetric eigenvalues,
shear 1 + sqrt(2) and sqrt(2) - 1); no expected value here comes from an
SVD routine.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from almostreg import linear
from almostreg.linear import (
    DenseMatrix,
    NormSpec,
    _dual_space,
    _mesh_min_support,
    _refine_until_stable,
    _sphere_mesh,
    euclidean_space,
    harte_check,
    injectivity_bound,
    jacobi_column_norms,
    open_set_check,
    opnorm,
    singular_values,
    sur_lipschitz_check,
    sur_modulus,
)

DIAG31 = DenseMatrix.from_rows([[3.0, 0.0], [0.0, 1.0]])
WIDE = DenseMatrix.from_rows([[1.0, 1.0]])
SHEAR = DenseMatrix.from_rows([[1.0, 2.0], [0.0, 1.0]])
SUP2 = NormSpec("sup", 2)
ONE2 = NormSpec("one", 2)


def test_jacobi_hand_derived_two_by_two():
    sym = np.array([[3.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(jacobi_column_norms(sym), [4.0, 2.0],
                               atol=1e-12)
    np.testing.assert_allclose(singular_values(SHEAR),
                               [1.0 + math.sqrt(2.0), math.sqrt(2.0) - 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(jacobi_column_norms(np.array([[3.0], [4.0]])),
                               [5.0], atol=1e-15)


def test_singular_values_hand_derived():
    np.testing.assert_allclose(
        singular_values(DenseMatrix.from_rows([[3.0, 1.0], [1.0, 3.0]])),
        [4.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(singular_values(SHEAR),
                               [1.0 + math.sqrt(2.0), math.sqrt(2.0) - 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(singular_values(DenseMatrix.from_rows([[3.0], [4.0]])),
                               [5.0], atol=1e-15)
    # rows < cols: one value per column, the missing ones exactly zero
    wide = singular_values(DenseMatrix.from_rows([[3.0, 0.0, 4.0]]))
    assert wide.shape == (3,)
    np.testing.assert_allclose(wide[0], 5.0, atol=1e-15)
    assert wide[1] == 0.0 and wide[2] == 0.0


def test_sur_svd_route_pins():
    ident = DenseMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
    assert sur_modulus(ident).estimate == pytest.approx(1.0, abs=1e-12)
    assert sur_modulus(DIAG31).estimate == pytest.approx(1.0, abs=1e-12)
    assert sur_modulus(WIDE).estimate == pytest.approx(math.sqrt(2.0),
                                                       abs=1e-12)
    rankdef = DenseMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]])
    assert sur_modulus(rankdef).estimate == 0.0
    tall = DenseMatrix.from_rows([[1.0], [1.0]])
    assert sur_modulus(tall).estimate == 0.0  # more rows than columns


def test_sur_grid_route_brackets_svd_value():
    for m, exact in ((DIAG31, 1.0), (WIDE, math.sqrt(2.0))):
        rep = sur_modulus(m, method="grid", mesh_count=3600)
        assert rep.estimate == pytest.approx(exact, abs=1e-4)
        assert rep.lower <= exact <= float(rep.upper)
        assert rep.grid_resolution == pytest.approx(2.0 * math.pi / 3600)


def test_sur_polyhedral_pins():
    tri = DenseMatrix.from_rows([[1.0, 1.0], [0.0, 1.0]])
    rep = sur_modulus(tri, SUP2, SUP2, method="grid")
    # optimum sits at the dual functional (1/2, -1/2), hit exactly by the mesh
    assert rep.estimate == pytest.approx(0.5, abs=1e-12)
    assert rep.lower <= 0.5 <= float(rep.upper)
    assert not rep.resolution_limited
    ident = DenseMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
    assert sur_modulus(ident, ONE2, SUP2,
                       method="grid").estimate == pytest.approx(0.5, abs=1e-12)
    assert sur_modulus(ident, SUP2, ONE2,
                       method="grid").estimate == pytest.approx(1.0, abs=1e-12)


def test_sur_method_guards():
    with pytest.raises(ValueError, match="unknown method"):
        sur_modulus(DIAG31, method="qr")
    with pytest.raises(ValueError, match="euclidean norms only"):
        sur_modulus(DIAG31, SUP2, SUP2, method="svd")


def test_mesh_refinement_reports_last_evaluated_count():
    # A value that never settles runs the doubling meshes to the cap; the
    # count returned must be the last mesh evaluated, 360 * 2**7.
    counts = []

    def never_settles(m, nx, ny, count):
        counts.append(count)
        return float(len(counts))

    value, spread, count = _refine_until_stable(DIAG31, SUP2, SUP2, never_settles)
    assert counts == [360 * 2 ** k for k in range(8)]
    assert count == 46080 == counts[-1]
    assert value == 8.0 and spread == 2.0


def test_mesh_refinement_stops_at_a_spread_equal_to_the_tolerance():
    # The values 0, 1e-6, 0 spread by exactly _MESH_STABLE_TOL, which counts
    # as settled: the refinement stops at the third mesh, 360 * 2**2.
    values = iter([0.0, 1e-6, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0])

    def settles_at_the_tolerance(m, nx, ny, count):
        return next(values)

    assert linear._MESH_STABLE_TOL == 1e-6
    assert _refine_until_stable(DIAG31, SUP2, SUP2, settles_at_the_tolerance) == (
        0.0, 1e-6, 1440)


def test_vertex_supports_match_full_domain_mesh():
    # The inner max of <v, Ax> over a polyhedral domain is read at the 4
    # vertices of the ball, which every domain-sphere mesh contains. It is
    # never above the max over the full mesh; it can sit below it only by the
    # round-off of <v, Ap> at a mesh point p inside an edge, at most a few
    # eps * sum|a_ij| (|v_i|, |p_j| <= 1).
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    for _ in range(20):
        a = rng.standard_normal((2, 2)) * rng.uniform(0.1, 10.0)
        m = DenseMatrix.from_rows(a.tolist())
        for kx in ("sup", "one"):
            for ky in ("sup", "one", "euclidean"):
                nx, ny = NormSpec(kx, 2), NormSpec(ky, 2)
                for count in (360, 1440):
                    targets = _sphere_mesh(_dual_space(ny), count)
                    sources = _sphere_mesh(nx, count)
                    full = float((targets @ (sources @ a.T).T).max(axis=1).min())
                    value = _mesh_min_support(m, nx, ny, count)
                    assert value <= full
                    assert full - value <= 2.0 * eps * np.abs(a).sum()


def test_polyhedral_opnorm_reads_ball_vertices():
    # A norm of Ax attains its max over a polyhedral ball at a vertex, so the
    # value is the max over the 4 vertices, with no mesh refinement.
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        m = DenseMatrix.from_rows(a.tolist())
        for kx, verts in (("sup", [[1, 1], [-1, 1], [-1, -1], [1, -1]]),
                          ("one", [[1, 0], [0, 1], [-1, 0], [0, -1]])):
            images = np.array(verts, dtype=float) @ a.T
            for ky in ("sup", "one", "euclidean"):
                ny = NormSpec(ky, 2)
                assert opnorm(m, NormSpec(kx, 2), ny) == float(ny.norms(images).max())
                # the domain mesh contains the vertices, so its max is no lower
                mesh = _sphere_mesh(NormSpec(kx, 2), 360) @ a.T
                assert opnorm(m, NormSpec(kx, 2), ny) <= float(ny.norms(mesh).max())


def test_polyhedral_opnorm_matches_closed_forms():
    # Independent of the vertex route: the induced sup norm is the largest
    # row abs-sum, the induced one norm the largest column abs-sum, and the
    # one-to-sup norm the largest entry in absolute value, all exact.
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-3, 4)
        m = DenseMatrix.from_rows(a.tolist())
        rows = [abs(a[i, 0]) + abs(a[i, 1]) for i in range(2)]
        cols = [abs(a[0, j]) + abs(a[1, j]) for j in range(2)]
        assert opnorm(m, SUP2, SUP2) == max(rows)
        assert opnorm(m, ONE2, ONE2) == max(cols)
        assert opnorm(m, ONE2, SUP2) == max(abs(v) for v in a.ravel().tolist())


def test_opnorm_pins():
    assert opnorm(DIAG31) == pytest.approx(3.0, abs=1e-12)
    tri = DenseMatrix.from_rows([[1.0, 1.0], [0.0, 1.0]])
    assert opnorm(tri, SUP2, SUP2) == pytest.approx(2.0, abs=1e-12)
    assert opnorm(SHEAR) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-9)


def test_injectivity_bound_pins():
    assert injectivity_bound(DIAG31) == pytest.approx(1.0, abs=1e-12)
    assert injectivity_bound(WIDE) == 0.0  # wide operators have a kernel
    ident = DenseMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
    assert injectivity_bound(ident, SUP2, SUP2) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_harte_three_outcomes():
    skipped = harte_check(DenseMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]]))
    assert skipped.skipped and skipped.passed
    assert "rank below row count" in skipped.reason
    applied = harte_check(DIAG31)
    assert applied.passed and not applied.skipped
    data = dict(applied.data)
    assert data["alpha"] == pytest.approx(1.0, abs=1e-9)
    assert data["sur"] >= data["alpha"] - 1e-9
    vacuous = harte_check(WIDE)
    assert vacuous.passed and not vacuous.skipped
    assert "hypothesis empty" in vacuous.reason


def test_harte_rank_counts_singular_values_above_the_tolerance_only():
    # The second singular value of diag(1, 1e-10) is exactly 1e-10, the rank
    # tolerance, so it does not count toward rank: the check is skipped with
    # rank 1.
    m = DenseMatrix.from_rows([[1.0, 0.0], [0.0, 1e-10]])
    assert singular_values(m).tolist() == [1.0, 1e-10]
    verdict = harte_check(m)
    assert verdict.skipped and verdict.passed and verdict.data == (("rank", 1.0),)


def test_harte_reads_sur_from_its_rank_test(monkeypatch):
    # Under euclidean norms harte_check takes two SVDs: the rank test's on
    # the transposed view, whose values also give sur, and
    # injectivity_bound's on A. Its data equal the public routes' values bit
    # for bit, and the hand-derived ones: diag(3, 1) has alpha = sur = 1, the
    # shear sqrt(2) - 1, and the wide [1, 1] sur = sqrt(2) with alpha 0.
    rng = np.random.default_rng(20261020)
    mats = [DIAG31, SHEAR, WIDE] + [DenseMatrix.from_rows(rng.standard_normal(shape).tolist())
                                    for shape in ((5, 5), (3, 6), (20, 20))]
    expected = [(("alpha", injectivity_bound(m)), ("sur", sur_modulus(m).estimate))
                for m in mats]
    assert expected[0] == (("alpha", 1.0), ("sur", 1.0))
    (_, alpha), (_, sur) = expected[1]
    assert alpha == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    assert sur == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    assert expected[2][0] == ("alpha", 0.0)
    assert expected[2][1][1] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for m, data in zip(mats, expected):
        shapes.clear()
        assert harte_check(m).data == data
        assert shapes == [(m.cols, m.rows), (m.rows, m.cols)], shapes


def test_sur_lipschitz_check():
    other = DenseMatrix.from_rows([[3.0, 0.0], [0.0, 1.2]])
    rep = sur_lipschitz_check(DIAG31, other)
    assert rep.passed
    data = dict(rep.data)
    assert data["sur_a"] == pytest.approx(1.0, abs=1e-9)
    assert data["sur_b"] == pytest.approx(1.2, abs=1e-9)
    assert data["opnorm_diff"] == pytest.approx(0.2, abs=1e-9)
    with pytest.raises(ValueError, match="shape"):
        sur_lipschitz_check(DIAG31, WIDE)


def test_open_set_check_deterministic_and_positive():
    a = open_set_check(DIAG31, samples=20, seed=3)
    b = open_set_check(DIAG31, samples=20, seed=3)
    assert a.passed and b.passed
    assert dict(a.data)["worst"] == dict(b.data)["worst"]
    assert dict(a.data)["worst"] == pytest.approx(0.3245756585622466,
                                                  abs=1e-12)
    rankdef = DenseMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="positive base rate"):
        open_set_check(rankdef)


def test_open_set_check_sup_norms_frozen():
    # Every perturbed sample runs the sup-norm mesh route; worst recorded at
    # the commit before the vertex supports.
    rep = open_set_check(DIAG31, SUP2, SUP2, samples=6, seed=0)
    assert rep.passed
    assert dict(rep.data)["worst"] == 0.41858178770004456


def test_jacobi_is_off_every_program_path(monkeypatch):
    def unused(a):
        raise AssertionError("jacobi_column_norms called")

    monkeypatch.setattr(linear, "jacobi_column_norms", unused)
    tri = DenseMatrix.from_rows([[1.0, 1.0], [0.0, 1.0]])
    other = DenseMatrix.from_rows([[3.0, 0.1], [0.2, 1.2]])
    for m in (DIAG31, SHEAR, tri, WIDE):
        sur_modulus(m)
        sur_modulus(m, method="grid", mesh_count=360)
        opnorm(m)
        injectivity_bound(m)
        harte_check(m)
    for norm in (SUP2, ONE2):
        sur_modulus(tri, norm, norm, method="grid")
        opnorm(tri, norm, norm)
        injectivity_bound(tri, norm, norm)
        harte_check(tri, norm, norm)
        sur_lipschitz_check(DIAG31, other, norm, norm)
        open_set_check(DIAG31, norm, norm, samples=2, seed=1)
    sur_lipschitz_check(DIAG31, other)
    open_set_check(DIAG31, samples=5, seed=1)


def test_rotation_invariance_of_euclidean_quantities():
    theta = 0.7
    q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    rotated = DenseMatrix.from_rows((q @ SHEAR.as_array()).tolist())
    assert sur_modulus(rotated).estimate == pytest.approx(
        sur_modulus(SHEAR).estimate, abs=1e-9)
    assert opnorm(rotated) == pytest.approx(opnorm(SHEAR), abs=1e-9)


def test_matrix_and_norm_validation():
    with pytest.raises(ValueError, match="ragged"):
        DenseMatrix.from_rows([[1.0, 2.0], [3.0]])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            DenseMatrix.from_rows([[1.0, bad]])
        with pytest.raises(ValueError, match="finite"):
            DenseMatrix(1, 2, (bad, 1.0))
    with pytest.raises(ValueError, match="entry count"):
        DenseMatrix(2, 2, (1.0, 2.0))
    with pytest.raises(ValueError, match="entry count"):
        DenseMatrix(1, 2, (1.0, 2.0, 3.0))
    for rows, cols in ((0, 1), (1, 0), (-1, -1)):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            DenseMatrix(rows, cols, ())
    with pytest.raises(ValueError, match="convert string"):
        DenseMatrix(1, 2, ("a", 1.0))
    with pytest.raises(ValueError, match="convert string"):
        DenseMatrix.from_rows([["x"]])
    for bad in (None, 1j, object()):
        with pytest.raises((TypeError, ValueError)):
            DenseMatrix(1, 1, (bad,))
    # Arithmetic whose result overflows to inf is rejected, not warned about.
    big = DenseMatrix.from_rows([[1e308, 1.0]])
    for make in (lambda: big.scaled(10.0), lambda: big.scaled(math.inf),
                 lambda: big.plus(big), lambda: big.minus(big.scaled(-1.0))):
        with pytest.raises(ValueError, match="finite"):
            make()
    with pytest.raises(ValueError, match="shape"):
        DIAG31.plus(WIDE)
    # The matrix's array is its own and read-only: no caller can change it.
    with pytest.raises(ValueError, match="read-only"):
        SHEAR.as_array()[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        SHEAR.scaled(2.0).as_array()[0, 0] = 5.0
    entries = [1.0, 2.0, 0.0, 1.0]
    copied = DenseMatrix(2, 2, entries)
    entries[0] = 9.0
    assert copied == SHEAR and hash(copied) == hash(SHEAR)
    assert SHEAR.scaled(1.0) == SHEAR and SHEAR.scaled(2.0) != SHEAR
    assert SHEAR.as_array().tolist() == [[1.0, 2.0], [0.0, 1.0]]
    assert repr(WIDE) == "DenseMatrix(1, 2, (1.0, 1.0))"
    with pytest.raises(ValueError, match="unknown norm kind"):
        NormSpec("taxicab", 2)
    with pytest.raises(ValueError, match="at least 1"):
        NormSpec("sup", 0)
    with pytest.raises(ValueError, match="domain norm dimension"):
        opnorm(DIAG31, euclidean_space(3))
    with pytest.raises(ValueError, match="codomain norm dimension"):
        opnorm(DIAG31, euclidean_space(2), euclidean_space(3))


def test_mesh_dimension_limits():
    wide4 = DenseMatrix.from_rows([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(NotImplementedError, match="dimensions 1-3"):
        sur_modulus(wide4, method="grid")
    cube = DenseMatrix.from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0]])
    with pytest.raises(NotImplementedError, match="dimensions 1-2"):
        opnorm(cube, NormSpec("sup", 3), NormSpec("sup", 3))


def test_three_dim_euclidean_mesh_route():
    cube = DenseMatrix.from_rows([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0]])
    assert opnorm(cube) == pytest.approx(2.0, abs=1e-12)
    rep = sur_modulus(cube, method="grid", mesh_count=20000)
    assert rep.estimate == pytest.approx(1.0, abs=0.05)


@st.composite
def matrices_2x2(draw):
    vals = [draw(st.floats(-5.0, 5.0)) for _ in range(4)]
    return DenseMatrix.from_rows([[vals[0], vals[1]], [vals[2], vals[3]]])


@settings(max_examples=60)
@given(m=matrices_2x2(), factor=st.floats(0.1, 4.0))
def test_sur_homogeneous_and_below_opnorm(m, factor):
    rep = sur_modulus(m)
    assert rep.estimate <= opnorm(m) + 1e-9
    scaled = sur_modulus(m.scaled(factor))
    assert scaled.estimate == pytest.approx(factor * rep.estimate,
                                            abs=1e-8, rel=1e-8)


@settings(max_examples=40)
@given(m=matrices_2x2())
def test_sur_matches_dual_grid_route(m):
    svd_val = sur_modulus(m).estimate
    grid_val = sur_modulus(m, method="grid", mesh_count=3600).estimate
    assert grid_val == pytest.approx(svd_val, abs=2e-3 * (1.0 + opnorm(m)))


def test_injectivity_bound_rank_floor():
    # LAPACK leaves about 1e-16 as the smallest singular value of a
    # rank-deficient matrix; the bound reads it as 0, as sur_modulus does.
    for rows in ([[1.0, 2.0], [2.0, 4.0]], [[0.3, -1.7], [0.6, -3.4]]):
        m = DenseMatrix.from_rows(rows)
        assert injectivity_bound(m) == 0.0
        assert sur_modulus(m).lower == 0.0
    tall = DenseMatrix.from_rows([[3.0, 0.0], [0.0, 1e-6], [0.0, 0.0]])
    assert injectivity_bound(tall) == pytest.approx(1e-6, rel=1e-9)


def _lapack_on_copy(a: np.ndarray) -> np.ndarray:
    """Singular values of a as the routes once computed them: LAPACK on a
    C-contiguous copy, zeros appended up to the column count."""
    sigmas = np.linalg.svd(np.ascontiguousarray(a), compute_uv=False)
    return np.pad(sigmas, (0, a.shape[1] - len(sigmas)))


def test_svd_routes_equal_lapack_on_contiguous_copies():
    # The SVD routes hand LAPACK the matrix's own array or its transposed
    # view. Every value must equal, bit for bit, the one read from a
    # C-contiguous copy of the matrix or of its transpose.
    rng = np.random.default_rng(20261019)
    shapes = ((2, 2), (3, 3), (7, 7), (20, 20), (2, 5), (3, 8), (5, 2), (8, 3))
    mats = [rng.standard_normal(shape) for shape in shapes]
    mats += [np.outer(rng.standard_normal(r), rng.standard_normal(c))  # rank 1
             for r, c in ((4, 4), (3, 5), (5, 3))]
    tol = linear._RANK_TOL
    outcomes = set()
    for a in mats:
        m = DenseMatrix.from_rows(a.tolist())
        rows, cols = a.shape
        sig, sig_t = _lapack_on_copy(a), _lapack_on_copy(a.T)
        assert np.array_equal(singular_values(m), sig)
        assert opnorm(m) == float(sig[0])
        sur = float(sig_t[-1])
        if rows > cols or sur <= tol * max(1.0, float(sig_t[0])):
            sur = 0.0
        rep = sur_modulus(m)
        assert (rep.estimate, rep.lower, float(rep.upper)) == (sur, sur, sur)
        alpha = float(sig[-1])
        alpha = 0.0 if alpha <= tol * max(1.0, float(sig[0])) else alpha
        assert injectivity_bound(m) == alpha
        rank = int((sig_t > tol).sum())
        verdict = harte_check(m)
        if rank < rows:
            expected = (("rank", float(rank)),)
        else:
            expected = (("alpha", alpha), ("sur", sur))
        assert verdict.data == expected
        outcomes.add((verdict.skipped, alpha > 0.0))
    # skipped (tall, rank 1), applied with alpha > 0 (square), vacuous (wide)
    assert outcomes == {(True, False), (True, True), (False, True), (False, False)}


def test_mesh_walk_equals_whole_mesh_minimum():
    # _mesh_min_support walks the dual sphere mesh edge by edge; min and max
    # are exact, so at every mesh count up to the cap its value must equal
    # the minimum over the whole mesh at once. Matrices: acceptance 9's
    # identity, diagonal and wide pins, and the linear workload's generic
    # 2x2 (the second 2x2 draw of default_rng(0)), whose refinement runs to
    # the cap.
    generic = np.random.default_rng(0).standard_normal((2, 2, 2))[1]
    mats = ([[1.0, 0.0], [0.0, 1.0]], [[3.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]],
            generic.tolist())
    for rows in mats:
        m = DenseMatrix.from_rows(rows)
        a = m.as_array()
        for kx in ("sup", "one"):
            for ky in ("sup", "one"):
                nx, ny = NormSpec(kx, m.cols), NormSpec(ky, m.rows)
                imgs = linear._ball_vertices(nx) @ a.T
                for count in (360 * 2 ** k for k in range(8)):
                    targets = _sphere_mesh(_dual_space(ny), count)
                    whole = float((targets @ imgs.T).max(axis=1).min())
                    assert _mesh_min_support(m, nx, ny, count) == whole


def test_mesh_walk_holds_two_chunks_of_supports():
    # Under Euclidean norms each chunk of 1024 dual points makes a
    # 1024 x 2600 support table (21.3 MB) against the whole domain mesh, and
    # the next chunk's table is made before the last one is dropped: the
    # walk peaks at two chunks' tables. Chunks of 2048 would peak at
    # 54.1 MB, as the whole product does.
    m = DenseMatrix.from_rows([[2.0, 1.0], [0.5, 3.0]])
    space = euclidean_space(2)
    count = 2600
    tracemalloc.start()
    try:
        value = _mesh_min_support(m, space, space, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 1024 * count * 8, peak
    assert value > 0.0
