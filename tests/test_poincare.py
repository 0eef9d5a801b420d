"""Regional Hardy constants, decompositions and the two kappas."""

import math

import numpy as np
import pytest

from klab import femcore, mesh as meshmod, poincare, sobolev, sphere, weights
from klab.errors import DecompositionError
from klab.sobolev import NormSpec


def test_sector_constant_analytic():
    assert poincare.sector_constant(math.pi / 2) == pytest.approx(0.25)
    assert poincare.sector_constant(math.pi) == pytest.approx(1.0)
    assert poincare.sector_constant(1.5 * math.pi) == pytest.approx(2.25)
    with pytest.raises(DecompositionError):
        poincare.sector_constant(0.0)
    with pytest.raises(DecompositionError):
        poincare.sector_constant(2.5 * math.pi)


def test_sector_factor():
    for theta in (math.pi / 2, math.pi, 1.5 * math.pi):
        f = poincare.sector_factor(theta)
        assert f == pytest.approx(math.pi / theta)
        assert f == pytest.approx(1.0 / math.sqrt(
            poincare.sector_constant(theta)))


@pytest.mark.parametrize("theta", [math.pi / 2, math.pi, 1.5 * math.pi])
def test_sector_constant_fem_cross_check(theta):
    fem = poincare.sector_constant_fem(theta, n=128)
    exact = poincare.sector_constant(theta)
    assert abs(fem - exact) / exact < 1e-3
    # the conforming eigensolve overestimates the eigenvalue, so the
    # inverse sits below the analytic constant
    assert fem <= exact


def test_sector_constant_fem_converges():
    theta = 1.5 * math.pi
    errs = [abs(poincare.sector_constant_fem(theta, n=n)
                - poincare.sector_constant(theta)) for n in (32, 64, 128)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[0] == pytest.approx(0.25, rel=0.05)


def test_cap_constant_hemisphere():
    cap = poincare.cap_constant_from_link(sphere.hemisphere(), levels=3)
    # first Dirichlet eigenvalue of the hemisphere is 2
    assert cap.eigenvalue == pytest.approx(2.0, rel=0.02)
    assert cap.value == pytest.approx(0.5, rel=0.02)
    octant_cap = poincare.cap_constant_from_link(sphere.octant(), levels=3)
    assert octant_cap.eigenvalue > cap.eigenvalue
    d = cap.as_dict()
    assert d["provenance"] == "eigensolve"
    assert d["link_area"] == pytest.approx(2.0 * math.pi)


def test_build_decomposition_square(square):
    dec = poincare.build_decomposition(square, samples=400)
    assert len(dec.regions) == 4
    assert all(r.kind == "vertex_sector" for r in dec.regions)
    assert dec.epsilon == pytest.approx(0.25)
    assert dec.trials == 1
    assert dec.eta_min_bound == dec.epsilon
    for r in dec.regions:
        assert r.constant == pytest.approx(0.25)


def test_build_decomposition_lshape(lshape):
    dec = poincare.build_decomposition(lshape, samples=400)
    assert len(dec.regions) == 6
    thetas = sorted(r.theta for r in dec.regions)
    assert thetas[-1] == pytest.approx(1.5 * math.pi)
    assert max(r.constant for r in dec.regions) == pytest.approx(2.25)


def test_build_decomposition_box(box):
    dec = poincare.build_decomposition(box, samples=150, cap_levels=2)
    assert len(dec.by_kind("edge_cylinder")) == 12
    assert len(dec.by_kind("vertex_cone")) == 24
    assert len(dec.by_kind("vertex_ball")) == 8
    for r in dec.by_kind("edge_cylinder"):
        assert r.constant == pytest.approx(0.25)
    for r in dec.by_kind("vertex_ball"):
        assert r.constant is not None and r.constant > 0.0
        assert 0.0 < r.c1 <= 1.0 + 1e-12
        assert r.cap.dofs > 0
    d = dec.as_dict()
    assert len(d["regions"]) == 44


def test_region_inequality_random_fields(lshape, lshape_mesh):
    dec = poincare.build_decomposition(lshape, samples=300)
    rng = np.random.default_rng(poincare.DEFAULT_SEED)
    fields = poincare.random_zero_trace_fields(lshape_mesh, 10, rng)
    for u in fields:
        for region in dec.regions:
            res = poincare.region_inequality_check(lshape, region, u)
            assert res["passed"], res
            assert res["lhs"] >= 0.0
            assert res["rhs"] == pytest.approx(
                res["constant"] * res["gradient_energy"])


def test_random_zero_trace_fields_deterministic(square_mesh):
    a = poincare.random_zero_trace_fields(
        square_mesh, 3, np.random.default_rng(42))
    b = poincare.random_zero_trace_fields(
        square_mesh, 3, np.random.default_rng(42))
    mask = square_mesh.boundary_node_mask()
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.values, ub.values)
        assert np.all(ua.values[mask] == 0.0)
        assert np.any(ua.values != 0.0)


def test_domain_poincare_constant(square_mesh):
    c_p, its = poincare.domain_poincare_constant(square_mesh)
    exact = 1.0 / (2.0 * math.pi ** 2)
    # conforming elements underestimate the constant
    assert c_p <= exact
    assert c_p == pytest.approx(exact, rel=0.05)
    assert its >= 1


def test_variational_kappa_rayleigh_sharp(lshape, lshape_mesh):
    var = poincare.variational_kappa(lshape, lshape_mesh)
    assert var.kappa == pytest.approx(1.0 + var.eigenvalue, rel=1e-14)
    eta = weights.eta_field(lshape)
    rng = np.random.default_rng(poincare.DEFAULT_SEED)
    worst = 0.0
    for u in poincare.random_zero_trace_fields(lshape_mesh, 20, rng):
        lhs = sobolev.k_norm(u, eta, NormSpec(1, 1.0)).value ** 2
        rhs = var.kappa * poincare.gradient_energy(u)
        assert lhs <= rhs * (1.0 + 1e-8)
        worst = max(worst, lhs / rhs)
    # the bound is sharp: random fields come close to it on this mesh
    assert worst > 0.5


def test_variational_kappa_monotone_under_nesting(box):
    m0 = meshmod.build_mesh(box, 0.25)
    m1 = meshmod.refine(m0, 1)
    k0 = poincare.variational_kappa(box, m0).kappa
    k1 = poincare.variational_kappa(box, m1).kappa
    assert k1 >= k0


def test_constructive_kappa_certificate(lshape, lshape_mesh):
    cert = poincare.constructive_kappa(lshape, lshape_mesh, samples=300)
    assert cert.passed
    assert cert.constructive >= cert.variational
    assert cert.residual_term > 0.0
    assert cert.eta_min > 0.0
    assert cert.eta_min <= cert.eta_min_bound
    # reassemble kappa from the reported pieces
    total = sum(entry["term"] for entry in cert.region_terms)
    assert cert.constructive == pytest.approx(
        1.0 + total + cert.residual_term, rel=1e-12)
    # every regional entry names its constant and provenance
    for entry in cert.region_terms:
        assert entry["constant"] > 0.0
        assert "provenance" in entry
        if entry["kind"] == "vertex_sector":
            assert entry["paper_factor"] == pytest.approx(
                math.pi / entry["theta"])
            assert entry["paper_factor_discrepancy"] == pytest.approx(
                abs(entry["constant"] - entry["paper_factor"]))
    d = cert.as_dict()
    assert d["passed"] is True
    assert d["poincare_constant"]["provenance"] == "eigensolve"


def test_constructive_kappa_assembles_stiffness_once(lshape, lshape_mesh,
                                                     monkeypatch):
    """Both eigensolves share one stiffness matrix, with the same results
    as the standalone calls that assemble their own."""
    calls = []
    assemble = femcore.assemble_stiffness
    monkeypatch.setattr(femcore, "assemble_stiffness",
                        lambda m: calls.append(1) or assemble(m))
    cert = poincare.constructive_kappa(lshape, lshape_mesh, samples=300)
    assert len(calls) == 1
    c_p, its = poincare.domain_poincare_constant(lshape_mesh)
    var = poincare.variational_kappa(lshape, lshape_mesh)
    assert (cert.poincare_constant, cert.poincare_iterations) == (c_p, its)
    assert cert.variational == var.kappa


def test_constructive_kappa_box(box, box_mesh):
    cert = poincare.constructive_kappa(box, box_mesh, samples=150)
    assert cert.passed
    assert cert.constructive >= cert.variational
    kinds = {e["kind"] for e in cert.region_terms}
    assert kinds == {"edge_cylinder", "vertex_cone", "vertex_ball"}
    for entry in cert.region_terms:
        if entry["kind"] == "vertex_ball":
            assert entry["cap"]["provenance"] == "eigensolve"
            assert entry["term"] == pytest.approx(
                entry["constant"] / entry["c1"] ** 2)
