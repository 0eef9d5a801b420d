"""Dirichlet solves, conjugated operators and the stability window."""

import math

import numpy as np
import pytest
import scipy.linalg

from klab import femcore, mesh as meshmod, poincare, sobolev, weights, wellposed
from klab.errors import InadmissibleIndexError
from klab.sobolev import NormSpec
from klab.wellposed import BvpProblem


def test_problem_validation(square, square_mesh):
    with pytest.raises(ValueError):
        BvpProblem(square, square_mesh, sign="poisson")
    with pytest.raises(ValueError):
        BvpProblem(square, square_mesh, solver_tol=0.0)
    p = BvpProblem(square, square_mesh)
    assert p.sign == "minus_laplace"
    assert p.a == 0.0


def test_affine_reproduction(square, square_mesh):
    g = lambda p: 0.7 - 2.0 * p[:, 0] + p[:, 1]
    rep = wellposed.solve_dirichlet(BvpProblem(square, square_mesh, g=g))
    exact = g(square_mesh.nodes)
    assert np.abs(rep.solution.values - exact).max() < 1e-9
    assert rep.residual < 1e-9
    assert rep.method == "cg"


def test_constant_boundary_data(lshape, lshape_mesh):
    rep = wellposed.solve_dirichlet(BvpProblem(
        lshape, lshape_mesh, g=lambda p: np.ones(len(p))))
    assert np.abs(rep.solution.values - 1.0).max() < 1e-9


def test_manufactured_sine(square, square_mesh):
    two_pi_sq = 2.0 * math.pi ** 2
    f = lambda p: two_pi_sq * np.sin(math.pi * p[:, 0]) \
        * np.sin(math.pi * p[:, 1])
    rep = wellposed.solve_dirichlet(BvpProblem(square, square_mesh, f=f))
    exact = np.sin(math.pi * square_mesh.nodes[:, 0]) \
        * np.sin(math.pi * square_mesh.nodes[:, 1])
    err = np.abs(rep.solution.values - exact).max()
    assert err < 0.02
    assert rep.stability_ratio is not None and rep.stability_ratio > 0.0
    assert "minus" in rep.sign_note or "-Delta" in rep.sign_note


def test_sign_conventions_agree(square, square_mesh):
    f = lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1]
    neg_f = lambda p: -f(p)
    rep_minus = wellposed.solve_dirichlet(BvpProblem(
        square, square_mesh, f=f, sign="minus_laplace"))
    rep_plain = wellposed.solve_dirichlet(BvpProblem(
        square, square_mesh, f=neg_f, sign="laplace"))
    assert np.allclose(rep_minus.solution.values,
                       rep_plain.solution.values, atol=1e-13)
    assert "Delta u = f" in rep_plain.sign_note


def test_nodal_and_callable_loads_agree(square, square_mesh):
    f = lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1]
    rep_c = wellposed.solve_dirichlet(BvpProblem(square, square_mesh, f=f))
    rep_n = wellposed.solve_dirichlet(BvpProblem(
        square, square_mesh, f=f(square_mesh.nodes)))
    assert np.allclose(rep_c.solution.values, rep_n.solution.values,
                       atol=1e-11)


def test_linearity(lshape, lshape_mesh):
    f1 = lambda p: np.cos(p[:, 0])
    f2 = lambda p: p[:, 1] ** 2
    tol = dict(solver_tol=1e-13)
    u1 = wellposed.solve_dirichlet(
        BvpProblem(lshape, lshape_mesh, f=f1, **tol)).solution.values
    u2 = wellposed.solve_dirichlet(
        BvpProblem(lshape, lshape_mesh, f=f2, **tol)).solution.values
    u12 = wellposed.solve_dirichlet(BvpProblem(
        lshape, lshape_mesh, f=lambda p: f1(p) + f2(p),
        **tol)).solution.values
    assert np.abs(u12 - (u1 + u2)).max() < 1e-9


def test_galerkin_energy_identity(square, square_mesh):
    f = lambda p: np.exp(p[:, 0] - p[:, 1])
    rep = wellposed.solve_dirichlet(BvpProblem(square, square_mesh, f=f,
                                               solver_tol=1e-13))
    u = rep.solution.values
    k = femcore.assemble_stiffness(square_mesh)
    f_vec = femcore.assemble_load(square_mesh, f, degree=4)
    assert float(u @ (k @ u)) == pytest.approx(float(f_vec @ u), rel=1e-9)


def test_zero_trace_solution_satisfies_kappa_bound(lshape, lshape_mesh):
    eta = weights.eta_field(lshape)
    var = poincare.variational_kappa(lshape, lshape_mesh)
    rep = wellposed.solve_dirichlet(BvpProblem(
        lshape, lshape_mesh, f=lambda p: np.ones(len(p))))
    u = rep.solution
    lhs = sobolev.k_norm(u, eta, NormSpec(1, 1.0)).value ** 2
    assert lhs <= var.kappa * poincare.gradient_energy(u) * (1.0 + 1e-10)


def test_combine_conjugate_at_zero_is_stiffness(lshape, lshape_mesh):
    parts = wellposed.conjugate_parts(lshape, lshape_mesh)
    k = parts[0]
    assert wellposed.combine_conjugate(parts, 0.0) is k
    b_half = wellposed.combine_conjugate(parts, 0.5)
    assert np.abs((b_half - k).toarray()).max() > 1e-3
    with pytest.raises(InadmissibleIndexError):
        wellposed.combine_conjugate(parts, 2.5)


def test_conjugate_parts_structure(lshape, lshape_mesh):
    k, skew, m = wellposed.conjugate_parts(lshape, lshape_mesh)
    assert np.abs((skew + skew.T).toarray()).max() < 1e-12
    sym_err = np.abs((m - m.T).toarray()).max()
    assert sym_err < 1e-12
    b = wellposed.combine_conjugate((k, skew, m), 0.7)
    manual = (k + 0.7 * skew - 0.49 * m).toarray()
    assert np.allclose(b.toarray(), manual)


def test_conjugated_solve_small_exponent(lshape, lshape_mesh):
    # well inside the window the conjugated solve succeeds and stays
    # close to the unconjugated solution scale
    rep = wellposed.solve_dirichlet(BvpProblem(
        lshape, lshape_mesh, f=lambda p: np.ones(len(p)), a=0.3))
    assert rep.method == "direct_lu"
    assert rep.residual < 1e-8
    assert np.isfinite(rep.solution.values).all()


def test_stability_ratio_paths(square, square_mesh):
    rep = wellposed.solve_dirichlet(BvpProblem(
        square, square_mesh, f=lambda p: np.ones(len(p))))
    assert 0.0 < rep.stability_ratio < math.inf
    zero = wellposed.solve_dirichlet(BvpProblem(square, square_mesh))
    assert np.all(zero.solution.values == 0.0)
    assert zero.stability_ratio is None
    assert "undefined" in zero.sign_note


def test_predicted_window_edge(square, lshape, box):
    assert wellposed.predicted_window_edge(square) == pytest.approx(2.0)
    assert wellposed.predicted_window_edge(lshape) == pytest.approx(2.0 / 3.0)
    assert wellposed.predicted_window_edge(box) is None


def test_window_probe_square(square, square_mesh):
    rep = wellposed.weight_window_probe(square, square_mesh,
                                        (0.0, 0.5, 1.0))
    assert all(e["stable"] for e in rep.entries)
    assert rep.window == {"lower": -1.0, "upper": 1.0}
    assert rep.bracket is None
    assert rep.entries[0]["indicator"] == pytest.approx(1.0, abs=1e-9)
    assert rep.acrit_estimate["value"] > 1.0
    d = rep.as_dict()
    assert d["predicted_edge"]["value"] == pytest.approx(2.0)
    assert d["predicted_edge"]["provenance"] == "analytic"


def test_window_probe_detects_breakdown(lshape, lshape_mesh):
    rep = wellposed.weight_window_probe(lshape, lshape_mesh,
                                        (0.0, 0.5, 1.9))
    stable = {e["a"]: e["stable"] for e in rep.entries}
    assert stable[0.0] and stable[0.5]
    assert not stable[1.9]
    assert rep.bracket == {"last_stable": 0.5, "first_unstable": 1.9}
    assert rep.window["upper"] == 0.5
    bad = [e for e in rep.entries if e["a"] == 1.9][0]
    assert isinstance(bad["indicator"], float) and bad["indicator"] < 0.0
    assert bad["note"] == "energy breakdown: K - a^2 M is indefinite"
    with pytest.raises(InadmissibleIndexError):
        wellposed.weight_window_probe(lshape, lshape_mesh, (0.0, 2.5))


def test_window_probe_indicator_matches_dense_pencil(lshape, lshape_mesh):
    a_values = (0.0, 0.5, 0.66, 1.9)
    rep = wellposed.weight_window_probe(lshape, lshape_mesh, a_values)
    eta = weights.eta_field(lshape)
    free = np.where(~lshape_mesh.boundary_node_mask())[0]
    k = femcore.assemble_stiffness(lshape_mesh)[free][:, free].toarray()
    m = femcore.assemble_weighted_mass(
        lshape_mesh, weights.power_weight(eta, -2.0),
        degree=5)[free][:, free].toarray()
    for a, entry in zip(a_values, rep.entries):
        dense = scipy.linalg.eigh(k - a * a * m, k, eigvals_only=True,
                                  subset_by_index=[0, 0])[0]
        assert entry["indicator"] == pytest.approx(dense, abs=1e-9)
    assert rep.entries[-1]["indicator"] < 0.0


def test_window_probe_3d_has_no_prediction(box):
    m = meshmod.build_mesh(box, 0.25)
    rep = wellposed.weight_window_probe(box, m, (0.0, 0.3))
    assert rep.predicted_edge is None
    assert rep.as_dict()["predicted_edge"] is None
    assert rep.entries[0]["stable"]


def test_bump_basis(lshape):
    bumps = wellposed.bump_basis(lshape, n=10)
    assert len(bumps) == 10
    pts = weights.sample_interior(lshape, 50)
    for b in bumps:
        vals = b(pts)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    again = wellposed.bump_basis(lshape, n=10)
    for b1, b2 in zip(bumps, again):
        assert np.array_equal(b1(pts), b2(pts))


def test_mapping_ratio(lshape, lshape_mesh):
    bump = wellposed.bump_basis(lshape, n=1)[0]
    u = femcore.interpolate(lshape_mesh, bump)
    out = wellposed.mapping_ratio(lshape, u, a=0.5)
    assert out["a"] == 0.5
    assert 0.0 < out["ratio"] < math.inf
    assert out["ratio"] == pytest.approx(out["numerator"]
                                         / out["denominator"])


def test_conjugation_lipschitz_regression(lshape, lshape_mesh):
    rep = wellposed.conjugation_lipschitz(lshape, lshape_mesh,
                                          (0.0, 0.5, 1.0))
    assert rep["norm"] == "max_row_sum"
    assert len(rep["pairs"]) == 2
    assert math.isfinite(rep["lipschitz"])
    # frozen regression for the fixed mesh and grid
    assert rep["lipschitz"] == pytest.approx(16.33915227900553, rel=1e-10)
    with pytest.raises(ValueError):
        wellposed.conjugation_lipschitz(lshape, lshape_mesh, (0.5,))


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("a", [0.0, 0.3])
def test_solve_dirichlet_builds_lift_once(lshape, lshape_mesh, monkeypatch, a):
    """One stiffness assembly and one minimal extension per solve, and the
    g surrogate is the trace surrogate's value bit for bit."""
    g = lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2
    problem = BvpProblem(lshape, lshape_mesh, f=lambda p: np.ones(len(p)),
                         g=g, a=a)
    with monkeypatch.context() as mp:
        extensions = _count_calls(mp, sobolev, "minimal_extension")
        stiffness = _count_calls(mp, femcore, "assemble_stiffness")
        rep = wellposed.solve_dirichlet(problem)
    assert (len(extensions), len(stiffness)) == (1, 1)
    surrogate = sobolev.trace_norm_surrogate(lshape, lshape_mesh, g).value
    assert rep.norms["g_surrogate"] == surrogate
    boundary = lshape_mesh.boundary_node_mask()
    assert np.array_equal(rep.solution.values[boundary],
                          g(lshape_mesh.nodes)[boundary])


def test_solve_dirichlet_rejects_exponent_before_assembly(
        lshape, lshape_mesh, monkeypatch):
    stiffness = _count_calls(monkeypatch, femcore, "assemble_stiffness")
    with pytest.raises(InadmissibleIndexError):
        wellposed.solve_dirichlet(BvpProblem(lshape, lshape_mesh, a=2.5))
    assert stiffness == []


def test_window_probe_assembles_stiffness_once(lshape, lshape_mesh,
                                               monkeypatch):
    stiffness = _count_calls(monkeypatch, femcore, "assemble_stiffness")
    wellposed.weight_window_probe(lshape, lshape_mesh, (0.0, 0.5))
    assert len(stiffness) == 1
