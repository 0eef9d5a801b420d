"""Dirichlet solves, conjugated operators and the stability window."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from klab import cli, expressions, femcore, mesh as meshmod, poincare, \
    sobolev, weights, wellposed
from klab.errors import ConvergenceError, InadmissibleIndexError
from klab.sobolev import NormSpec
from klab.wellposed import BvpProblem

from conftest import problem_path


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
    free = np.where(~lshape_mesh.boundary_node_mask())[0]
    k = femcore.assemble_stiffness(lshape_mesh)[free][:, free].toarray()
    m = sobolev.k11_mass(lshape, lshape_mesh)[free][:, free].toarray()
    for a, entry in zip(a_values, rep.entries):
        dense = scipy.linalg.eigh(k - a * a * m, k, eigvals_only=True,
                                  subset_by_index=[0, 0])[0]
        assert entry["indicator"] == pytest.approx(dense, abs=1e-9)
    assert rep.entries[-1]["indicator"] < 0.0


@pytest.mark.parametrize("threshold", [0.0, -0.1, math.nan])
def test_window_probe_rejects_nonpositive_threshold(lshape, lshape_mesh,
                                                    threshold):
    with pytest.raises(ValueError, match="threshold"):
        wellposed.weight_window_probe(lshape, lshape_mesh, (0.0, 0.5),
                                      threshold=threshold)


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


def test_conjugation_lipschitz_assembles_no_stiffness(lshape, lshape_mesh,
                                                      monkeypatch):
    """The closed form reads skew and M only; its rates are criterion
    09's, bit for bit."""
    stiffness = _count_calls(monkeypatch, femcore, "assemble_stiffness")
    rep = wellposed.conjugation_lipschitz(lshape, lshape_mesh,
                                          (0.0, 0.5, 1.0))
    assert stiffness == []
    assert [p["rate"] for p in rep["pairs"]] == [8.482470649171272,
                                                 16.33915227900553]
    assert rep["lipschitz"] == 16.33915227900553


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
    """One stiffness assembly, one 1/eta^2 mass (shared by B_a and the
    K(1, 1) form when a != 0) and one minimal extension per solve, and
    the g surrogate is the trace surrogate's value bit for bit."""
    g = lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2
    problem = BvpProblem(lshape, lshape_mesh, f=lambda p: np.ones(len(p)),
                         g=g, a=a)
    with monkeypatch.context() as mp:
        extensions = _count_calls(mp, sobolev, "minimal_extension")
        stiffness = _count_calls(mp, femcore, "assemble_stiffness")
        masses = _count_calls(mp, sobolev, "k11_mass")
        norms = _count_calls(mp, sobolev, "k_norm")
        rep = wellposed.solve_dirichlet(problem)
    assert (len(extensions), len(stiffness), len(masses)) == (1, 1, 1)
    # at a = 0 the K(0, 1) norm is the order-0 term of the K(2, 1) norm
    assert len(norms) == (1 if a == 0.0 else 2)
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
    """K and the 1/eta^2 mass are assembled once each, and the probe's
    one eigensolve is the variational kappa's."""
    stiffness = _count_calls(monkeypatch, femcore, "assemble_stiffness")
    masses = _count_calls(monkeypatch, sobolev, "k11_mass")
    eigensolves = _count_calls(monkeypatch, femcore,
                               "generalized_eig_extreme")
    wellposed.weight_window_probe(lshape, lshape_mesh, (0.0, 0.5))
    assert (len(stiffness), len(masses), len(eigensolves)) == (1, 1, 1)


@pytest.mark.parametrize("name", ["lshape", "box"])
def test_window_probe_acrit_is_variational_kappa(name, request):
    """The probe and the certificate solve one pencil (k11_mass, K): the
    probe's eigenvalue is variational_kappa's bit for bit, and acrit is
    (kappa - 1)^(-1/2)."""
    domain = request.getfixturevalue(name)
    mesh = (request.getfixturevalue("lshape_mesh") if name == "lshape"
            else meshmod.refine(meshmod.build_mesh(domain, 0.5), 1))
    acrit = wellposed.weight_window_probe(domain, mesh,
                                          (0.0, 0.5)).acrit_estimate
    var = poincare.variational_kappa(domain, mesh)
    assert acrit["eigenvalue"] == var.eigenvalue
    assert acrit["iterations"] == var.iterations
    assert acrit["value"] == 1.0 / math.sqrt(var.eigenvalue)


class _CountedRows:
    """A prolongation that records each row restriction taken of it."""

    def __init__(self, p, calls):
        self.p, self.calls, self.shape = p, calls, p.shape

    def __getitem__(self, rows):
        self.calls.append(self.shape)
        return self.p[rows]


@pytest.mark.parametrize("caller", ["probe", "solve"])
def test_zero_trace_setup_restricts_hierarchy_once(lshape, caller):
    """The probe (its eigensolve and its a = 0 CG) and a Dirichlet solve
    with boundary data (its lift and its CG) restrict each prolongation
    of the mesh to the free nodes once."""
    refined = meshmod.refine(meshmod.build_mesh(lshape, 0.25), 2)
    calls = []
    mesh = dataclasses.replace(refined, prolongations=tuple(
        _CountedRows(p, calls) for p in refined.prolongations))
    if caller == "probe":
        wellposed.weight_window_probe(lshape, mesh, (0.0, 0.5))
    else:
        wellposed.solve_dirichlet(BvpProblem(
            lshape, mesh, f=lambda p: np.ones(len(p)),
            g=lambda p: p[:, 0] ** 2))
    assert sorted(calls) == sorted(p.shape for p in refined.prolongations)


class _CountedCsr(scipy.sparse.csr_matrix):
    """A CSR matrix that records the slices taken of it in its slices
    list, when it has one; the matrices slicing makes have none."""

    slices = None

    def __getitem__(self, key):
        if self.slices is not None:
            self.slices.append(1)
        return super().__getitem__(key)


def test_window_probe_slices_stiffness_once_and_frees_it(lshape,
                                                         monkeypatch):
    """The probe slices K to the free nodes once and holds no full K
    during its eigensolve and its a = 0 CG."""
    mesh = meshmod.refine(meshmod.build_mesh(lshape, 0.25), 1)
    assemble = femcore.assemble_stiffness
    slices, alive = [], []

    def counted_stiffness(*args, **kwargs):
        k_mat = _CountedCsr(assemble(*args, **kwargs))
        k_mat.slices = slices
        alive.append(weakref.ref(k_mat))
        return k_mat

    def without_full_k(inner):
        def check(*args, **kwargs):
            assert [ref() for ref in alive] == [None]
            return inner(*args, **kwargs)
        return check

    monkeypatch.setattr(femcore, "assemble_stiffness", counted_stiffness)
    for name in ("generalized_eig_extreme", "cg_solve"):
        monkeypatch.setattr(femcore, name,
                            without_full_k(getattr(femcore, name)))
    rep = wellposed.weight_window_probe(lshape, mesh, (0.0, 0.5))
    assert rep.response_zero["converged"]
    assert slices == [1]


# A grid on the graded L-shape below whose indicators (acrit is about
# 0.93 on this mesh) are certified at |a| <= 0.8, in (0, threshold) at
# 0.9 and negative at 1.0 and 1.9.
CERTIFY_GRID = (0.0, -0.5, 0.8, 0.9, 1.0, 1.9)


@pytest.fixture(scope="module")
def graded_lshape_mesh(lshape):
    grading = meshmod.default_grading(lshape, 0.25)
    return meshmod.refine(meshmod.build_mesh(lshape, 0.125, grading=grading),
                          1, grading=grading)


def test_window_probe_certified_bound_holds(lshape, graded_lshape_mesh):
    """At every certified a the response of B_a, solved by an explicit
    sparse LU here, is at most the Lax-Milgram bound; every other a
    carries no response, and the stable flags and the bracket are the
    rule "indicator >= threshold"."""
    mesh = graded_lshape_mesh
    rep = wellposed.weight_window_probe(lshape, mesh, CERTIFY_GRID)
    parts = wellposed.conjugate_parts(lshape, mesh)
    free = mesh.free_nodes
    k_ff = parts[0][free][:, free].tocsr()
    f_free = femcore.assemble_load(mesh, lambda p: np.ones(len(p)),
                                   degree=wellposed.LOAD_DEGREE)[free]
    zero = rep.response_zero
    assert zero["converged"] and zero["method"] == "cg"
    assert zero["residual"] <= 1e-10 and zero["iterations"] >= 1
    rule = []
    for entry in rep.entries:
        if "response_bound" in entry:
            b_mat = wellposed.combine_conjugate(parts, entry["a"])
            b_ff = b_mat[free][:, free].tocsc()
            x = scipy.sparse.linalg.splu(b_ff).solve(f_free)
            response = math.sqrt(x @ (k_ff @ x))
            assert entry["provenance"] == "Lax-Milgram"
            assert entry["response_bound"] == pytest.approx(
                zero["value"] / entry["indicator"], rel=1e-15)
            assert response <= entry["response_bound"] * (1.0 + 1e-9)
        else:
            assert not {"response_norm", "solve_ok"} & entry.keys()
        rule.append(entry["indicator"] >= 0.1)
    assert [e["stable"] for e in rep.entries] == rule
    assert rep.window == {"lower": -0.8, "upper": 0.8}
    assert rep.bracket == {"last_stable": 0.8, "first_unstable": 0.9}


def test_window_probe_factors_nothing_full_size(lshape, graded_lshape_mesh,
                                                monkeypatch):
    """The probe assembles no skew part, combines no B_a and factors no
    full-size matrix, also where the indicator certifies nothing; the
    only factors are the coarse solves of the multigrid V-cycles."""
    free = graded_lshape_mesh.free_nodes
    sizes = []
    factor = femcore._factor

    def counting_factor(matrix):
        sizes.append(matrix.shape[0])
        return factor(matrix)

    monkeypatch.setattr(femcore, "_factor", counting_factor)
    combined = _count_calls(monkeypatch, wellposed, "combine_conjugate")
    gradvecs = _count_calls(monkeypatch, femcore, "assemble_gradvec")
    rep = wellposed.weight_window_probe(lshape, graded_lshape_mesh,
                                        CERTIFY_GRID)
    uncertified = [e["a"] for e in rep.entries if "response_bound" not in e]
    assert uncertified == [0.9, 1.0, 1.9]
    assert (combined, gradvecs) == ([], [])
    assert all(s < len(free) for s in sizes)


def test_window_probe_below_threshold_is_unstable_unsolved(
        lshape, graded_lshape_mesh):
    rep = wellposed.weight_window_probe(lshape, graded_lshape_mesh,
                                        (0.0, 0.9))
    low = rep.entries[1]
    assert 0.0 < low["indicator"] < rep.threshold and not low["stable"]
    assert not {"response_norm", "solve_residual", "solve_ok",
                "solve_note"} & low.keys()
    assert "response_bound" not in low and "note" not in low
    assert rep.bracket == {"last_stable": 0.0, "first_unstable": 0.9}


def test_window_probe_failed_zero_solve_certifies_nothing(
        lshape, graded_lshape_mesh, monkeypatch):
    """A failed a = 0 solve is reported, not raised: the entries it
    would have certified are unstable and carry its failure."""
    def stalled(*args, **kwargs):
        raise ConvergenceError("conjugate gradients stalled", residual=0.5)

    monkeypatch.setattr(femcore, "cg_solve", stalled)
    rep = wellposed.weight_window_probe(lshape, graded_lshape_mesh,
                                        (0.0, 0.5, 1.0))
    zero = rep.response_zero
    assert zero["value"] is None and zero["converged"] is False
    assert zero["residual"] == 0.5
    assert zero["note"] == "a = 0 solve: conjugate gradients stalled"
    for entry in rep.entries[:2]:
        assert not entry["stable"] and not entry["solve_ok"]
        assert entry["solve_note"] == zero["note"]
    assert not rep.entries[2]["stable"] and "solve_ok" not in rep.entries[2]
    assert rep.window == {"lower": -0.0, "upper": 0.0}
    assert rep.as_dict()["response_zero"] == zero


def _spd(draw_matrix, n, shift):
    a = np.array(draw_matrix).reshape(n, n)
    return a @ a.T + shift * np.eye(n)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    *[st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)
      for _ in range(3)],
    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))),
    st.floats(0.0, 0.999), st.booleans())
def test_lax_milgram_bound_of_conjugated_system(data, fraction, negative):
    """For SPD K, PSD M, antisymmetric S and an a with
    1 - a^2 lambda_max(M, K) > 0, the K-norm of (K + a S - a^2 M)^-1 f
    is at most that of K^-1 f divided by 1 - a^2 lambda_max."""
    n, k_entries, m_entries, s_entries, f = data
    k = _spd(k_entries, n, 0.5)
    m = _spd(m_entries, n, 0.0)
    c = np.array(s_entries).reshape(n, n)
    skew = c - c.T
    f = np.array(f) + 1.0
    lam_max = scipy.linalg.eigh(m, k, eigvals_only=True)[-1]
    a = math.sqrt(fraction / lam_max) if lam_max > 0.0 else fraction
    a = -a if negative else a
    indicator = 1.0 - a * a * lam_max
    assert indicator > 0.0

    def k_norm(x):
        return math.sqrt(x @ k @ x)

    x = np.linalg.solve(k + a * skew - a * a * m, f)
    x0 = np.linalg.solve(k, f)
    assert k_norm(x) <= k_norm(x0) / indicator * (1.0 + 1e-9)


@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize("name, key, skipped", [
    ("lshape_singular.json", "f", ((femcore, "assemble_load"),
                                   (sobolev, "k_data_norm"))),
    ("manufactured_square.json", "g", ((sobolev, "minimal_extension"),
                                       (sobolev, "k11_form")))])
def test_zero_data_costs_no_quadrature(monkeypatch, name, key, skipped, a):
    """Data given as the expression "0" is read as absent: its load, data
    norm or lift is never computed, and the report equals, bit for bit,
    that of the problem built with None. lshape_singular's file gives f
    as "0"; manufactured_square has no g, so "0" is added here."""
    setup = cli.load_problem(problem_path(name))
    if setup[key] is None:
        setup[key] = expressions.parse_expression("0", 2)
    assert setup[key].constant == 0.0
    mesh = meshmod.build_mesh(setup["domain"], 0.25)
    data = {"f": setup["f"], "g": setup["g"]}
    problem = BvpProblem(setup["domain"], mesh, a=a, **data)
    assert getattr(problem, key) is None
    with monkeypatch.context() as mp:
        calls = [_count_calls(mp, module, fn) for module, fn in skipped]
        rep = wellposed.solve_dirichlet(problem)
    assert calls == [[], []]
    data[key] = None
    want = wellposed.solve_dirichlet(BvpProblem(setup["domain"], mesh, a=a,
                                                **data))
    assert repr(rep.as_dict()) == repr(want.as_dict())


@settings(deadline=None, max_examples=12)
@given(st.sampled_from(["lshape", "square", "box"]),
       st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
       st.integers(0, 2 ** 32 - 1))
def test_u_k0_1_at_zero_index_is_the_order0_term(request, name, scale, seed):
    """At a = 0 the reported u_K0_1 equals a k_norm call of NormSpec(0,
    1) on the solution, bit for bit, for random nodal f and g."""
    domain = request.getfixturevalue(name)
    mesh = request.getfixturevalue(f"{name}_mesh")
    rng = np.random.default_rng(seed)
    f, g = scale * rng.standard_normal((2, mesh.num_nodes))
    rep = wellposed.solve_dirichlet(BvpProblem(domain, mesh, f=f, g=g))
    want = sobolev.k_norm(rep.solution, weights.eta_field(domain),
                          NormSpec(0, 1.0)).value
    assert rep.norms["u_K0_1"].hex() == want.hex()
