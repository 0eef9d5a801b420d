"""Dirichlet solves, conjugated operators and stability probes.

The bilinear form is B(u, v) = integral of grad u . grad v, so the
discrete problem B u = F with F(v) = integral of f~ v solves the
boundary value problem whose strong form is -Delta u = f~, the
default reading of the data. Problem data given in the Delta u = f
convention is loaded with a sign flip, recorded in the report.

Conjugation by a power of the singular distance replaces B with

    B_a(u, v) = integral of grad(w^a u) . grad(w^-a v)
              = B(u, v) + a * [u q . grad v - v q . grad u]
                        - a^2 * integral of |q|^2 u v,    q = grad w / w,

expanded by the product rule at quadrature points; for w = eta the
last integral is the 1/eta^2 mass sobolev.k11_mass. The family is the
operator side of the shifted-index solution theory: B_a stays coercive
while |a| is below the first singular exponent, and the weight-window
probe measures exactly where the discrete coercivity degrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import femcore, geometry, kernels, poincare, sobolev, weights
from .errors import (ConvergenceError, InadmissibleIndexError,
                     NumericalError)
from .femcore import FemField
from .geometry import Polyhedron
from .mesh import SimplicialMesh, free_prolongations
from .sobolev import NormSpec

SIGN_CONVENTIONS = ("laplace", "minus_laplace")
MAX_CONJUGATION = 2.0
# Quadrature degree of load vectors from a callable source.
LOAD_DEGREE = 4


@dataclass
class BvpProblem:
    """Dirichlet problem data on a meshed domain.

    f and g may be callables of an (N, d) coordinate array, nodal
    arrays, or None (zero). sign records how f is to be read:
    "minus_laplace" (the default) means f prescribes -Delta u = f,
    "laplace" means f prescribes Delta u = f (the load is then -f).
    """

    domain: Polyhedron
    mesh: SimplicialMesh
    f: object = None
    g: object = None
    a: float = 0.0
    sign: str = "minus_laplace"
    solver_tol: float = 1e-10

    def __post_init__(self):
        if self.sign not in SIGN_CONVENTIONS:
            raise ValueError(f"sign must be one of {SIGN_CONVENTIONS}")
        if not self.solver_tol > 0.0:
            raise ValueError("solver tolerance must be positive")
        self.a = float(self.a)


@dataclass
class SolveReport:
    """Solution together with the norms entering the stability estimate."""

    solution: FemField
    a: float
    residual: float
    iterations: int
    method: str
    norms: dict
    stability_ratio: float | None
    sign_note: str

    def as_dict(self) -> dict:
        return {"a": self.a, "residual": self.residual,
                "iterations": self.iterations, "method": self.method,
                "norms": dict(self.norms),
                "stability_ratio": self.stability_ratio,
                "sign_note": self.sign_note}


def conjugate_parts(domain: Polyhedron, mesh: SimplicialMesh):
    """Component matrices (K, skew, M) of the conjugated family.

    B_a = K + a * skew - a^2 * M with skew = G^T - G for the
    convection matrix G of q = grad eta / eta, and M the |q|^2 = 1/eta^2
    mass sobolev.k11_mass, the matrix of poincare.variational_kappa.
    """
    k_mat = femcore.assemble_stiffness(mesh)
    g_mat = femcore.assemble_gradvec(
        mesh, weights.eta_field(domain).grad_over_value, degree=5)
    return k_mat, (g_mat.T - g_mat).tocsr(), sobolev.k11_mass(domain, mesh)


def _check_conjugation(a: float) -> None:
    if not abs(a) <= MAX_CONJUGATION:  # NaN fails too
        raise InadmissibleIndexError(
            f"conjugation exponent {a} outside [-{MAX_CONJUGATION}, "
            f"{MAX_CONJUGATION}]")


def combine_conjugate(parts, a: float):
    """B_a from precomputed parts; a = 0 returns K itself."""
    _check_conjugation(a)
    k_mat, skew, m_mat = parts
    if a == 0.0:
        return k_mat
    return (k_mat + a * skew - (a * a) * m_mat).tocsr()


def _load_vector(problem: BvpProblem) -> np.ndarray:
    mesh = problem.mesh
    if problem.f is None:
        return np.zeros(mesh.num_nodes)
    flip = -1.0 if problem.sign == "laplace" else 1.0
    if callable(problem.f):
        return flip * femcore.assemble_load(mesh, problem.f, degree=LOAD_DEGREE)
    f_nodes = np.asarray(problem.f, dtype=float)
    mass = femcore.assemble_weighted_mass(mesh, lambda p: np.ones(len(p)),
                                          degree=2)
    return flip * (mass @ f_nodes)


def _sign_note(problem: BvpProblem) -> str:
    if problem.sign == "laplace":
        return ("data f read as Delta u = f; the assembled load is -f "
                "since B(u, v) = integral of grad u . grad v")
    return "data f read as -Delta u = f; the assembled load is +f"


def solve_dirichlet(problem: BvpProblem) -> SolveReport:
    """Solve B_a u = F with Dirichlet data lifted by minimal extension.

    The system goes through femcore.solve. a = 0 uses conjugate-free
    assembly and its conjugate-gradient solver, preconditioned by
    multigrid on the mesh's refinement hierarchy when it has one;
    conjugated systems are nonsymmetric and go through its one sparse
    LU factorization, whose failure is a ConvergenceError. The report
    carries the method, iterations and true relative residual that
    femcore.solve returns. The stiffness matrix K is assembled
    once (it is B_0, and the first of the conjugate parts otherwise),
    and the K(1, 1) form K + k11_mass once when there is boundary data:
    it gives the lift, the minimal extension of g, and the g surrogate,
    the energy of that lift in the same form, which is exactly the
    value sobolev.trace_norm_surrogate reports.
    """
    domain, mesh = problem.domain, problem.mesh
    _check_conjugation(problem.a)
    parts = (conjugate_parts(domain, mesh) if problem.a != 0.0
             else (femcore.assemble_stiffness(mesh), None, None))
    k_mat, m_mat = parts[0], parts[2]
    b_mat = combine_conjugate(parts, problem.a)
    del parts
    f_vec = _load_vector(problem)
    if problem.g is None:
        lift = np.zeros(mesh.num_nodes)
        g_surr = 0.0
    else:
        form = sobolev.k11_form(domain, mesh, stiffness=k_mat, mass=m_mat)
        lift = sobolev.minimal_extension(domain, mesh, problem.g,
                                         form=form).values
        energy = float(kernels.neumaier_dot(lift, form @ lift))
        g_surr = math.sqrt(max(energy, 0.0))
        # Freed here so they do not add to the peak of the solve and of
        # the norm quadrature below.
        del form
    # Every matrix of this solve is assembled, so the mesh's cached
    # pattern goes too.
    del k_mat, m_mat, mesh.pattern

    free = mesh.free_nodes()
    rhs_full = f_vec - b_mat @ lift
    rhs = rhs_full[free]
    b_ff = b_mat[free][:, free].tocsr()

    symmetric = problem.a == 0.0
    hierarchy = free_prolongations(mesh.prolongations, free) if symmetric else ()
    x, info = femcore.solve(b_ff, rhs, tol=problem.solver_tol,
                            hierarchy=hierarchy, symmetric=symmetric)

    values = np.array(lift)
    values[free] += x
    u = FemField(mesh, values)

    eta = weights.eta_field(domain)
    u_high = sobolev.k_norm(u, eta, NormSpec(mu=2, a=problem.a + 1.0))
    u_base = sobolev.k_norm(u, eta, NormSpec(mu=0, a=1.0))
    if problem.f is None:
        f_norm = 0.0
    else:
        f_arg = problem.f if callable(problem.f) \
            else np.asarray(problem.f, dtype=float)
        f_norm = sobolev.k_data_norm(domain, mesh, f_arg,
                                     a=problem.a - 1.0).value

    denom = f_norm + g_surr + u_base.value
    if denom == 0.0:
        ratio = None
        note = "undefined (zero data and zero solution)"
    else:
        ratio = u_high.value / denom
        note = _sign_note(problem)
    norms = {"u_K2_a1": u_high.value, "u_K0_1": u_base.value,
             "f_K0_am1": f_norm, "g_surrogate": g_surr,
             "u_terms": dict(u_high.terms)}
    return SolveReport(solution=u, a=problem.a, residual=info["residual"],
                       iterations=info["iterations"], method=info["method"],
                       norms=norms, stability_ratio=ratio, sign_note=note)


# ---------------------------------------------------------------------
# weight window probe
# ---------------------------------------------------------------------


def predicted_window_edge(domain: Polyhedron) -> float | None:
    """Analytic first singular exponent for polygons: min of pi / theta.

    Only implemented in 2D. For 3D domains the edge exponents pi per
    dihedral angle interact with the vertex pencils, so no analytic
    prediction is reported; the probe then carries the empirical
    bracket only.
    """
    if domain.dimension != 2:
        return None
    angles = [geometry.interior_angle(domain, i)
              for i in range(len(domain.vertices))]
    return min(math.pi / t for t in angles)


@dataclass
class WindowReport:
    """Per-exponent stability data and the detected symmetric window."""

    a_values: list
    entries: list
    threshold: float
    indicator_zero: float
    response_zero: dict
    acrit_estimate: dict
    predicted_edge: float | None
    window: dict
    bracket: dict | None

    def as_dict(self) -> dict:
        return {"a_values": list(self.a_values),
                "entries": [dict(e) for e in self.entries],
                "threshold": self.threshold,
                "indicator_zero": self.indicator_zero,
                "response_zero": dict(self.response_zero),
                "acrit_estimate": dict(self.acrit_estimate),
                "predicted_edge": None if self.predicted_edge is None
                else {"value": self.predicted_edge, "provenance": "analytic"},
                "window": dict(self.window),
                "bracket": dict(self.bracket) if self.bracket else None}


def _energy_norm(x: np.ndarray, k_mat) -> float:
    return math.sqrt(max(kernels.neumaier_dot(x, k_mat @ x), 0.0))


def weight_window_probe(domain: Polyhedron, mesh: SimplicialMesh,
                        a_values, threshold: float = 0.1,
                        f=None) -> WindowReport:
    """Probe the coercivity of the conjugated family over a grid of a.

    For each a the indicator is the smallest eigenvalue of the
    symmetric part (K - a^2 M, K) on the zero-trace subspace; the
    energy of B_a equals the energy of its symmetric part, so this is
    the singular-value proxy of the conjugated system in the energy
    metric. It equals 1 - a^2 lambda_max(M, K) exactly, so one
    eigensolve of (M, K), which also gives acrit = lambda_max^(-1/2),
    yields every indicator; it is 1 at a = 0 and a value <= 0 marks an
    indefinite K - a^2 M (energy breakdown). M is sobolev.k11_mass, so
    that eigensolve is poincare.variational_kappa's.

    Since x^T B_a x >= indicator * x^T K x, an a whose indicator is
    positive and at least threshold times its a = 0 value is certified
    by Lax-Milgram: B_a is invertible and the response to the fixed
    source f obeys norm(B_a^-1 f, K) <= norm(K^-1 f, K) / indicator.
    The one solve of K at a = 0 (femcore.solve's conjugate gradients,
    preconditioned by multigrid on the same hierarchy as the
    eigensolve) gives response_zero; a certified entry carries that
    bound as response_bound and is stable, with no solve of its own.
    Every other a solves B_a by femcore.solve's sparse LU and reports
    response_norm, solve_residual and solve_ok; it is stable when its
    indicator is at least the threshold and that solve succeeds, which
    a positive threshold rules out. When the a = 0 solve fails, the
    entries it would have certified carry solve_ok False and its
    failure as solve_note, and are not stable.
    """
    a_values = [float(a) for a in a_values]
    for a in a_values:
        _check_conjugation(a)
    parts = conjugate_parts(domain, mesh)
    k_mat, _, m_mat = parts
    var = poincare.variational_kappa(domain, mesh, k_mat, m_mat)
    lam_max = var.eigenvalue
    acrit_note = {"value": 1.0 / math.sqrt(lam_max), "eigenvalue": lam_max,
                  "iterations": var.iterations, "provenance": "eigensolve"}
    free = mesh.free_nodes()
    k_ff = k_mat[free][:, free].tocsr()
    hierarchy = free_prolongations(mesh.prolongations, free)

    if f is None:
        def f(points):
            return np.ones(len(points))
    f_free = femcore.assemble_load(mesh, f, degree=LOAD_DEGREE)[free]

    try:
        x, info = femcore.solve(k_ff, f_free, hierarchy=hierarchy)
        response_zero = {"value": _energy_norm(x, k_ff),
                         "method": info["method"],
                         "iterations": info["iterations"],
                         "residual": info["residual"], "converged": True}
        zero_note = None
    except NumericalError as exc:
        zero_note = f"a = 0 solve: {exc}"
        response_zero = {"value": None, "method": "cg", "iterations": None,
                         "residual": getattr(exc, "residual", None),
                         "converged": False, "note": zero_note}

    entries = []
    indicator_zero = 1.0
    for a in a_values:
        indicator = 1.0 - (a * a) * lam_max
        entry = {"a": a, "indicator": indicator, "indicator_converged": True}
        if indicator <= 0.0:
            entry["note"] = "energy breakdown: K - a^2 M is indefinite"

        certified = 0.0 < indicator and indicator >= threshold * indicator_zero
        if certified and zero_note is None:
            entry.update(response_bound=response_zero["value"] / indicator,
                         provenance="Lax-Milgram")
        elif certified:
            entry.update(solve_ok=False, response_norm=None,
                         solve_residual=None, solve_note=zero_note)
        else:
            b_ff = combine_conjugate(parts, a)[free][:, free].tocsr()
            try:
                x, info = femcore.solve(b_ff, f_free, symmetric=False)
                entry.update(solve_ok=True,
                             response_norm=_energy_norm(x, k_ff),
                             solve_residual=info["residual"])
            except ConvergenceError as exc:
                entry.update(solve_ok=False, response_norm=None,
                             solve_residual=None,
                             solve_note=f"conjugated solve: {exc}")

        # A certified entry has no solve_ok: Lax-Milgram implies it.
        entry["stable"] = (indicator >= threshold * indicator_zero
                           and entry.get("solve_ok", True))
        entries.append(entry)

    by_abs = sorted(entries, key=lambda e: abs(e["a"]))
    edge = 0.0
    for e in by_abs:
        if e["stable"]:
            edge = max(edge, abs(e["a"]))
        else:
            break
    unstable_abs = sorted(abs(e["a"]) for e in entries if not e["stable"])
    bracket = None
    if unstable_abs:
        bracket = {"last_stable": edge, "first_unstable": unstable_abs[0]}
    window = {"lower": -edge, "upper": edge}

    return WindowReport(a_values=a_values, entries=entries,
                        threshold=threshold, indicator_zero=indicator_zero,
                        response_zero=response_zero,
                        acrit_estimate=acrit_note,
                        predicted_edge=predicted_window_edge(domain),
                        window=window, bracket=bracket)


# ---------------------------------------------------------------------
# mapping-property probes
# ---------------------------------------------------------------------


def laplacian_proxy(u: FemField) -> np.ndarray:
    """Per-element Laplacian surrogate: trace of the recovered Hessian."""
    hess = femcore.element_hessians(u)
    return np.einsum("edd->e", hess)


def mapping_ratio(domain: Polyhedron, u: FemField, a: float) -> dict:
    """Quotient norm(proxy Delta u, K(0, a - 2)) / norm(u, K(2, a))."""
    mesh = u.mesh
    eta = weights.eta_field(domain)
    num = sobolev.k_data_norm(domain, mesh, laplacian_proxy(u),
                              a=a - 2.0).value
    den = sobolev.k_norm(u, eta, NormSpec(mu=2, a=a)).value
    return {"a": a, "numerator": num, "denominator": den,
            "ratio": num / den if den > 0.0 else math.inf}


def bump_basis(domain: Polyhedron, n: int = 10) -> list:
    """Fixed family of Gaussian bumps centered at interior Halton points.

    The bumps are smooth functions of position, so they can be
    interpolated consistently on any mesh of the domain.
    """
    centers = weights.sample_interior(domain, n)
    dists = domain.boundary_distance(centers)

    def make(c, s):
        def bump(points):
            rel = np.atleast_2d(points) - c
            return np.exp(-np.einsum("nd,nd->n", rel, rel) / (2.0 * s * s))
        return bump

    return [make(centers[i], max(0.35 * dists[i], 0.05)) for i in range(n)]


def conjugation_lipschitz(domain: Polyhedron, mesh: SimplicialMesh,
                          a_grid) -> dict:
    """Max-row-sum Lipschitz estimate of a -> B_a over a grid.

    Reports max over consecutive grid pairs of
    norm(B_a1 - B_a2, inf) / |a1 - a2|.
    """
    a_grid = sorted(float(a) for a in a_grid)
    if len(a_grid) < 2:
        raise ValueError("need at least two grid points")
    parts = conjugate_parts(domain, mesh)
    mats = [combine_conjugate(parts, a) for a in a_grid]
    pairs = []
    worst = 0.0
    for i in range(len(a_grid) - 1):
        diff = (mats[i + 1] - mats[i]).tocsr()
        num = float(np.abs(diff).sum(axis=1).max())
        rate = num / (a_grid[i + 1] - a_grid[i])
        pairs.append({"a_low": a_grid[i], "a_high": a_grid[i + 1],
                      "rate": rate})
        worst = max(worst, rate)
    return {"norm": "max_row_sum", "grid": a_grid, "pairs": pairs,
            "lipschitz": worst}
