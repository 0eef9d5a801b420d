"""Acceptance battery: one test per headline guarantee of the package.

Each test checks a guarantee end to end at its stated tolerance and
appends a single PASS/FAIL line to the terminal summary, so a full run
reads as a checklist. Tolerances are part of the contract and are not
to be loosened to make a failing build green.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from klab import cli, femcore, poincare, report, sobolev, sphere, weights, \
    wellposed
from klab import mesh as meshmod
from klab.femcore import FemField
from klab.sobolev import NormSpec

from conftest import ACCEPTANCE_LINES, problem_path

PROVENANCES = {"analytic", "eigensolve", "quadrature", "sampled",
               "regression-frozen"}


def _record(num, name, checks):
    """Append one summary line; checks is a list of (ok, detail) pairs."""
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(text for _, text in checks)
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _errors(m, u, exact, exact_grad, degree=5):
    """L2 and full H1 error of a FEM field against callables."""
    rule = femcore.simplex_rule(m.dimension, degree)
    vols = m.element_volumes()
    pts = femcore.quadrature_points(m, rule)
    flat = pts.reshape(-1, m.dimension)
    diff = u.at_quadrature(rule) - np.asarray(
        exact(flat), dtype=float).reshape(len(vols), -1)
    l2_sq = float(np.einsum("e,q,eq->", vols, rule.weights, diff ** 2))
    gdiff = u.element_gradients()[:, None, :] - np.asarray(
        exact_grad(flat), dtype=float).reshape(pts.shape)
    semi_sq = float(np.einsum("e,q,eq->", vols, rule.weights,
                              np.einsum("eqd,eqd->eq", gdiff, gdiff)))
    return math.sqrt(l2_sq), math.sqrt(l2_sq + semi_sq)


def _solve_study(setup, kappa, n_levels):
    """Solve on a nested family; return spacings, errors, K(2, 1) norms."""
    dom = setup["domain"]
    grading = None if kappa >= 1.0 else meshmod.default_grading(dom, kappa)
    m = meshmod.build_mesh(dom, setup["h"], grading=grading)
    hs, l2, h1, k2 = [], [], [], []
    for level in range(n_levels):
        if level:
            m = meshmod.refine(m, 1, grading=grading)
        solved = wellposed.solve_dirichlet(wellposed.BvpProblem(
            dom, m, f=setup["f"], g=setup["g"], sign=setup["sign"]))
        e_l2, e_h1 = _errors(m, solved.solution, setup["exact"],
                             setup["exact_grad"])
        hs.append(setup["h"] * 0.5 ** level)
        l2.append(e_l2)
        h1.append(e_h1)
        k2.append(solved.norms["u_K2_a1"])
    return hs, l2, h1, k2


def _kappa_ladder(dom, kappa, n_levels, h=0.125):
    """Variational constants over a nested family plus base-mesh fields."""
    grading = None if kappa >= 1.0 else meshmod.default_grading(dom, kappa)
    meshes = [meshmod.build_mesh(dom, h, grading=grading)]
    for _ in range(n_levels - 1):
        meshes.append(meshmod.refine(meshes[-1], 1, grading=grading))
    kappas = [poincare.variational_kappa(dom, m).kappa for m in meshes]
    eta = weights.eta_field(dom)
    rng = np.random.default_rng(poincare.DEFAULT_SEED)
    worst = 0.0
    for u in poincare.random_zero_trace_fields(meshes[0], 100, rng):
        lhs = sobolev.k_norm(u, eta, NormSpec(1, 1.0)).value ** 2
        rhs = kappas[0] * poincare.gradient_energy(u)
        worst = max(worst, lhs / rhs - 1.0)
    return kappas, worst


def test_criterion_01_manufactured_convergence():
    t0 = time.perf_counter()
    setup = cli.load_problem(problem_path("manufactured_square.json"))
    hs, l2, h1, _ = _solve_study(setup, kappa=1.0, n_levels=4)
    elapsed = time.perf_counter() - t0
    l2_rate = report.fitted_rate(hs, l2)
    h1_rate = report.fitted_rate(hs, h1)
    _record(1, "manufactured-solution convergence", [
        (l2_rate >= 1.9, f"L2 rate {l2_rate:.3f} >= 1.9"),
        (h1_rate >= 0.95, f"H1 rate {h1_rate:.3f} >= 0.95"),
        (elapsed < 60.0, f"runtime {elapsed:.1f} s < 60 s"),
    ])


def test_criterion_02_corner_regularity():
    setup = cli.load_problem(problem_path("lshape_singular.json"))
    hs, _, h1_u, k2_u = _solve_study(setup, kappa=1.0, n_levels=4)
    _, _, h1_g, _ = _solve_study(setup, kappa=0.5, n_levels=4)
    rate_u = report.fitted_rate(hs, h1_u)
    rate_g = report.fitted_rate(hs, h1_g)
    gain = rate_g - rate_u
    drift = abs(k2_u[-1] - k2_u[0]) / k2_u[0]
    _record(2, "corner-singularity regularity", [
        (0.6 <= rate_u <= 0.75, f"uniform H1 rate {rate_u:.3f} in [0.6, 0.75]"),
        (gain >= 0.15, f"grading gain {gain:.3f} >= 0.15"),
        (drift < 0.25, f"K(2, 1) drift {drift:.1%} < 25%"),
    ])


def test_criterion_03_hardy_poincare(lshape, box):
    checks = []
    for name, dom, kappa, n_levels in (("box", box, 1.0, 3),
                                       ("L-shape", lshape, 0.5, 5)):
        kappas, worst = _kappa_ladder(dom, kappa, n_levels)
        monotone = all(b >= a for a, b in zip(kappas, kappas[1:]))
        last_inc = (kappas[-1] - kappas[-2]) / kappas[-2]
        checks += [
            (worst <= 1e-8, f"{name} worst slack {worst:.1e} <= 1e-8"),
            (monotone, f"{name} kappa nondecreasing over {n_levels} levels"),
            (last_inc < 0.05, f"{name} last increment {last_inc:.2%} < 5%"),
        ]
    _record(3, "Hardy-Poincare inequality", checks)


def test_criterion_04_constructive_dominates(lshape, box):
    checks = []
    for name, dom in (("box", box), ("L-shape", lshape)):
        m = meshmod.build_mesh(dom, 0.125)
        cert = poincare.constructive_kappa(dom, m)
        documented = all(e["constant"] > 0.0 and e["provenance"] in PROVENANCES
                         for e in cert.region_terms)
        checks += [
            (cert.passed and cert.constructive >= cert.variational,
             f"{name} constructive {cert.constructive:.3f} >= "
             f"variational {cert.variational:.3f}"),
            (documented and len(cert.region_terms) > 0,
             f"{name} all {len(cert.region_terms)} regional constants "
             f"carry provenance"),
        ]
    _record(4, "constructive vs variational kappa", checks)


def test_criterion_05_sector_oracle(lshape, lshape_mesh):
    worst = 0.0
    for theta in (math.pi / 2, math.pi, 1.5 * math.pi):
        lam_fem = 1.0 / poincare.sector_constant_fem(theta, n=128)
        lam_exact = (math.pi / theta) ** 2
        worst = max(worst, abs(lam_fem - lam_exact) / lam_exact)
    cert = poincare.constructive_kappa(lshape, lshape_mesh)
    sectors = [e for e in cert.region_terms if e["kind"] == "vertex_sector"]
    recorded = len(sectors) > 0 and all(
        e["paper_factor"] == pytest.approx(math.pi / e["theta"])
        and e["paper_factor_discrepancy"] == pytest.approx(
            abs(e["constant"] - e["paper_factor"]))
        for e in sectors)
    _record(5, "1D sector eigenvalue oracle", [
        (worst <= 1e-3, f"worst eigenvalue error {worst:.2e} <= 1e-3"),
        (recorded, f"{len(sectors)} sector entries record the "
                   f"pi/theta factor discrepancy"),
    ])


def test_criterion_06_spherical_cap_oracle():
    hemi = poincare.cap_constant_from_link(sphere.hemisphere(), levels=4)
    octant = poincare.cap_constant_from_link(sphere.octant(), levels=4)
    rel = abs(hemi.eigenvalue - 2.0) / 2.0
    _record(6, "spherical cap eigenvalue oracle", [
        (rel <= 0.02, f"hemisphere lambda_1 {hemi.eigenvalue:.4f} "
                      f"within {rel:.2%} of 2"),
        (octant.eigenvalue > hemi.eigenvalue,
         f"octant {octant.eigenvalue:.3f} > hemisphere"),
    ])


def test_criterion_07_weight_equivalence(square, lshape, box, l_prism):
    checks = []
    for name, dom in (("square", square), ("L-shape", lshape)):
        rep = weights.certify_equivalence(dom, n=10_000)
        checks.append((0.5 <= rep.lower <= rep.upper <= 1.0,
                       f"{name} [{rep.lower:.3f}, {rep.upper:.3f}] "
                       f"in [0.5, 1]"))
    for name, dom in (("box", box), ("L-prism", l_prism)):
        rep = weights.certify_equivalence(dom, n=10_000)
        checks.append((0.1 <= rep.lower <= rep.upper <= 10.0
                       and rep.n_points == 10_000,
                       f"{name} [{rep.lower:.3f}, {rep.upper:.3f}] "
                       f"in [0.1, 10] at {rep.n_points} samples"))
    _record(7, "weight equivalence certification", checks)


def test_criterion_08_weight_window(lshape, square):
    edge = 2.0 / 3.0
    grading = meshmod.default_grading(lshape, 0.25)
    m = meshmod.build_mesh(lshape, 0.0625, grading=grading)
    m = meshmod.refine(m, 3, grading=grading)
    probe = wellposed.weight_window_probe(
        lshape, m, (0.0, 0.3, 0.5, 0.6, 0.66, 0.7, 0.8))
    bracket = probe.bracket
    bracketed = (bracket is not None
                 and abs(bracket["last_stable"] - edge) <= 0.1
                 and abs(bracket["first_unstable"] - edge) <= 0.1)
    sq_probe = wellposed.weight_window_probe(
        square, meshmod.build_mesh(square, 0.125),
        (-1.0, -0.5, 0.0, 0.5, 1.0))
    sq_stable = all(e["stable"] for e in sq_probe.entries)
    detail = "no bracket" if bracket is None else (
        f"onset bracketed in ({bracket['last_stable']}, "
        f"{bracket['first_unstable']}), both within 0.1 of 2/3")
    _record(8, "weight window breakdown", [
        (bracketed, detail),
        (sq_stable, "square stable for |a| <= 1"),
    ])


def test_criterion_09_mapping_constants(lshape, lshape_mesh):
    m1 = meshmod.refine(lshape_mesh, 1)
    bumps = wellposed.bump_basis(lshape, n=10)
    fields = [(femcore.interpolate(lshape_mesh, b),
               femcore.interpolate(m1, b)) for b in bumps]
    worst = 0.0
    for a in (0.0, 0.5, 1.0):
        for u0, u1 in fields:
            r0 = wellposed.mapping_ratio(lshape, u0, a=a)["ratio"]
            r1 = wellposed.mapping_ratio(lshape, u1, a=a)["ratio"]
            worst = max(worst, abs(r1 - r0) / r0)
    lip = wellposed.conjugation_lipschitz(lshape, lshape_mesh,
                                          (0.0, 0.5, 1.0))
    frozen = 16.33915227900553
    _record(9, "mapping constants under refinement", [
        (worst < 0.30, f"worst ratio drift {worst:.1%} < 30% "
                       f"for a in {{0, 1/2, 1}}"),
        (math.isfinite(lip["lipschitz"])
         and lip["lipschitz"] == pytest.approx(frozen, rel=1e-10),
         f"conjugation Lipschitz {lip['lipschitz']:.6f} finite and frozen"),
    ])


def test_criterion_10_trace_surrogate(lshape, lshape_mesh):
    eta = weights.eta_field(lshape)
    rng = np.random.default_rng(poincare.DEFAULT_SEED)
    worst = 0.0
    for _ in range(100):
        vals = rng.standard_normal(lshape_mesh.num_nodes)
        u = FemField(lshape_mesh, vals)
        surr = sobolev.trace_norm_surrogate(lshape, lshape_mesh, vals).value
        full = sobolev.k_norm(u, eta, NormSpec(1, 1.0)).value
        worst = max(worst, surr / full)
    g = rng.standard_normal(lshape_mesh.num_nodes)
    ext = sobolev.minimal_extension(lshape, lshape_mesh, g)
    mask = lshape_mesh.boundary_node_mask()
    reproduced = np.array_equal(ext.values[mask], g[mask])
    ext_norm = sobolev.k_norm(ext, eta, NormSpec(1, 1.0)).value
    sharp = sobolev.trace_norm_surrogate(lshape, lshape_mesh,
                                         ext.values).value
    _record(10, "trace norm surrogate", [
        (worst <= 1.0 + 1e-9,
         f"surrogate <= K(1, 1) norm for 100 fields (max ratio {worst:.3f})"),
        (reproduced and math.isfinite(ext_norm),
         f"minimal extension reproduces boundary data, "
         f"K(1, 1) norm {ext_norm:.3f}"),
        (sharp == pytest.approx(ext_norm, rel=1e-6),
         "surrogate is sharp on the extension itself"),
    ])


def test_criterion_11_determinism(tmp_path):
    def run(args, out):
        cmd = [sys.executable, "-m", "klab.cli", *map(str, args),
               "--out", out]
        res = subprocess.run(cmd, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr

    def run_all(out):
        out.mkdir()
        run(["domain", "validate", "--domain",
             problem_path("l_shape.json")], out)
        run(["mesh", "build", "--domain", problem_path("l_shape.json"),
             "--h", "0.25", "--kappa", "0.5"], out)
        run(["mesh", "refine", "--mesh", out / "mesh.txt",
             "--levels", "1"], out)
        run(["weights", "dump", "--domain", problem_path("square.json"),
             "--h", "0.25"], out)
        run(["weights", "certify", "--domain",
             problem_path("l_shape.json")], out)
        run(["norm", "--domain", problem_path("l_shape.json"),
             "--expr", "r^(2/3)*sin(2*theta/3)", "--polar-vertex", "0",
             "--mu", "1", "--a", "1", "--h", "0.25"], out)
        run(["poincare", "--domain", problem_path("square.json"),
             "--h", "0.25"], out)
        run(["solve", "--problem", problem_path("manufactured_square.json"),
             "--levels", "2"], out)
        run(["regularity-study", "--problem",
             problem_path("lshape_singular.json"), "--levels", "2"], out)
        run(["window-probe", "--domain", problem_path("square.json"),
             "--a-grid", "0,0.5,1", "--h", "0.25"], out)
        return sorted(p for p in out.iterdir() if p.is_file())

    first = run_all(tmp_path / "r1")
    second = run_all(tmp_path / "r2")
    names = [p.name for p in first]
    assert names == [p.name for p in second]
    diffs = [p.name for p, q in zip(first, second)
             if p.read_bytes() != q.read_bytes()]
    _record(11, "byte-identical reports", [
        (not diffs and len(names) >= 10,
         f"{len(names)} report files identical across same-seed reruns"
         + (f"; differ: {diffs}" if diffs else "")),
    ])
