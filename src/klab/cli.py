"""Command-line interface for the weighted Sobolev laboratory.

Subcommands
-----------
domain validate    check a domain file, report its singular structure
mesh build         domain file -> mesh file, optionally graded and refined
mesh refine        refine an existing mesh file
weights dump       CSV of eta and r_omega at the mesh nodes
weights certify    sampled equivalence constants for the two weights
norm               weighted Sobolev norm of a closed-form field
poincare           weighted Poincare certificate, variational + constructive
solve              Dirichlet solve, optionally across refinement levels
regularity-study   shift-theorem stability ratio across refinement levels
window-probe       conjugated-operator stability sweep over the index a

Every run writes canonical JSON (and, for convergence studies, CSV)
into the --out directory; identical configuration and seed reproduce
identical bytes.

Exit codes: 0 success, 2 invalid input (bad files, bad schema, bad
parameters), 3 numerical failure (non-convergence, indefiniteness).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import (expressions, femcore, geometry, kernels, mesh as meshmod,
               poincare, report, sobolev, weights, wellposed)
from .config import SCHEMA_VERSION
from .errors import NumericalError, SpecError, ValidationError
from .femcore import FemField
from .geometry import Polyhedron
from .sobolev import NormSpec

DEFAULT_SEED = poincare.DEFAULT_SEED
_NEEDS_H = "this subcommand needs --h (or a mesh file)"


# ---------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------


def _make_mesh(domain: Polyhedron, h: float, kappa: float | None,
               levels: int | None) -> meshmod.SimplicialMesh:
    if h is None:
        raise SpecError(_NEEDS_H)
    grading = None
    if kappa is not None and kappa < 1.0:
        grading = meshmod.default_grading(domain, kappa)
    m = meshmod.build_mesh(domain, h, grading=grading)
    if levels:
        m = meshmod.refine(m, levels)
    return m


def _mesh_for(args: argparse.Namespace,
              domain: Polyhedron) -> meshmod.SimplicialMesh:
    if args.mesh_path is None:
        return _make_mesh(domain, args.h, args.kappa, args.levels)
    given = [f"--{name}" for name in ("h", "kappa", "levels")
             if getattr(args, name) is not None]
    if given:
        raise SpecError(f"--mesh excludes {', '.join(given)}")
    m = meshmod.read_mesh(args.mesh_path)
    if m.dimension != domain.dimension:
        raise SpecError(f"--mesh is {m.dimension}D but the domain is "
                        f"{domain.dimension}D")
    return m


def _mesh_summary(m: meshmod.SimplicialMesh) -> dict:
    """Report block of a mesh. The minimum angle of a built, refined or
    graded mesh is the one its shape-regularity check stored; only a mesh
    read from a file has it computed here."""
    diameters = m.element_diameters()
    angle = m.provenance.get("min_angle")
    if angle is None:
        angle = meshmod.minimum_angle(m)
    return {
        "dimension": m.dimension,
        "nodes": m.num_nodes,
        "elements": m.num_elements,
        "h_max": float(diameters.max()),
        "h_min": float(diameters.min()),
        "min_angle": {"value": angle, "provenance": "quadrature"},
        "total_volume": m.total_volume(),
        "graded": m.grading is not None,
        "kappa": None if m.grading is None else m.grading.kappa,
    }


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------


def _field(spec: dict, key: str, kind, path: str, required: bool = False,
           default=None):
    if key not in spec:
        if required:
            raise SpecError(f"{path}.{key}: missing required field")
        return default
    value = spec[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        names = kind.__name__ if isinstance(kind, type) \
            else "/".join(k.__name__ for k in kind)
        raise SpecError(f"{path}.{key}: expected {names}, "
                        f"got {type(value).__name__}")
    return value


def load_problem(path) -> dict:
    """Read and validate a problem file; compile its expressions.

    Schema (JSON): schema_version, name, domain (inline domain object
    or a path relative to the problem file), mesh {h, kappa}, a, sign,
    polar_vertex, and the expression strings f, g, exact, exact_grad.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"problem: invalid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("problem: top level must be an object")
    version = _field(spec, "schema_version", int, "problem", required=True)
    if version != SCHEMA_VERSION:
        raise SpecError(f"problem.schema_version: unsupported version {version}")

    domain_spec = spec.get("domain")
    if isinstance(domain_spec, str):
        base = os.path.dirname(os.path.abspath(path))
        domain = geometry.load_domain(os.path.join(base, domain_spec))
    elif isinstance(domain_spec, dict):
        domain = geometry.domain_from_dict(domain_spec)
    else:
        raise SpecError("problem.domain: expected an object or a file path")

    mesh_spec = _field(spec, "mesh", dict, "problem", required=True)
    h = _field(mesh_spec, "h", float, "problem.mesh", required=True)
    kappa = _field(mesh_spec, "kappa", float, "problem.mesh", default=1.0)
    if not 0.0 < h < math.inf:
        raise SpecError("problem.mesh.h: must be positive and finite")
    if not 0.0 < kappa <= 1.0:
        raise SpecError("problem.mesh.kappa: must lie in (0, 1]")

    a = _field(spec, "a", float, "problem", default=0.0)
    sign = _field(spec, "sign", str, "problem",
                  default=wellposed.SIGN_CONVENTIONS[1])
    if sign not in wellposed.SIGN_CONVENTIONS:
        raise SpecError(f"problem.sign: must be one of "
                        f"{wellposed.SIGN_CONVENTIONS}")

    polar = None
    if "polar_vertex" in spec:
        idx = _field(spec, "polar_vertex", int, "problem")
        polar = expressions.polar_frame(domain, idx)

    def expr(key):
        text = _field(spec, key, str, "problem")
        if text is None:
            return None
        return expressions.parse_expression(text, domain.dimension, polar)

    exact_grad = None
    if spec.get("exact_grad") is not None:
        texts = _field(spec, "exact_grad", list, "problem")
        exact_grad = expressions.parse_vector(texts, domain.dimension, polar)

    return {
        "name": _field(spec, "name", str, "problem", default="problem"),
        "domain": domain,
        "h": h,
        "kappa": kappa,
        "a": a,
        "sign": sign,
        "f": expr("f"),
        "g": expr("g"),
        "exact": expr("exact"),
        "exact_grad": exact_grad,
        "source": {k: spec.get(k) for k in
                   ("name", "a", "sign", "f", "g", "exact", "polar_vertex")},
    }


def _solution_errors(m: meshmod.SimplicialMesh, u: FemField, exact,
                     exact_grad, degree: int = 5) -> dict:
    """L2 and (when the gradient is known) full H1 error by quadrature,
    one block of kernels.BLOCK elements at a time; the per-element
    integrals reduce once by neumaier_sum."""
    rule = femcore.simplex_rule(m.dimension, degree)
    l2 = np.empty(m.num_elements)
    semi = np.empty(m.num_elements)
    for block in femcore.element_blocks(m.num_elements):
        els = m.elements[block]
        vols, grads = kernels.simplex_geometry(m.nodes, els)
        pts = femcore.map_points(rule.bary, m.nodes, els)
        flat = pts.reshape(-1, m.dimension)
        nodal = u.values[els]
        uq = femcore.row_product(nodal, rule.bary.T)
        exq = np.asarray(exact(flat), dtype=float).reshape(uq.shape)
        diff_sq = (uq - exq) ** 2
        l2[block] = np.einsum("e,q,eq->e", vols, rule.weights, diff_sq)
        if exact_grad is not None:
            gq = np.asarray(exact_grad(flat), dtype=float).reshape(pts.shape)
            gu = np.einsum("ei,eid->ed", nodal, grads)[:, None, :]
            gdiff = gu - gq
            gsq = np.einsum("eqd,eqd->eq", gdiff, gdiff)
            semi[block] = np.einsum("e,q,eq->e", vols, rule.weights, gsq)
    l2_sq = float(kernels.neumaier_sum(l2))
    out = {"l2_error": math.sqrt(max(l2_sq, 0.0)), "h1_error": None}
    if exact_grad is not None:
        semi_sq = float(kernels.neumaier_sum(semi))
        out["h1_error"] = math.sqrt(max(semi_sq + l2_sq, 0.0))
    return out


def _solve_levels(args: argparse.Namespace, setup: dict) -> list:
    """One solve per study level, each mesh refined from the one before
    (refine reapplies its grading); an omitted --levels means one level.
    The problem's exact solution solves it at the file's index only, so
    an --a that changes the index drops the error fields."""
    h0 = setup["h"] if args.h is None else args.h
    kappa = setup["kappa"] if args.kappa is None else args.kappa
    a = setup["a"] if args.a is None else args.a
    exact = setup["exact"] if a == setup["a"] else None
    n_levels = 1 if args.levels is None else args.levels
    m = _make_mesh(setup["domain"], h0, kappa, None)
    entries = []
    for level in range(n_levels):
        if level:
            m = meshmod.refine(m)
        problem = wellposed.BvpProblem(
            setup["domain"], m, f=setup["f"], g=setup["g"], a=a,
            sign=setup["sign"], solver_tol=args.tol)
        solved = wellposed.solve_dirichlet(problem)
        entry = {"level": level, "h": h0 * 0.5 ** level,
                 "nodes": m.num_nodes, "elements": m.num_elements,
                 "report": solved.as_dict()}
        if exact is not None:
            entry.update(_solution_errors(m, solved.solution, exact,
                                          setup["exact_grad"]))
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------


def _cmd_domain_validate(args: argparse.Namespace) -> int:
    domain = geometry.load_domain(args.domain)
    payload = {
        "domain": geometry.domain_to_dict(domain),
        "dimension": domain.dimension,
        "num_vertices": len(domain.vertices),
        "num_faces": len(domain.boundary_faces),
        "min_singular_separation": domain.min_singular_separation(),
    }
    if domain.dimension == 3:
        payload["num_singular_edges"] = len(domain.edges)
    if domain.dimension == 2:
        angles = [geometry.interior_angle(domain, i)
                  for i in range(len(domain.vertices))]
        payload["interior_angles"] = angles
        payload["max_interior_angle"] = max(angles)
    else:
        angles = [geometry.dihedral_angle(domain, i)
                  for i in range(len(domain.edges))]
        payload["dihedral_angles"] = angles
        payload["max_dihedral_angle"] = max(angles)
        payload["vertex_clearance"] = domain.vertex_clearance()
        payload["min_edge_length"] = domain.min_edge_length()
    path = report.write_json(_out_path(args, "domain_validate.json"), payload)
    print(f"domain OK: {domain.generator}, dimension {domain.dimension}, "
          f"{len(domain.vertices)} vertices")
    print(f"report: {path}")
    return 0


def _cmd_mesh_build(args: argparse.Namespace) -> int:
    domain = geometry.load_domain(args.domain)
    m = _make_mesh(domain, args.h, args.kappa, args.levels)
    mesh_path = _out_path(args, "mesh.txt")
    meshmod.write_mesh(mesh_path, m)
    summary = _mesh_summary(m)
    payload = {"mesh_file": os.path.basename(mesh_path), "summary": summary}
    path = report.write_json(_out_path(args, "mesh_build.json"), payload)
    print(f"mesh: {m.num_nodes} nodes, {m.num_elements} elements, "
          f"h_max {summary['h_max']:.6g}")
    print(f"files: {mesh_path}, {path}")
    return 0


def _cmd_mesh_refine(args: argparse.Namespace) -> int:
    m = meshmod.read_mesh(args.mesh_path)
    m = meshmod.refine(m, args.levels)
    mesh_path = _out_path(args, "mesh_refined.txt")
    meshmod.write_mesh(mesh_path, m)
    payload = {"mesh_file": os.path.basename(mesh_path),
               "levels": args.levels, "summary": _mesh_summary(m)}
    path = report.write_json(_out_path(args, "mesh_refine.json"), payload)
    print(f"refined mesh: {m.num_nodes} nodes, {m.num_elements} elements")
    print(f"files: {mesh_path}, {path}")
    return 0


def _cmd_weights_dump(args: argparse.Namespace) -> int:
    domain = geometry.load_domain(args.domain)
    m = _mesh_for(args, domain)
    eta = weights.eta_field(domain)(m.nodes)
    rom = weights.romega_field(domain)(m.nodes, eta=eta)
    axes = "xyz"[:m.dimension]
    header = ["node_id", *axes, "eta", "r_omega"]
    rows = [[i, *m.nodes[i], eta[i], rom[i]] for i in range(m.num_nodes)]
    csv_path = report.write_csv(_out_path(args, "weights.csv"), header, rows)
    payload = {"csv_file": os.path.basename(csv_path),
               "summary": _mesh_summary(m),
               "eta_min": float(eta.min()), "eta_max": float(eta.max())}
    path = report.write_json(_out_path(args, "weights_dump.json"), payload)
    print(f"wrote {m.num_nodes} rows: {csv_path}")
    print(f"report: {path}")
    return 0


def _cmd_weights_certify(args: argparse.Namespace) -> int:
    domain = geometry.load_domain(args.domain)
    # r_omega needs no mesh: the mesh options are checked as on every
    # mesh subcommand, and a mesh file is read for that, but none is built.
    if args.mesh_path is not None:
        _mesh_for(args, domain)
    elif args.h is None and (args.kappa is not None
                             or args.levels is not None):
        raise SpecError(_NEEDS_H)
    rep = weights.certify_equivalence(domain, n=args.samples)
    payload = rep.as_dict()
    path = report.write_json(_out_path(args, "weights_certify.json"), payload)
    print(f"equivalence on {args.samples} samples: "
          f"{rep.lower:.6g} <= r_omega/eta <= {rep.upper:.6g}")
    print(f"report: {path}")
    return 0


def _cmd_norm(args: argparse.Namespace) -> int:
    domain = geometry.load_domain(args.domain)
    m = _mesh_for(args, domain)
    polar = None
    if args.polar_vertex is not None:
        polar = expressions.polar_frame(domain, args.polar_vertex)
    fn = expressions.parse_expression(args.expr, domain.dimension, polar)
    u = femcore.interpolate(m, fn)
    rep = sobolev.k_norm(u, weights.eta_field(domain),
                         NormSpec(args.mu, args.a))
    payload = {"expr": args.expr, "mu": args.mu, "a": args.a,
               "mesh": _mesh_summary(m), "norm": rep.as_dict(),
               "provenance": "quadrature"}
    path = report.write_json(_out_path(args, "norm.json"), payload)
    rows = [[k, v] for k, v in sorted(rep.terms.items())]
    rows.append(["value", rep.value])
    print(report.render_table(["term", "squared integral"], rows[:-1]))
    print(f"norm value: {rep.value!r} (mu={args.mu}, a={args.a!r})")
    print(f"report: {path}")
    return 0


def _cmd_poincare(args: argparse.Namespace) -> int:
    domain = geometry.load_domain(args.domain)
    m = _mesh_for(args, domain)
    decomp = poincare.build_decomposition(domain, samples=args.samples,
                                          seed=args.seed,
                                          cap_levels=args.cap_levels)
    cert = poincare.constructive_kappa(domain, m, decomposition=decomp,
                                       samples=args.samples, seed=args.seed)
    payload = cert.as_dict()
    payload["mesh"] = _mesh_summary(m)
    path = report.write_json(_out_path(args, "poincare.json"), payload)
    rows = []
    for term in cert.region_terms:
        rows.append([term["label"], term["kind"], term["constant"],
                     term["provenance"], term["term"]])
    rows.append(["residual", "offset region", cert.poincare_constant,
                 payload["poincare_constant"]["provenance"],
                 cert.residual_term])
    print(report.render_table(
        ["region", "kind", "constant", "provenance", "term"], rows))
    print(f"constructive kappa: {cert.constructive!r}")
    print(f"variational kappa:  {cert.variational!r}")
    print(f"certificate {'PASSED' if cert.passed else 'FAILED'} "
          f"(slack {cert.slack!r})")
    print(f"report: {path}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    setup = load_problem(args.problem)
    levels = _solve_levels(args, setup)
    hs = [e["h"] for e in levels]
    payload = {"problem": setup["source"], "levels": levels}
    header = ["level", "h", "nodes", "residual", "stability_ratio"]
    rows = [[e["level"], e["h"], e["nodes"], e["report"]["residual"],
             e["report"]["stability_ratio"]] for e in levels]
    for norm in ("l2", "h1"):
        errors = [e.get(f"{norm}_error") for e in levels]
        if None in errors:
            continue
        rates = payload[f"{norm}_rates"] = report.observed_rates(hs, errors)
        payload[f"{norm}_rate_fit"] = report.fitted_rate(hs, errors)
        header += [f"{norm}_error", f"{norm}_rate"]
        for row, error, rate in zip(rows, errors, rates):
            row += [error, rate]
    csv_path = report.write_csv(_out_path(args, "solve_convergence.csv"),
                                header, rows)
    payload["csv_file"] = os.path.basename(csv_path)
    path = report.write_json(_out_path(args, "solve.json"), payload)
    print(report.render_table(header, rows))
    for norm in ("l2", "h1"):
        if payload.get(f"{norm}_rate_fit") is not None:
            print(f"fitted {norm.upper()} rate: "
                  f"{payload[f'{norm}_rate_fit']:.3f}")
    print(f"files: {csv_path}, {path}")
    return 0


def _cmd_regularity_study(args: argparse.Namespace) -> int:
    setup = load_problem(args.problem)
    levels = _solve_levels(args, setup)
    k2 = [e["report"]["norms"]["u_K2_a1"] for e in levels]
    drift = [None]
    for i in range(1, len(k2)):
        drift.append((k2[i] - k2[i - 1]) / k2[i - 1] if k2[i - 1] else None)
    header = ["level", "h", "nodes", "k2_norm", "k2_drift",
              "stability_ratio"]
    rows = [[e["level"], e["h"], e["nodes"], k2[i], drift[i],
             e["report"]["stability_ratio"]] for i, e in enumerate(levels)]
    payload = {"problem": setup["source"], "levels": levels,
               "k2_norms": k2, "k2_drift": drift}
    csv_path = report.write_csv(_out_path(args, "regularity_study.csv"),
                                header, rows)
    payload["csv_file"] = os.path.basename(csv_path)
    path = report.write_json(_out_path(args, "regularity_study.json"), payload)
    print(report.render_table(header, rows))
    print(f"files: {csv_path}, {path}")
    return 0


def _cmd_window_probe(args: argparse.Namespace) -> int:
    domain = geometry.load_domain(args.domain)
    m = _mesh_for(args, domain)
    f = None
    if args.f_expr is not None:
        f = expressions.parse_expression(args.f_expr, domain.dimension)
    probe = wellposed.weight_window_probe(domain, m, args.a_grid,
                                          threshold=args.threshold, f=f)
    payload = probe.as_dict()
    payload["mesh"] = _mesh_summary(m)
    path = report.write_json(_out_path(args, "window_probe.json"), payload)
    # A certified entry carries its Lax-Milgram bound, every other one
    # the norm of its sparse LU solve (None when that failed).
    header = ["a", "indicator", "stable", "response", "provenance"]
    rows = []
    for e in probe.entries:
        if "response_bound" in e:
            response, provenance = e["response_bound"], e["provenance"]
        else:
            response = e["response_norm"]
            provenance = "direct_lu" if e["solve_ok"] else "failed"
        rows.append([e["a"], e["indicator"], e["stable"], response,
                     provenance])
    print(report.render_table(header, rows))
    print(f"stable window: [{probe.window['lower']!r}, "
          f"{probe.window['upper']!r}]")
    if probe.bracket is not None:
        print(f"onset bracket: ({probe.bracket['last_stable']!r}, "
              f"{probe.bracket['first_unstable']!r})")
    if probe.predicted_edge is not None:
        print(f"analytic prediction: {probe.predicted_edge!r}")
    print(f"report: {path}")
    return 0


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------


def _checked(text: str, kind, requirement: str, test):
    """text read as kind, for argparse's ``type=``: a value that does not
    parse or fails test exits 2 with a usage message. Each test is
    written so that NaN fails it."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not test(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
    return value


def _positive(text: str) -> float:
    return _checked(text, float, "a positive finite number",
                    lambda v: 0.0 < v < math.inf)


def _kappa(text: str) -> float:
    return _checked(text, float, "in (0, 1]", lambda v: 0.0 < v <= 1.0)


def _at_least(low: int):
    return lambda text: _checked(text, int, f"an integer >= {low}",
                                 lambda v: v >= low)


def _a_grid(text: str) -> list:
    """Comma-separated indices; the window probe checks their range."""
    return _checked(text, lambda t: [float(v) for v in t.split(",")
                                     if v.strip()],
                    "a nonempty comma-separated list of numbers", bool)


def _add_out(p):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized property runs")


def _add_mesh_args(p, with_mesh_file: bool = True, min_levels: int = 0):
    p.add_argument("--h", type=_positive, default=None,
                   help="target spacing")
    p.add_argument("--kappa", type=_kappa, default=None,
                   help="grading exponent in (0, 1]; 1 or omitted = uniform")
    p.add_argument("--levels", type=_at_least(min_levels), default=None,
                   help="refinements of the base mesh; for solve and "
                        "regularity-study, the number of nested mesh "
                        "levels in the study (base mesh plus levels-1 "
                        "refinements)")
    if with_mesh_file:
        p.add_argument("--mesh", dest="mesh_path", default=None,
                       help="a mesh file in place of --h, --kappa and --levels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klab",
        description="Weighted Sobolev laboratory for polyhedral domains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("domain", help="domain-file operations")
    dsub = p.add_subparsers(dest="action", required=True)
    d = dsub.add_parser("validate", help="check a domain file")
    d.add_argument("--domain", required=True)
    _add_out(d)
    d.set_defaults(func=_cmd_domain_validate)

    p = sub.add_parser("mesh", help="mesh generation")
    msub = p.add_subparsers(dest="action", required=True)
    b = msub.add_parser("build", help="mesh a domain")
    b.add_argument("--domain", required=True)
    _add_mesh_args(b, with_mesh_file=False)
    _add_out(b)
    b.set_defaults(func=_cmd_mesh_build)
    r = msub.add_parser("refine", help="refine a mesh file")
    r.add_argument("--mesh", dest="mesh_path", required=True)
    r.add_argument("--levels", type=_at_least(1), default=1,
                   help="refinements to apply (at least 1)")
    _add_out(r)
    r.set_defaults(func=_cmd_mesh_refine)

    p = sub.add_parser("weights", help="singular weight functions")
    wsub = p.add_subparsers(dest="action", required=True)
    d = wsub.add_parser("dump", help="CSV of eta and r_omega at mesh nodes")
    d.add_argument("--domain", required=True)
    _add_mesh_args(d)
    _add_out(d)
    d.set_defaults(func=_cmd_weights_dump)
    c = wsub.add_parser(
        "certify", help="sampled equivalence constants",
        description="Sampled bounds of r_omega / eta at interior Halton "
                    "points. r_omega needs no mesh: --h, --kappa, --levels "
                    "and --mesh are accepted and checked as on the other "
                    "mesh subcommands, and unused.")
    c.add_argument("--domain", required=True)
    c.add_argument("--samples", type=_at_least(1), default=2048)
    _add_mesh_args(c)
    _add_out(c)
    c.set_defaults(func=_cmd_weights_certify)

    n = sub.add_parser("norm", help="weighted norm of a closed-form field")
    n.add_argument("--domain", required=True)
    n.add_argument("--expr", required=True, help="field expression")
    n.add_argument("--mu", type=int, default=0, help="derivative order")
    n.add_argument("--a", type=float, default=0.0, help="weight index")
    n.add_argument("--polar-vertex", dest="polar_vertex", type=int,
                   default=None, help="corner index for r, theta")
    _add_mesh_args(n)
    _add_out(n)
    n.set_defaults(func=_cmd_norm)

    q = sub.add_parser("poincare", help="weighted Poincare certificate")
    q.add_argument("--domain", required=True)
    q.add_argument("--samples", type=_at_least(1), default=1000)
    q.add_argument("--cap-levels", dest="cap_levels", type=_at_least(1),
                   default=4)
    _add_mesh_args(q)
    _add_out(q)
    q.set_defaults(func=_cmd_poincare)

    for name, handler, help_text in (
            ("solve", _cmd_solve, "Dirichlet solve / convergence study"),
            ("regularity-study", _cmd_regularity_study,
             "stability ratio across refinement levels")):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--problem", required=True, help="problem file (JSON)")
        s.add_argument("--a", type=float, default=None,
                       help="override the conjugation index")
        s.add_argument("--tol", type=_positive, default=1e-10,
                       help="iterative solver relative tolerance")
        _add_mesh_args(s, with_mesh_file=False, min_levels=1)
        _add_out(s)
        s.set_defaults(func=handler)

    w = sub.add_parser("window-probe",
                       help="stability sweep over the conjugation index")
    w.add_argument("--domain", required=True)
    w.add_argument("--a-grid", dest="a_grid", type=_a_grid, required=True,
                   help="comma-separated indices, e.g. 0,0.3,0.5")
    w.add_argument("--threshold", type=_positive, default=0.1,
                   help="indicator cutoff relative to a = 0")
    w.add_argument("--f", dest="f_expr", default=None,
                   help="probe source expression (default: 1)")
    _add_mesh_args(w)
    _add_out(w)
    w.set_defaults(func=_cmd_window_probe)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
