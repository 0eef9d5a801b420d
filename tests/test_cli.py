"""End-to-end command-line runs of the `klab` CLI and its console script."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from klab import mesh as meshmod

from conftest import problem_path

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

# What the console-script wrapper generated by an install runs.
SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name=sys.argv[1], value=sys.argv[2],
                  group="console_scripts").load()
sys.argv = sys.argv[1:2] + sys.argv[3:]
sys.exit(main())
"""


def run_cli(*args, cwd=None):
    cmd = [sys.executable, "-m", "klab.cli", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


def test_domain_validate(tmp_path):
    res = run_cli("domain", "validate", "--domain",
                  problem_path("square.json"), "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "domain_validate.json").read_text())
    assert payload["dimension"] == 2
    assert payload["num_vertices"] == 4
    assert payload["schema_version"] == 1
    assert "num_edges" not in payload


def test_domain_validate_3d(tmp_path):
    res = run_cli("domain", "validate", "--domain",
                  problem_path("l_prism.json"), "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "domain_validate.json").read_text())
    assert payload["num_singular_edges"] == 18
    assert payload["num_vertices"] == 12


def test_mesh_build_and_refine(tmp_path):
    res = run_cli("mesh", "build", "--domain", problem_path("square.json"),
                  "--h", "0.25", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    mesh_file = tmp_path / "mesh.txt"
    m = meshmod.read_mesh(mesh_file)
    assert m.num_elements == 32
    res2 = run_cli("mesh", "refine", "--mesh", mesh_file, "--levels", "1",
                   "--out", tmp_path)
    assert res2.returncode == 0, res2.stderr
    r = meshmod.read_mesh(tmp_path / "mesh_refined.txt")
    assert r.num_elements == 128
    info = json.loads((tmp_path / "mesh_refine.json").read_text())
    assert info["summary"]["elements"] == 128
    assert info["summary"]["min_angle"]["value"] > 0.0


@pytest.mark.parametrize("case", ["box", "graded_lshape_refined"])
def test_mesh_summary_reuses_stored_min_angle(case, tmp_path, monkeypatch):
    """A built, graded or refined mesh's summary reports the minimum angle
    its shape-regularity check stored, without computing it again; the
    same mesh read back from a file has it computed, to the same value."""
    from klab import cli, geometry

    if case == "box":
        m = meshmod.build_mesh(geometry.build_polyhedron_3d("box"), 0.5)
    else:
        dom = geometry.build_polygon(geometry.L_SHAPE_VERTICES)
        m = meshmod.refine(meshmod.build_mesh(
            dom, 0.25, grading=meshmod.default_grading(dom, 0.5)), 1)
    want = meshmod.minimum_angle(m)
    calls = []
    real = meshmod.minimum_angle
    monkeypatch.setattr(meshmod, "minimum_angle",
                        lambda mesh: calls.append(mesh) or real(mesh))
    summary = cli._mesh_summary(m)
    assert calls == []
    assert summary["min_angle"]["value"] == want
    diameters = m.element_diameters()
    assert (summary["h_max"], summary["h_min"]) == (diameters.max(),
                                                    diameters.min())
    meshmod.write_mesh(tmp_path / "mesh.txt", m)
    read = meshmod.read_mesh(tmp_path / "mesh.txt")
    assert cli._mesh_summary(read)["min_angle"]["value"] == want
    assert len(calls) == 1


def test_mesh_build_graded(tmp_path):
    res = run_cli("mesh", "build", "--domain", problem_path("l_shape.json"),
                  "--h", "0.25", "--kappa", "0.5", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    m = meshmod.read_mesh(tmp_path / "mesh.txt")
    assert m.grading is not None
    assert m.grading.kappa == 0.5


def test_weights_dump_and_certify(tmp_path):
    res = run_cli("weights", "dump", "--domain", problem_path("square.json"),
                  "--h", "0.5", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "weights.csv").read_text().strip().split("\n")
    assert lines[0] == "node_id,x,y,eta,r_omega"
    assert len(lines) == 1 + 9
    res2 = run_cli("weights", "certify", "--domain",
                   problem_path("square.json"), "--h", "0.5",
                   "--out", tmp_path)
    assert res2.returncode == 0, res2.stderr
    payload = json.loads((tmp_path / "weights_certify.json").read_text())
    assert 0.5 <= payload["lower"] <= payload["upper"] <= 1.0
    assert payload["n_points"] >= 1000


def test_weights_dump_3d_has_no_nan(tmp_path, l_prism):
    res = run_cli("weights", "dump", "--domain", problem_path("l_prism.json"),
                  "--h", "0.25", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr
    rows = np.loadtxt(tmp_path / "weights.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))
    coords, r_omega = rows[:, 1:4], rows[:, 5]
    at_vertex = (np.abs(coords[:, None, :] - l_prism.vertices[None])
                 .max(axis=2) == 0.0).any(axis=1)
    assert at_vertex.sum() == len(l_prism.vertices)
    assert np.all(r_omega[at_vertex] == 0.0)
    # zero on the singular edges, positive off them
    eta = rows[:, 4]
    assert np.all(r_omega[eta == 0.0] == 0.0)
    assert np.all(r_omega[eta > 0.0] > 0.0)


def test_norm_command_matches_library(tmp_path, square):
    res = run_cli("norm", "--domain", problem_path("square.json"),
                  "--expr", "x*y", "--mu", "1", "--a", "0.5",
                  "--h", "0.25", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "norm.json").read_text())
    from klab import femcore, sobolev, weights
    m = meshmod.build_mesh(square, 0.25)
    u = femcore.interpolate(m, lambda p: p[:, 0] * p[:, 1])
    rep = sobolev.k_norm(u, weights.eta_field(square),
                         sobolev.NormSpec(1, 0.5))
    assert payload["norm"]["value"] == pytest.approx(rep.value, rel=1e-12)
    assert "value" in res.stdout


def test_norm_command_polar(tmp_path):
    res = run_cli("norm", "--domain", problem_path("l_shape.json"),
                  "--expr", "r^(2/3)*sin(2*theta/3)", "--polar-vertex", "0",
                  "--mu", "1", "--a", "1", "--h", "0.25", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "norm.json").read_text())
    assert payload["norm"]["value"] > 0.0


def test_norm_divergent_index_exits_2(tmp_path):
    # w^(-2a) overflows at a = 1e308: the run is refused, not reported
    res = run_cli("norm", "--domain", problem_path("square.json"),
                  "--expr", "x", "--h", "0.5", "--mu", "1", "--a", "1e308",
                  "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert "error: norm term" in res.stderr
    assert "Traceback" not in res.stderr
    # refused before any quadrature: no overflow reaches numpy
    assert "RuntimeWarning" not in res.stderr
    assert not (tmp_path / "norm.json").exists()


def test_solve_convergence_study(tmp_path):
    res = run_cli("solve", "--problem", problem_path(
        "manufactured_square.json"), "--levels", "3", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert len(payload["levels"]) == 3
    assert payload["l2_rate_fit"] > 1.8
    assert payload["h1_rate_fit"] > 0.9
    csv_lines = (tmp_path / "solve_convergence.csv").read_text()
    assert csv_lines.startswith("level,h,")
    assert "l2_error" in csv_lines.split("\n")[0]


def test_solve_conjugated_levels_use_direct_lu(tmp_path):
    res = run_cli("solve", "--problem", problem_path("lshape_singular.json"),
                  "--levels", "2", "--a", "0.3", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert len(payload["levels"]) == 2
    for level in payload["levels"]:
        assert level["report"]["a"] == 0.3
        assert level["report"]["method"] == "direct_lu"
        assert level["report"]["iterations"] == 1
        assert level["report"]["residual"] <= 1e-12
        # the file's exact solution solves the a = 0 problem only
        assert "l2_error" not in level and "h1_error" not in level
    assert not [key for key in payload
                if key.endswith("_rates") or key.endswith("_rate_fit")]
    header = (tmp_path / "solve_convergence.csv").read_text().split("\n")[0]
    assert header == "level,h,nodes,residual,stability_ratio"
    assert "fitted" not in res.stdout


@pytest.mark.parametrize("with_grad", [True, False])
def test_solution_errors_evaluate_one_frame_per_block(monkeypatch, with_grad):
    """The exact solution and its gradient cost one polar frame per
    element block, and the errors equal, bit for bit, those of the same
    functions passed as plain callables."""
    from klab import cli, expressions, femcore, kernels

    setup = cli.load_problem(problem_path("lshape_singular.json"))
    m = meshmod.build_mesh(setup["domain"], 0.25)
    u = femcore.interpolate(m, setup["exact"])
    exact = setup["exact"]
    grad = setup["exact_grad"] if with_grad else None
    monkeypatch.setattr(kernels, "BLOCK", 64)
    want = cli._solution_errors(
        m, u, lambda p: exact(p),
        None if grad is None else lambda p: grad(p))
    calls = []
    evaluate = expressions.PolarFrame.evaluate

    def counted(self, points):
        calls.append(len(points))
        return evaluate(self, points)

    monkeypatch.setattr(expressions.PolarFrame, "evaluate", counted)
    got = cli._solution_errors(m, u, exact, grad)
    assert len(calls) == len(femcore.element_blocks(m.num_elements))
    assert {k: None if v is None else v.hex() for k, v in got.items()} == \
        {k: None if v is None else v.hex() for k, v in want.items()}
    assert (got["h1_error"] is None) is (grad is None)


def test_failed_factorization_exits_3(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg

    from klab import cli

    def failing(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", failing)
    code = cli.main(["solve", "--problem",
                     problem_path("lshape_singular.json"), "--a", "0.3",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "numerical failure" in err and "Factor is exactly singular" in err
    assert "Traceback" not in err


def test_solve_singular_problem(tmp_path):
    res = run_cli("solve", "--problem", problem_path("lshape_singular.json"),
                  "--levels", "2", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "solve.json").read_text())
    fitted = payload["h1_rate_fit"]
    assert 0.5 < fitted < 0.85


def test_poincare_command(tmp_path):
    res = run_cli("poincare", "--domain", problem_path("square.json"),
                  "--h", "0.25", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "poincare.json").read_text())
    assert payload["passed"] is True
    assert payload["constructive_kappa"] >= payload["variational_kappa"]
    assert "constructive" in res.stdout


def test_poincare_report_does_not_depend_on_seed(tmp_path):
    """--seed is accepted and reaches no report: the box certificate is
    byte-identical under two seeds."""
    from klab import cli

    blobs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert cli.main(["poincare", "--domain", problem_path("box.json"),
                         "--h", "0.25", "--cap-levels", "2", "--seed", seed,
                         "--out", str(out)]) == 0
        blobs.append((out / "poincare.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_window_probe_command(tmp_path):
    res = run_cli("window-probe", "--domain", problem_path("square.json"),
                  "--a-grid", "0,0.5,1", "--h", "0.25", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "window_probe.json").read_text())
    assert payload["window"]["upper"] == 1.0
    assert payload["predicted_edge"]["value"] == pytest.approx(2.0)
    assert payload["response_zero"]["converged"] is True
    header, _, *rows = res.stdout.splitlines()[:5]
    assert header.split() == ["a", "indicator", "stable", "response",
                              "provenance"]
    assert [row.split()[-1] for row in rows] == ["Lax-Milgram"] * 3


def test_window_probe_failed_zero_solve_exits_0(tmp_path, monkeypatch,
                                                capsys):
    """A stalled a = 0 solve leaves the entries it would have certified
    unstable and marked failed; the run still writes its report."""
    from klab import cli, femcore
    from klab.errors import ConvergenceError

    def stalled(*args, **kwargs):
        raise ConvergenceError("conjugate gradients stalled")

    monkeypatch.setattr(femcore, "cg_solve", stalled)
    code = cli.main(["window-probe", "--domain", problem_path("l_shape.json"),
                     "--a-grid", "0,1.9", "--h", "0.25",
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:4]]
    assert [(r[0], r[2], r[-1]) for r in rows] == [
        ("0.0", "False", "failed"), ("1.9", "False", "indicator")]
    payload = json.loads((tmp_path / "window_probe.json").read_text())
    assert payload["response_zero"]["converged"] is False
    assert payload["window"] == {"lower": -0.0, "upper": 0.0}


def test_regularity_study_command(tmp_path):
    res = run_cli("regularity-study", "--problem",
                  problem_path("lshape_singular.json"), "--levels", "2",
                  "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads((tmp_path / "regularity_study.json").read_text())
    assert len(payload["levels"]) == 2
    assert len(payload["k2_norms"]) == 2
    for entry in payload["levels"]:
        assert entry["report"]["stability_ratio"] > 0.0
    csv_head = (tmp_path / "regularity_study.csv").read_text().split("\n")[0]
    assert "k2_norm" in csv_head and "stability_ratio" in csv_head


def test_byte_identical_reruns(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        res = run_cli("solve", "--problem",
                      problem_path("manufactured_square.json"),
                      "--levels", "1", "--out", d)
        assert res.returncode == 0, res.stderr
    assert (d1 / "solve.json").read_bytes() == (d2 / "solve.json").read_bytes()
    assert (d1 / "solve_convergence.csv").read_bytes() == \
        (d2 / "solve_convergence.csv").read_bytes()


def test_missing_file_exit_code(tmp_path):
    res = run_cli("solve", "--problem", tmp_path / "nope.json",
                  "--out", tmp_path)
    assert res.returncode == 2
    assert "missing input file" in res.stderr


def test_invalid_problem_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "domain": {
        "dimension": 2,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "mesh": {"h": -0.5}}))
    res = run_cli("solve", "--problem", bad, "--out", tmp_path)
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


def test_invalid_expression_exit_code(tmp_path):
    res = run_cli("norm", "--domain", problem_path("square.json"),
                  "--expr", "__import__('os')", "--h", "0.5",
                  "--out", tmp_path)
    assert res.returncode == 2


def _input_path(arg, tmp_path):
    """The problems/ file of a name ending in .json; for {name: edits}, a
    copy of that problem file with the edits, written to tmp_path."""
    if isinstance(arg, dict):
        (name, edits), = arg.items()
        with open(problem_path(name)) as fh:
            spec = json.load(fh)
        spec.update(edits, domain=problem_path(spec["domain"]))
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return path
    return problem_path(arg) if arg.endswith(".json") else arg


@pytest.mark.parametrize("argv", [
    ["mesh", "build", "--domain", "square.json", "--h", "nan"],
    ["mesh", "build", "--domain", "square.json", "--h", "inf"],
    ["window-probe", "--domain", "square.json", "--h", "0.5",
     "--a-grid", "0,nan"],
    ["window-probe", "--domain", "square.json", "--h", "0.5",
     "--a-grid", "0,0.5", "--threshold", "nan"],
    ["solve", "--problem", "manufactured_square.json", "--h", "0.5",
     "--tol", "nan"],
    ["solve", "--problem", {"lshape_singular.json": {"g": "1/0"}},
     "--levels", "1"],
    ["solve", "--problem", {"manufactured_square.json": {"f": "sqrt(-1)"}},
     "--h", "0.5"],
    ["window-probe", "--domain", "l_shape.json", "--h", "0.25",
     "--a-grid", "0,0.5", "--f", "1/0"],
], ids=["h-nan", "h-inf", "a-grid-nan", "threshold-nan", "tol-nan",
        "problem-g-inf", "problem-f-nan", "probe-f-inf"])
def test_non_finite_input_exit_code(tmp_path, argv):
    argv = [_input_path(a, tmp_path) for a in argv]
    res = run_cli(*argv, "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert "error" in res.stderr and "Traceback" not in res.stderr


def test_problem_with_nan_index_exit_code(tmp_path):
    with open(problem_path("manufactured_square.json")) as fh:
        spec = json.load(fh)
    spec["domain"] = problem_path(spec["domain"])
    spec["a"] = float("nan")
    spec["mesh"]["h"] = 0.5
    bad = tmp_path / "nan_a.json"
    bad.write_text(json.dumps(spec))  # json writes the value as NaN
    res = run_cli("solve", "--problem", bad, "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert "conjugation exponent nan" in res.stderr
    assert "Traceback" not in res.stderr


ONE_TRIANGLE = ("KLABMESH 1\nDIM 2\nNODES 3\n1 0.0 0.0\n2 1.0 0.0\n"
                "3 0.0 1.0\nELEMENTS 1\n1 1 2 3\nBOUNDARY 3\n1 2\n2 3\n"
                "1 3\nEND\n")


@pytest.mark.parametrize("old, new", [
    ("NODES 3", "NODES x"),
    ("\n2 1.0 0.0", "\nx 1.0 0.0"),
    ("3 0.0 1.0", "3 zz 1.0"),
    ("3 0.0 1.0", "3 nan 1.0"),
    ("\nEND", "\nGRADING a b c\nEND"),
    ("BOUNDARY 3\n1 2\n2 3\n1 3", "BOUNDARY 0"),
    ("BOUNDARY 3\n1 2\n2 3\n1 3", "BOUNDARY 2\n1 2\n2 3"),
    ("BOUNDARY 3\n1 2\n2 3\n1 3", "BOUNDARY 4\n1 2\n2 3\n1 3\n3 1"),
    ("NODES 3\n1 0.0 0.0\n2 1.0 0.0\n3 0.0 1.0\nELEMENTS 1\n1 1 2 3\n"
     "BOUNDARY 3\n1 2\n2 3\n1 3", "NODES 0\nELEMENTS 0\nBOUNDARY 0"),
], ids=["count", "id", "coordinate", "nan-coordinate", "grading",
        "no-boundary", "missing-facet", "repeated-facet", "empty"])
def test_malformed_mesh_file_exit_code(tmp_path, old, new):
    """A mesh file with an unparsable or non-finite number, with no
    elements, or whose BOUNDARY is not the boundary of its elements,
    each listed once, is invalid input."""
    assert old in ONE_TRIANGLE
    bad = tmp_path / "bad.txt"
    bad.write_text(ONE_TRIANGLE.replace(old, new, 1))
    res = run_cli("mesh", "refine", "--mesh", bad, "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert "error" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("argv, mesh_domain", [
    (["poincare", "--domain", "l_shape.json"], "box.json"),
    (["window-probe", "--domain", "l_shape.json", "--a-grid", "0,0.5"],
     "box.json"),
    (["weights", "dump", "--domain", "l_shape.json"], "box.json"),
    (["weights", "certify", "--domain", "box.json"], "square.json"),
    (["norm", "--domain", "box.json", "--expr", "x"], "square.json"),
], ids=["poincare", "window-probe", "weights-dump", "weights-certify",
        "norm"])
def test_mesh_of_wrong_dimension_exit_code(tmp_path, argv, mesh_domain):
    """A --mesh file whose dimension is not the domain's is invalid input."""
    from klab import geometry

    domain = geometry.load_domain(problem_path(mesh_domain))
    meshmod.write_mesh(tmp_path / "mesh.txt",
                       meshmod.build_mesh(domain, 0.5))
    argv = [problem_path(a) if a.endswith(".json") else a for a in argv]
    res = run_cli(*argv, "--mesh", tmp_path / "mesh.txt", "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert "--mesh is" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("options", [
    ["--kappa", "0.3", "--levels", "2"], ["--kappa", "0.3"],
    ["--levels", "1"]], ids=["kappa-levels", "kappa", "levels"])
def test_weights_certify_mesh_options_need_h(tmp_path, capsys, options):
    """--kappa and --levels shape a mesh built from --h, so without --h
    (or a mesh file) they are invalid input, as on every mesh
    subcommand."""
    from klab import cli

    code = cli.main(["weights", "certify", "--domain",
                     problem_path("l_shape.json"), *options,
                     "--samples", "50", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "this subcommand needs --h (or a mesh file)" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["poincare", "--domain", "l_shape.json", "--levels", "1"],
    ["window-probe", "--domain", "l_shape.json", "--a-grid", "0,0.5",
     "--h", "0.5"],
    ["weights", "dump", "--domain", "l_shape.json", "--levels", "2",
     "--h", "0.01", "--kappa", "0.3"],
    ["weights", "certify", "--domain", "l_shape.json", "--kappa", "0.5"],
    ["norm", "--domain", "l_shape.json", "--expr", "x", "--h", "0.25"],
], ids=["poincare", "window-probe", "weights-dump", "weights-certify",
        "norm"])
def test_mesh_with_mesh_options_exit_code(tmp_path, argv):
    """--h, --kappa and --levels make a mesh, so beside a --mesh file,
    which they would leave unchanged, they are invalid input."""
    from klab import geometry

    domain = geometry.load_domain(problem_path("l_shape.json"))
    meshmod.write_mesh(tmp_path / "mesh.txt",
                       meshmod.build_mesh(domain, 0.5))
    given = [o for o in ("--h", "--kappa", "--levels") if o in argv]
    argv = [problem_path(a) if a.endswith(".json") else a for a in argv]
    res = run_cli(*argv, "--mesh", tmp_path / "mesh.txt", "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert f"--mesh excludes {', '.join(given)}" in res.stderr
    assert "Traceback" not in res.stderr


BAD_DOMAINS = {
    "box-lengths-string": '{"generator": "box", "parameters": {"lengths": "x"}}',
    "box-lengths-short": '{"generator": "box", "parameters": {"lengths": [1, 1]}}',
    "box-lengths-inf": ('{"generator": "box", '
                        '"parameters": {"lengths": [1, Infinity, 1]}}'),
    "box-lengths-huge-int": ('{"generator": "box", '
                             '"parameters": {"lengths": [1, 1, 1%s]}}'
                             % ("0" * 400)),
    "rectangle-lengths-short": ('{"generator": "rectangle", '
                                '"parameters": {"lengths": [1]}}'),
    "rectangle-lengths-nan": ('{"generator": "rectangle", '
                              '"parameters": {"lengths": [1, NaN]}}'),
    "vertices-string": '{"vertices": "abc"}',
    "vertices-nan": '{"vertices": [[0, 0], [1, 0], [NaN, 1]]}',
    "height-string": '{"generator": "l_prism", "parameters": {"height": "tall"}}',
    "parameters-list": '{"generator": "rectangle", "parameters": [1, 2]}',
    "box-lengths-typo": ('{"generator": "box", '
                         '"parameters": {"lenghts": [2, 1, 1]}}'),
    "fichera-parameter": ('{"generator": "fichera", '
                          '"parameters": {"lengths": [2, 2, 2]}}'),
}


@pytest.mark.parametrize("name", list(BAD_DOMAINS))
def test_malformed_domain_file_exit_code(tmp_path, name):
    """A domain file with ill-typed, misshapen or non-finite parameters is
    invalid input."""
    spec = json.loads(BAD_DOMAINS[name])
    spec.update(schema_version=1,
                dimension=3 if spec.get("generator") in ("box", "l_prism",
                                                         "fichera")
                else 2)
    bad = tmp_path / "domain.json"
    bad.write_text(json.dumps(spec))
    res = run_cli("domain", "validate", "--domain", bad, "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_malformed_inline_domain_exit_code(tmp_path):
    with open(problem_path("manufactured_square.json")) as fh:
        spec = json.load(fh)
    spec["domain"] = {"dimension": 2, "generator": "rectangle",
                      "parameters": {"lengths": [1, float("nan")]}}
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(spec))
    res = run_cli("solve", "--problem", bad, "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "manufactured_square.json", "--h", "1"],
    ["regularity-study", "--problem", "manufactured_square.json",
     "--h", "1"],
    ["window-probe", "--domain", "square.json", "--h", "1",
     "--a-grid", "0,0.5"],
], ids=["solve", "regularity-study", "window-probe"])
def test_too_coarse_mesh_exit_code(tmp_path, argv):
    """A mesh with no interior nodes is an unusable resolution: exit 2
    with a message, never a traceback."""
    argv = [problem_path(a) if a.endswith(".json") else a for a in argv]
    res = run_cli(*argv, "--out", tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert "mesh has no interior nodes" in res.stderr


@pytest.mark.parametrize("argv", [
    ["mesh", "build", "--domain", "square.json", "--h", "0"],
    ["mesh", "build", "--domain", "square.json", "--h", "0.5",
     "--kappa", "0"],
    ["mesh", "build", "--domain", "square.json", "--h", "0.5",
     "--kappa", "1.5"],
    ["mesh", "build", "--domain", "square.json", "--h", "0.5",
     "--levels", "-1"],
    ["solve", "--problem", "manufactured_square.json", "--levels", "0"],
    ["weights", "certify", "--domain", "square.json", "--samples", "0"],
    ["poincare", "--domain", "square.json", "--h", "0.5",
     "--cap-levels", "0"],
    ["solve", "--problem", "manufactured_square.json", "--tol", "-1"],
    ["window-probe", "--domain", "square.json", "--h", "0.5",
     "--a-grid", "0,0.5", "--threshold", "0"],
    ["mesh", "refine", "--mesh", "mesh.txt", "--levels", "0"],
], ids=["h-0", "kappa-0", "kappa-1.5", "levels-negative", "solve-levels-0",
        "samples-0", "cap-levels-0", "tol-negative", "threshold-0",
        "refine-levels-0"])
def test_invalid_option_value_exit_code(tmp_path, capsys, argv):
    """The parser rejects an out-of-range option value: exit 2 before any
    work, and no report is written."""
    from klab import cli

    argv = [problem_path(a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_argument_exit_code(tmp_path):
    res = run_cli("solve", "--problem",
                  problem_path("manufactured_square.json"),
                  "--frobnicate", "1")
    assert res.returncode == 2


def test_console_script_entry():
    """The `klab` entry of [project.scripts] resolves and serves the full CLI.

    The entry point is resolved from pyproject.toml and run the way the
    installed wrapper runs it, so no install is needed; an installed
    `klab` on PATH is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["klab"]
    entry = importlib.metadata.EntryPoint(name="klab", value=value,
                                          group="console_scripts")
    commands = [[sys.executable, "-c", SCRIPT_WRAPPER, entry.name,
                 entry.value, "--help"]]
    installed = shutil.which("klab")
    if installed:
        commands.append([installed, "--help"])
    for cmd in commands:
        res = subprocess.run(cmd, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert "window-probe" in res.stdout
