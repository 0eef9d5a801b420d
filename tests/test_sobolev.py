"""Weighted norms: analytic oracles, identities, the divergence guard and
the trace surrogate."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klab import cli, femcore, geometry, kernels, mesh as meshmod, sobolev, weights
from klab.errors import InadmissibleIndexError, NonpositiveWeightError
from klab.sobolev import NormSpec


def _independent_knorm_sq(domain, mesh, values, mu, a):
    """Plain-loop reimplementation of the squared norm for cross-checks."""
    eta = weights.eta_field(domain)
    sing, regular = sobolev._element_classes(mesh, domain)
    vols, grads = kernels.simplex_geometry(mesh.nodes, mesh.elements)
    egrad = np.einsum("ei,eid->ed", values[mesh.elements], grads)
    total = 0.0
    for subset, degree in ((regular, 2), (sing, 5)):
        rule = femcore.simplex_rule(mesh.dimension, degree)
        for e in subset:
            verts = mesh.nodes[mesh.elements[e]]
            pts = rule.bary @ verts
            w = eta(pts)
            uq = rule.bary @ values[mesh.elements[e]]
            total += vols[e] * float(
                rule.weights @ (w ** (-2.0 * a) * uq ** 2))
            if mu >= 1:
                g2 = float(egrad[e] @ egrad[e])
                total += vols[e] * g2 * float(
                    rule.weights @ w ** (2.0 * (1.0 - a)))
    return total


def test_constant_field_unweighted(square, square_mesh):
    u = femcore.interpolate(square_mesh, lambda p: np.ones(len(p)))
    rep = sobolev.k_norm(u, weights.eta_field(square), NormSpec(0, 0.0))
    assert rep.value == pytest.approx(1.0, rel=1e-12)
    assert rep.terms["u"] == pytest.approx(1.0, rel=1e-12)


def test_eta_interpolant_index_one(square, square_mesh):
    # u = interpolant of eta measured at (0, 1): the continuum value of
    # the integral of eta^{-2} u^2 is exactly the volume
    eta = weights.eta_field(square)
    mesh = meshmod.refine(square_mesh, 1)
    u = femcore.interpolate(mesh, eta)
    rep = sobolev.k_norm(u, eta, NormSpec(0, 1.0))
    assert rep.value == pytest.approx(1.0, rel=0.02)


def test_linear_field_cross_check(square, square_mesh):
    u = femcore.interpolate(square_mesh, lambda p: p[:, 0])
    eta = weights.eta_field(square)
    rep = sobolev.k_norm(u, eta, NormSpec(1, 1.0))
    oracle = _independent_knorm_sq(square, square_mesh, u.values, 1, 1.0)
    assert rep.value ** 2 == pytest.approx(oracle, rel=1e-12)
    # the gradient term carries weight power 2 (1 - a) = 0, so it is
    # the plain Dirichlet energy of x, which is the volume
    assert rep.terms["x"] == pytest.approx(1.0, rel=1e-12)
    assert rep.terms["y"] == 0.0


def test_lshape_cross_check(lshape, lshape_mesh):
    u = femcore.interpolate(lshape_mesh,
                            lambda p: np.sin(p[:, 0]) * (p[:, 1] + 0.5))
    eta = weights.eta_field(lshape)
    for spec in (NormSpec(0, 0.75), NormSpec(1, 0.3), NormSpec(1, -0.5)):
        rep = sobolev.k_norm(u, eta, spec)
        oracle = _independent_knorm_sq(lshape, lshape_mesh, u.values,
                                       spec.mu, spec.a)
        assert rep.value ** 2 == pytest.approx(oracle, rel=1e-12)


def test_monotone_in_order(lshape, lshape_mesh):
    u = femcore.interpolate(lshape_mesh,
                            lambda p: p[:, 0] * p[:, 1] ** 2)
    eta = weights.eta_field(lshape)
    vals = [sobolev.k_norm(u, eta, NormSpec(mu, 0.5)).value
            for mu in (0, 1, 2)]
    assert vals[0] < vals[1] < vals[2]


def test_order_two_hessian_term(square, square_mesh):
    # quadratic with constant Hessian diag(2, 0): the second-order term
    # at a = 2 carries weight power zero, so it tends to 4 * volume; the
    # recovered-gradient surrogate underestimates in an O(h) boundary
    # band, and the deficit halves with h
    eta = weights.eta_field(square)
    vals = []
    for levels in (0, 1, 2):
        m = square_mesh if levels == 0 else meshmod.refine(square_mesh,
                                                           levels)
        u = femcore.interpolate(m, lambda p: p[:, 0] ** 2)
        rep = sobolev.k_norm(u, eta, NormSpec(2, 2.0))
        vals.append(rep.terms["xx"])
        assert abs(rep.terms["yy"]) < 1e-10
    deficits = [4.0 - v for v in vals]
    assert deficits[0] > deficits[1] > deficits[2] > 0.0
    assert deficits[1] / deficits[0] == pytest.approx(0.5, rel=0.05)
    assert vals[2] == pytest.approx(4.0, rel=0.05)


def test_weight_swap_two_sided(lshape, lshape_mesh):
    # in 2D the regularized weight satisfies eta / 2 <= w <= eta, so the
    # order-0 term at a = 1 moves by a factor in [1, 4]
    eta = weights.eta_field(lshape)
    rom = weights.romega_field(lshape)
    u = femcore.interpolate(lshape_mesh, lambda p: np.cos(p[:, 0]))
    t_eta = sobolev.k_norm(u, eta, NormSpec(1, 1.0)).terms
    t_rom = sobolev.k_norm(u, rom, NormSpec(1, 1.0)).terms
    assert t_eta["u"] <= t_rom["u"] <= 4.0 * t_eta["u"] + 1e-12
    # the gradient term carries weight power zero: identical
    assert t_rom["x"] + t_rom["y"] == pytest.approx(
        t_eta["x"] + t_eta["y"], rel=1e-12)


def test_invalid_norm_specs():
    with pytest.raises(InadmissibleIndexError):
        NormSpec(3, 0.0)
    with pytest.raises(InadmissibleIndexError):
        NormSpec(-1, 0.0)
    with pytest.raises(InadmissibleIndexError):
        NormSpec(1, math.nan)


def test_weight_vanishing_guard(square, square_mesh):
    u = femcore.interpolate(square_mesh, lambda p: p[:, 0])

    class Flat:
        domain = square

        def __call__(self, pts):
            return np.zeros(len(pts))

    with pytest.raises(NonpositiveWeightError):
        sobolev.k_norm(u, Flat(), NormSpec(0, 0.5))


def test_overflow_flag(lshape, lshape_mesh):
    # eta^-80 near the corners drives the order-0 term past the guard
    eta = weights.eta_field(lshape)
    u = femcore.interpolate(lshape_mesh, lambda p: np.ones(len(p)))
    with pytest.raises(InadmissibleIndexError, match="norm term u"):
        sobolev.k_norm(u, eta, NormSpec(0, 40.0))
    with pytest.raises(InadmissibleIndexError, match="norm term u"):
        sobolev.k_data_norm(lshape, lshape_mesh, lambda p: np.ones(len(p)),
                            a=40.0)


def test_k_data_norm_variants(square, square_mesh):
    # callable and nodal agree exactly for a linear function
    fn = lambda p: 3.0 * p[:, 0] - p[:, 1]
    rep_c = sobolev.k_data_norm(square, square_mesh, fn, a=0.7)
    rep_n = sobolev.k_data_norm(square, square_mesh, fn(square_mesh.nodes),
                                a=0.7)
    assert rep_c.value == pytest.approx(rep_n.value, rel=1e-12)
    # unweighted callable matches the analytic L2 norm of x
    rep0 = sobolev.k_data_norm(square, square_mesh, lambda p: p[:, 0], a=0.0)
    assert rep0.value == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    # per-element constants: manual weighted sum
    vols, _ = kernels.simplex_geometry(square_mesh.nodes,
                                       square_mesh.elements)
    data = np.arange(square_mesh.num_elements, dtype=float)
    rep_e = sobolev.k_data_norm(square, square_mesh, data, a=0.0)
    assert rep_e.value ** 2 == pytest.approx(float(vols @ data ** 2),
                                             rel=1e-12)
    with pytest.raises(ValueError):
        sobolev.k_data_norm(square, square_mesh, np.ones(3), a=0.0)


def test_k11_form_matches_k_norm(lshape, lshape_mesh):
    eta = weights.eta_field(lshape)
    form = sobolev.k11_form(lshape, lshape_mesh)
    rng = np.random.default_rng(7)
    for _ in range(3):
        vals = rng.standard_normal(lshape_mesh.num_nodes)
        u = femcore.FemField(lshape_mesh, vals)
        quad = float(vals @ (form @ vals))
        rep = sobolev.k_norm(u, eta, NormSpec(1, 1.0))
        assert rep.value ** 2 == pytest.approx(quad, rel=1e-10)


def test_trace_and_minimal_extension(lshape, lshape_mesh):
    g = lambda p: p[:, 0] ** 2 - p[:, 1]
    ext = sobolev.minimal_extension(lshape, lshape_mesh, g)
    ids = np.where(lshape_mesh.boundary_node_mask())[0]
    assert np.allclose(ext.values[ids], g(lshape_mesh.nodes[ids]), atol=1e-14)
    # the extension minimizes the assembled K(1,1) energy: perturbing
    # any interior node increases it
    form = sobolev.k11_form(lshape, lshape_mesh)
    base = float(ext.values @ (form @ ext.values))
    rng = np.random.default_rng(4)
    mask = lshape_mesh.boundary_node_mask()
    for _ in range(4):
        pert = np.where(mask, 0.0,
                        rng.standard_normal(lshape_mesh.num_nodes))
        bumped = ext.values + 0.1 * pert
        assert float(bumped @ (form @ bumped)) > base


def test_trace_surrogate_bound(lshape, lshape_mesh):
    g = lambda p: np.sin(p[:, 0]) + p[:, 1]
    rep = sobolev.trace_norm_surrogate(lshape, lshape_mesh, g)
    form = sobolev.k11_form(lshape, lshape_mesh)
    rng = np.random.default_rng(12)
    mask = lshape_mesh.boundary_node_mask()
    g_nodes = g(lshape_mesh.nodes)
    for _ in range(6):
        vals = np.where(mask, g_nodes,
                        rng.standard_normal(lshape_mesh.num_nodes))
        energy = float(vals @ (form @ vals))
        assert rep.value ** 2 <= energy * (1.0 + 1e-12)


@functools.lru_cache(maxsize=None)
def _block_case(name):
    if name == "lshape":
        domain = geometry.build_polygon(geometry.L_SHAPE_VERTICES)
        return domain, meshmod.build_mesh(domain, 0.25)
    domain = geometry.build_polyhedron_3d(name)
    return domain, meshmod.build_mesh(domain, 0.5)


def _wavy(p):
    return np.sin(3.0 * p[:, 0]) * (1.0 + p[:, -1] ** 2) + 0.25


def _wavy_grad(p):
    g = np.zeros_like(p)
    g[:, 0] = 3.0 * np.cos(3.0 * p[:, 0]) * (1.0 + p[:, -1] ** 2)
    g[:, -1] += np.sin(3.0 * p[:, 0]) * 2.0 * p[:, -1]
    return g


def _whole_mesh_quadratures(domain, mesh, mu, a):
    """The bits of every blocked whole-mesh quadrature on one mesh."""
    eta = weights.eta_field(domain)
    u = femcore.FemField(mesh, _wavy(mesh.nodes) * eta(mesh.nodes))
    mass = sobolev.k11_mass(domain, mesh)
    norm = sobolev.k_norm(u, eta, NormSpec(mu=mu, a=a))
    data = sobolev.k_data_norm(domain, mesh, _wavy, a)
    errors = cli._solution_errors(mesh, u, _wavy, _wavy_grad)
    return (femcore.assemble_load(mesh, _wavy, degree=4).tobytes(),
            mass.indptr.tobytes(), mass.indices.tobytes(), mass.data.tobytes(),
            {k: v.hex() for k, v in norm.terms.items()},
            data.terms["u"].hex(),
            {k: v.hex() for k, v in errors.items()})


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(["lshape", "box", "l_prism"]),
       st.sampled_from([0, 1, 2]),
       st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([1, 2, 3, 7, 64]))
def test_whole_mesh_quadratures_do_not_depend_on_the_block(name, mu, a, block):
    """assemble_load, k11_mass, k_norm, k_data_norm and the CLI's error
    quadrature give the same bits for any element block size."""
    domain, mesh = _block_case(name)
    want = _whole_mesh_quadratures(domain, mesh, mu, a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK", block)
        got = _whole_mesh_quadratures(domain, mesh, mu, a)
    assert got == want


def test_element_classes_are_measured_once_per_mesh(lshape, monkeypatch):
    """k11_mass and k_norm on one mesh share one singular-node
    measurement; another domain object, or another mesh, measures
    again, and the classes are those a fresh measurement gives."""
    calls = []
    real = weights.EtaField.on_singular_set

    def counting(self, points):
        calls.append(len(points))
        return real(self, points)

    monkeypatch.setattr(weights.EtaField, "on_singular_set", counting)
    mesh = meshmod.build_mesh(lshape, 0.25)
    u = femcore.interpolate(mesh, lambda p: p[:, 0] * p[:, 1])
    sobolev.k11_mass(lshape, mesh)
    sobolev.k_norm(u, weights.eta_field(lshape), NormSpec(mu=2, a=1.0))
    assert calls == [mesh.num_nodes]
    other = geometry.build_polygon(geometry.L_SHAPE_VERTICES)
    got = sobolev._element_classes(mesh, other)
    assert len(calls) == 2
    fresh = meshmod.SimplicialMesh(2, mesh.nodes, mesh.elements,
                                   mesh.boundary_facets)
    for a, b in zip(got, sobolev._element_classes(fresh, lshape)):
        assert np.array_equal(a, b)
    assert len(calls) == 3
