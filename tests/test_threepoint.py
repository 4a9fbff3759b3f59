"""Three-point family: published optimizers, system residuals, W2 helper."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mbridge import (
    DiscreteMeasure,
    InfeasibleParameters,
    MbridgeError,
    NotConverged,
    NotInConvexOrder,
    ThreePointInstance,
    bass_minimize,
    bass_system_residual,
    entropy_minimize,
    entropy_system_residual,
    norm_pdf,
    norm_ppf,
    parametrize_coupling,
    w2_to_standard_gaussian,
)
from mbridge import threepoint
from mbridge.cli import main
from mbridge.threepoint import _bass_jacobian

# reference optimizers for p1=0.40, q1=0.46, p2=0.43, q2=0.27, reported
# to five decimals; the uv pins below were frozen from two independent
# solver routes agreeing to 1e-15
M_ENTROPY = np.array([
    [0.25123, 0.09755, 0.05123],
    [0.16085, 0.13831, 0.16085],
    [0.01793, 0.03414, 0.08793],
])
M_BASS = np.array([
    [0.25229, 0.09543, 0.05229],
    [0.15941, 0.14117, 0.15941],
    [0.01830, 0.03340, 0.08830],
])
UV_ENTROPY = (0.2512257681244703, 0.16084521303196514)
UV_BASS = (0.25228533942371645, 0.15941479177798282)
# a fixed point strictly inside the reference polygon, away from both optima
INTERIOR_POINT = (0.28, 0.13)


def reference_instance():
    return ThreePointInstance(p1=0.40, q1=0.46, p2=0.43, q2=0.27)


def test_parametrization_has_the_right_marginals_and_drift():
    inst = reference_instance()
    u, v = INTERIOR_POINT
    pi = parametrize_coupling(inst, u, v)
    assert np.min(pi) > 0.0
    assert np.max(np.abs(pi.sum(axis=1) - inst.mu.weights)) < 1e-14
    assert np.max(np.abs(pi.sum(axis=0) - inst.nu.weights)) < 1e-14
    bary = pi @ inst.nu.atoms[:, 0] / inst.mu.weights
    assert np.max(np.abs(bary - inst.mu.atoms[:, 0])) < 1e-13


def test_parametrization_rejects_points_off_the_polygon():
    inst = reference_instance()
    with pytest.raises(InfeasibleParameters) as exc:
        parametrize_coupling(inst, 0.0, 0.0)
    assert "pi[" in str(exc.value)


def test_entropy_minimizer_reproduces_the_reference_matrix():
    inst = reference_instance()
    sol = entropy_minimize(inst)
    assert np.max(np.abs(sol.matrix - M_ENTROPY)) < 5e-5
    assert abs(sol.u - UV_ENTROPY[0]) < 1e-9
    assert abs(sol.v - UV_ENTROPY[1]) < 1e-9
    assert max(abs(r) for r in sol.system_residual) < 1e-12
    assert sol.boundary_entries == ()
    # interior stationarity, checked derivative-free on the raw entropy
    def entropy_at(u, v):
        pi = parametrize_coupling(inst, u, v)
        ref = np.outer(inst.mu.weights, inst.nu.weights)
        return float(np.sum(pi * np.log(pi / ref)))
    eps = 1e-6
    for du, dv in ((eps, 0.0), (0.0, eps)):
        left = entropy_at(sol.u - du, sol.v - dv)
        right = entropy_at(sol.u + du, sol.v + dv)
        assert abs(right - left) / (2 * eps) < 1e-6


def test_bass_minimizer_reproduces_the_reference_matrix():
    inst = reference_instance()
    sol = bass_minimize(inst)
    assert np.max(np.abs(sol.matrix - M_BASS)) < 5e-5
    assert abs(sol.u - UV_BASS[0]) < 1e-9
    assert abs(sol.v - UV_BASS[1]) < 1e-9
    assert max(abs(r) for r in bass_system_residual(inst, sol.u, sol.v)) < 1e-10


def test_optimizer_gap_matches_the_reference():
    inst = reference_instance()
    e = entropy_minimize(inst)
    b = bass_minimize(inst)
    gap = (e.u - b.u, e.v - b.v)
    assert abs(gap[0] - (-1.06e-3)) < 0.05 * 1.06e-3
    assert abs(gap[1] - 1.43e-3) < 0.05 * 1.43e-3


def test_residual_functions_vanish_only_at_their_optimizers():
    inst = reference_instance()
    u0, v0 = INTERIOR_POINT
    assert max(abs(r) for r in entropy_system_residual(inst, *UV_ENTROPY)) < 1e-12
    assert max(abs(r) for r in bass_system_residual(inst, *UV_BASS)) < 1e-10
    assert max(abs(r) for r in entropy_system_residual(inst, u0, v0)) > 1e-6
    assert max(abs(r) for r in bass_system_residual(inst, u0, v0)) > 1e-3


def test_bass_start_is_strictly_interior():
    # the Bass Newton starts at the entropy optimizer, whose Gibbs density
    # is positive
    inst = reference_instance()
    u, v = inst.entropy_uv
    for normal, bound, _ in inst.constraints():
        assert normal[0] * u + normal[1] * v < bound - 1e-4


def test_w2_symmetric_two_point_closed_form():
    m = DiscreteMeasure([[-1.0], [1.0]], [0.5, 0.5])
    # quantile map is sign(z): W2^2 = E[(sign Z - Z)^2] = 2 - 2 E|Z|
    expected = 2.0 - 2.0 * math.sqrt(2.0 / math.pi)
    assert abs(w2_to_standard_gaussian(m) - expected) < 1e-14


def test_w2_matches_direct_quantile_quadrature(rng):
    atoms = np.sort(rng.normal(size=3))
    weights = rng.dirichlet([2.0, 2.0, 2.0])
    m = DiscreteMeasure(atoms[:, None], weights)
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    total = 0.0
    for j in range(3):
        val, _ = quad(lambda q, y=atoms[j]: (y - norm_ppf(q)) ** 2,
                      cum[j], min(cum[j + 1], 1.0), limit=200)
        total += val
    assert abs(w2_to_standard_gaussian(m) - total) < 1e-9


def test_empty_polygon_raises_not_in_convex_order():
    with pytest.raises(NotInConvexOrder):
        ThreePointInstance(p1=0.10, q1=0.10, p2=0.01, q2=0.50)


# an interior instance on which the 2-D Newton used to stall at |grad| ~ 1e-13,
# where Armijo cannot resolve a predicted decrease of about 1e-28
STALL_REPRODUCER = (0.488, 0.128, 0.359, 0.334)
# stalled the same way, but its marginals have unequal means (0.037 vs 0.036),
# so the family's coupling misses the nu weights by 5e-4
UNEQUAL_MEANS = (0.318, 0.327, 0.385, 0.212)


def test_newton_reaches_tolerance_at_the_floating_point_floor():
    inst = ThreePointInstance(*STALL_REPRODUCER)
    e = entropy_minimize(inst)
    b = bass_minimize(inst)
    assert max(abs(r) for r in e.system_residual) < 1e-12
    assert max(abs(r) for r in b.system_residual) < 1e-10


def test_optimizers_refuse_a_coupling_that_misses_nu():
    inst = ThreePointInstance(*UNEQUAL_MEANS)
    with pytest.raises(NotConverged, match="means of mu and nu differ"):
        entropy_minimize(inst)
    with pytest.raises(NotConverged, match="means of mu and nu differ"):
        bass_minimize(inst)


def test_bass_jacobian_matches_central_differences():
    inst = reference_instance()
    u, v = INTERIOR_POINT
    eps = 1e-6
    fd = np.empty((2, 2))
    for k, (du, dv) in enumerate(((eps, 0.0), (0.0, eps))):
        plus = np.asarray(bass_system_residual(inst, u + du, v + dv))
        minus = np.asarray(bass_system_residual(inst, u - du, v - dv))
        fd[:, k] = (plus - minus) / (2.0 * eps)
    jac = _bass_jacobian(inst, u, v)
    assert np.max(np.abs(jac - fd)) < 1e-6 * np.max(np.abs(jac))


# a Newton on the quantile system, with a strict-decrease line search on
# the residual norm, stalls here; the damped Newton on the objective does not
SYSTEM_STALL = (0.4127632431900625, 0.5346523986422379,
                0.24528355802369622, 0.689522326463789)


def test_threepoint_command_solves_where_the_system_route_stalled(tmp_path):
    p1, q1, p2, q2 = SYSTEM_STALL
    assert main(["threepoint", "--p1", repr(p1), "--q1", repr(q1),
                 "--p2", repr(p2), "--q2", repr(q2),
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "threepoint_report.json").read_text())
    assert max(abs(r) for r in report["bass"]["system_residual"]) < 1e-10
    inst = ThreePointInstance(*SYSTEM_STALL)
    bass = report["bass"]
    assert max(abs(r) for r in bass_system_residual(inst, bass["u"],
                                                    bass["v"])) < 1e-10


def test_threepoint_command_builds_the_polygon_and_marginals_once(
        tmp_path, monkeypatch):
    calls = {"linprog": 0, "sinkhorn_msb": 0, "measure": 0}
    sinkhorn_msb = threepoint.sinkhorn_msb

    def refuse_linprog(*args, **kwargs):
        calls["linprog"] += 1
        raise AssertionError("threepoint called linprog")

    def counting_sinkhorn_msb(*args, **kwargs):
        calls["sinkhorn_msb"] += 1
        return sinkhorn_msb(*args, **kwargs)

    class CountingMeasure(DiscreteMeasure):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            calls["measure"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("mbridge.measures.linprog", refuse_linprog)
    monkeypatch.setattr("mbridge.solver.linprog", refuse_linprog)
    monkeypatch.setattr(threepoint, "sinkhorn_msb", counting_sinkhorn_msb)
    monkeypatch.setattr(threepoint, "DiscreteMeasure", CountingMeasure)
    assert main(["threepoint", "--p1", "0.40", "--q1", "0.46",
                 "--p2", "0.43", "--q2", "0.27",
                 "--out", str(tmp_path)]) == 0
    # one entropy solve shared by both optimizers, no LP; mu and nu built
    # once, not on every objective evaluation
    assert calls == {"linprog": 0, "sinkhorn_msb": 1, "measure": 2}


def scan_instances(count=150):
    """Equal-mean interior instances: p1, q1 from Dirichlet(2, 2, 2), p2
    uniform on (0.01, 0.99), q2 from the equal-mean condition; draws whose
    instance is refused are redrawn."""
    rng = np.random.default_rng(1)
    instances = []
    while len(instances) < count:
        p1, q1, r1 = rng.dirichlet((2.0, 2.0, 2.0))
        p2 = rng.uniform(0.01, 0.99)
        q2 = 1.5 * p1 + q1 + 0.5 * r1 - 2.0 * p2
        weights = (float(p1), float(q1), float(p2), float(q2))
        try:
            ThreePointInstance(*weights)
        except MbridgeError:
            continue
        instances.append(weights)
    return instances


# scan instances on which a 2-D Newton on the entropy objective stalled at
# the floating-point floor; the Bass Newton stalled on 116, 123 and 132
NEWTON_STALLS = {
    43: (0.4618938977031345, 0.44553744087359154, 0.24810149475569637,
         0.6884596286285375),
    116: (0.11064577655068555, 0.5397132929265046, 0.057461434938492255,
          0.7655795531369533),
    123: (0.47624509403574744, 0.42046582463815235, 0.24944356872953316,
          0.6875908688957574),
    132: (0.2509247845962095, 0.2163628545556685, 0.12689789385949823,
          0.6053104241550473),
    139: (0.4386594255466871, 0.30226208755941314, 0.5443257748388044,
          0.0011389196487847641),
    140: (0.7557868251829597, 0.23513499768549437, 0.6664885966844739,
          0.040377130656759075),
}


@pytest.mark.parametrize("weights, code", [
    (STALL_REPRODUCER, 0), (UNEQUAL_MEANS, 2),
    *((weights, 0) for weights in NEWTON_STALLS.values())])
def test_threepoint_command_on_the_stall_reproducers(tmp_path, weights, code):
    p1, q1, p2, q2 = weights
    assert main(["threepoint", "--p1", repr(p1), "--q1", repr(q1),
                 "--p2", repr(p2), "--q2", repr(q2),
                 "--out", str(tmp_path)]) == code


def check_threepoint_command(out, weights):
    """Run ``threepoint`` on one instance and check both couplings."""
    p1, q1, p2, q2 = weights
    assert main(["threepoint", "--p1", repr(p1), "--q1", repr(q1),
                 "--p2", repr(p2), "--q2", repr(q2),
                 "--out", str(out)]) == 0
    report = json.loads((out / "threepoint_report.json").read_text())
    inst = ThreePointInstance(*weights)
    mu_w, nu_w = inst.mu.weights, inst.nu.weights
    x, y = inst.mu.atoms[:, 0], inst.nu.atoms[:, 0]
    entropy = {}
    for key in ("entropy", "bass"):
        m = np.asarray(report[key]["matrix"])
        assert np.max(np.abs(m.sum(axis=1) - mu_w)) <= 1e-12
        assert np.max(np.abs(m.sum(axis=0) - nu_w)) <= 1e-12
        assert np.max(np.abs(m @ y - mu_w * x)) <= 1e-12
        pos = m > 0.0
        prod = np.outer(mu_w, nu_w)
        entropy[key] = float(np.sum(m[pos] * np.log(m[pos] / prod[pos])))
    assert max(abs(r) for r in report["entropy"]["system_residual"]) < 1e-12
    assert entropy["entropy"] <= entropy["bass"] + 1e-12
    # one ulp of (u, v) moves the Bass residual by about eps |J| |(u, v)|
    u, v = report["bass"]["u"], report["bass"]["v"]
    floor = np.finfo(float).eps * np.max(np.abs(_bass_jacobian(inst, u, v))) \
        * max(abs(u), abs(v))
    assert max(abs(r) for r in report["bass"]["system_residual"]) \
        <= max(1e-12, floor)


def test_threepoint_command_solves_every_scan_instance(tmp_path):
    instances = scan_instances()
    for index, weights in NEWTON_STALLS.items():
        assert instances[index] == weights
    for weights in instances:
        check_threepoint_command(tmp_path, weights)
