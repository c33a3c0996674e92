"""Release acceptance gate.

Twelve numbered criteria, one test each, run in order.  Every test prints a
single ``ACCEPTANCE nn PASS|FAIL`` line through the capture plugin so a plain
``pytest tests/test_acceptance.py`` run shows the gate status at a glance.
Criteria with a wall-clock budget assert it explicitly.  Tolerances are
pinned here and must not be loosened; see the component test modules for the
derivations behind each expected value.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from g2flow import (
    FlowConfig,
    Form,
    G2Structure,
    IntegratorConfig,
    Metric,
    closed_directions,
    coflow_rhs,
    config_from_dict,
    family_coefficient_law,
    family_monomial_pattern,
    family_stretch_factors,
    green_identity_check,
    integrate,
    jacobi_check,
    linearize,
    load_algebra,
    metric_from_phi,
    metric_variation,
    phi_of_psi,
    projector_matrices2,
    projector_matrices3,
    run_experiment,
    standard_phi,
    standard_psi,
    star,
    torsion_trace,
    variation_form,
)
from g2flow.exterior import DIMS
from g2flow.experiments import _E1357
from g2flow.fixtures import ee2_diagonal_phi
from g2flow.nearly_parallel import NPParams, np_solve

from .conftest import coclosed_sample, random_positive_phi
from .oracles import STATIC_FAMILY_MEMBER, family_coefficient_oracle


@pytest.fixture()
def announce(capsys):
    """Print a line through the capture plugin so it reaches the terminal."""

    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


@contextmanager
def gate(announce, number, slug):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        announce(f"ACCEPTANCE {number:02d} FAIL {slug}")
        raise
    elapsed = time.perf_counter() - start
    announce(f"ACCEPTANCE {number:02d} PASS {slug} ({elapsed:.2f}s)")


def _rhs0(L, s):
    return coflow_rhs(L, s, 0.0)


def test_criterion_01_hodge_star_calibration(announce):
    # The reference 4-form is the Hodge dual of the reference 3-form for the
    # flat metric, with exactly seven +/-1 terms; equality is bitwise.
    with gate(announce, 1, "hodge-star calibration"):
        computed = star(Metric.identity(), standard_phi())
        expected = standard_psi()
        assert np.array_equal(computed.coeffs, expected.coeffs)
        nonzero = computed.coeffs[computed.coeffs != 0.0]
        assert nonzero.size == 7
        assert set(np.unique(nonzero)) <= {-1.0, 1.0}
        # Steady-state runtime budget; the calls above paid the one-time
        # construction of the cached star operator.
        best = min(
            _timed(lambda: star(Metric.identity(), standard_phi()))
            for _ in range(10)
        )
        assert best < 1e-3


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_metric_calibration(announce):
    with gate(announce, 2, "metric calibration"):
        metric = metric_from_phi(standard_phi())
        vol = metric.vol
        assert np.max(np.abs(metric.g - np.eye(7))) <= 1e-14
        assert abs(vol.coeffs[0] - 1.0) <= 1e-14
        assert vol.degree == 7


def test_criterion_03_static_suite(announce, ee1):
    # Every left-invariant coclosed structure on the first fixture algebra is
    # static for the plain coflow: the reference point, one hundred sampled
    # positivity-validated neighbours, and a long integration all sit still.
    with gate(announce, 3, "static suite on ee1"):
        t0 = time.perf_counter()
        assert np.linalg.norm(_rhs0(ee1, phi_of_psi(standard_psi())).coeffs) <= 1e-10

        rng = np.random.default_rng(31)
        for _ in range(100):
            _, s = coclosed_sample(ee1, rng, magnitude=0.25)
            assert np.linalg.norm(_rhs0(ee1, s).coeffs) <= 1e-8

        cfg = FlowConfig(
            integrator=IntegratorConfig(method="rk4", dt=1e-2, t_end=10.0)
        )
        traj = integrate(ee1, cfg, standard_psi(), reference=standard_psi())
        assert traj.termination["status"] == "completed"
        assert max(r["dist_ref"] for r in traj.records()) <= 1e-8
        assert time.perf_counter() - t0 < 10.0


def test_criterion_04_diagonal_family_formula(announce, ee2):
    # On the diagonal coclosed family the plain coflow right-hand side is a
    # multiple of the single top coordinate 4-form.  The closed-form rational
    # coefficient holds with the family's stretch factors as its variables
    # (equivalently: it is the orthonormal-coframe component); plugging the
    # family coefficients c straight into the same monomial pattern agrees
    # only at c = 1.  The coefficient's zero set matches the computed static
    # points, including a non-unit static member.
    with gate(announce, 4, "diagonal family coefficient law"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(41)
        disagreements = 0
        for _ in range(20):
            c = rng.uniform(0.5, 2.0, size=7)
            state = G2Structure.from_phi(ee2_diagonal_phi(c))
            rhs = coflow_rhs(ee2, state, 0.0).coeffs
            leading = rhs[_E1357]
            rest = np.delete(rhs, _E1357)
            assert np.max(np.abs(rest)) <= 1e-10 * max(1.0, abs(leading))

            lam = family_stretch_factors(c)
            law = family_coefficient_law(lam)
            assert leading == pytest.approx(law, rel=1e-8)
            assert law == pytest.approx(family_coefficient_oracle(c), rel=1e-10)
            # Characterized discrepancy: the monomial pattern in the stretch
            # factors reproduces the coefficient exactly (it is the
            # orthonormal-coframe component)...
            scale = lam[0] * lam[2] * lam[4] * lam[6]
            assert leading == pytest.approx(
                family_monomial_pattern(lam) * scale, rel=1e-8
            )
            # ...while the same pattern in the raw family coefficients does
            # not, away from the unit point.
            if abs(family_monomial_pattern(c) - law) > 1e-2 * abs(law):
                disagreements += 1
            # Zero-set match: the law vanishes exactly when the computed
            # right-hand side does.
            assert (np.linalg.norm(rhs) <= 1e-8) == (abs(law) <= 1e-8)
        assert disagreements >= 18

        # At the unit point both readings coincide and the member is moving.
        ones = np.ones(7)
        unit_rhs = coflow_rhs(
            ee2, G2Structure.from_phi(ee2_diagonal_phi(ones)), 0.0
        ).coeffs
        assert unit_rhs[_E1357] == pytest.approx(2.0, rel=1e-10)
        assert family_monomial_pattern(ones) == pytest.approx(2.0, rel=1e-12)

        # Non-unit static member: law and right-hand side vanish together.
        member = np.asarray(STATIC_FAMILY_MEMBER)
        member_rhs = coflow_rhs(
            ee2, G2Structure.from_phi(ee2_diagonal_phi(member)), 0.0
        ).coeffs
        assert np.linalg.norm(member_rhs) <= 1e-10
        assert abs(family_coefficient_law(family_stretch_factors(member))) <= 1e-12

        # Off the zero locus the member moves.
        off = np.array([1.3, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        off_rhs = coflow_rhs(
            ee2, G2Structure.from_phi(ee2_diagonal_phi(off)), 0.0
        ).coeffs
        assert np.linalg.norm(off_rhs) > 1e-2
        assert time.perf_counter() - t0 < 5.0


def test_criterion_05_scalar_model_exact_solution(announce):
    # For A = 0 the scalar model has the closed form (1 - (5/4) tau0^2 t)^2;
    # rk4 tracks it to 1e-6 relative over 80% of the collapse window, and the
    # volume decreases with exact log-log slope 7/4.
    with gate(announce, 5, "scalar-model exact solution"):
        t0 = time.perf_counter()
        for tau0 in (0.5, 1.0, 2.0):
            horizon = 0.8 * (4.0 / (5.0 * tau0**2))
            traj = np_solve(NPParams(tau0=tau0, A=0.0, c0=1.0), t_end=horizon, dt=1e-4)
            assert traj.status == "completed"
            exact = (1.0 - 1.25 * tau0**2 * traj.t) ** 2
            assert np.max(np.abs(traj.c - exact) / exact) <= 1e-6
            assert np.all(np.diff(traj.vol) < 0.0)
            slope = np.log(traj.vol[1:] / traj.vol[0]) / np.log(traj.c[1:] / traj.c[0])
            assert np.max(np.abs(slope - 1.75)) <= 1e-8
        assert time.perf_counter() - t0 < 1.0


def test_criterion_06_scalar_model_instability(announce):
    # At the stationary balance tau0 = 4A/5 the model steps away from the
    # fixed point: the drift keeps the sign of (initial value - 1) all run.
    with gate(announce, 6, "scalar-model instability"):
        t0 = time.perf_counter()
        for mu in (0.9, 1.1):
            traj = np_solve(NPParams(tau0=0.8, A=1.0, c0=mu), t_end=1.0, dt=1e-3)
            assert traj.status == "completed"
            assert np.all(np.sign(traj.rhs) == np.sign(mu - 1.0))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_07_torsion_scaling(announce, ee1, ee2):
    # Rescaling the 4-form by c rescales the torsion trace by c^(-1/4).
    with gate(announce, 7, "torsion trace scaling"):
        rng = np.random.default_rng(71)
        for L in (ee1, ee2):
            for _ in range(5):
                psi, s = coclosed_sample(L, rng, magnitude=0.2)
                trt = torsion_trace(L, s)
                for c in (0.5, 2.0, 5.0):
                    scaled = phi_of_psi(Form(4, c * psi.coeffs))
                    assert torsion_trace(L, scaled) == pytest.approx(
                        c**-0.25 * trt, rel=1e-8
                    )


def test_criterion_08_rhs_stays_closed(announce, ee1, ee2):
    # The coflow right-hand side is an exact invariant 4-form, so the flow
    # preserves closedness of the evolving 4-form to machine precision.
    with gate(announce, 8, "right-hand side exactness"):
        rng = np.random.default_rng(81)
        for L in (ee1, ee2):
            d4 = L.differential_matrix(4)
            for _ in range(5):
                _, s = coclosed_sample(L, rng, magnitude=0.2)
                for A in (0.0, 1.0):
                    rhs = coflow_rhs(L, s, A)
                    assert np.max(np.abs(d4 @ rhs.coeffs)) <= 1e-12


def test_criterion_09_green_identity(announce, ee1, ee2):
    # Exact forms are recovered as d(Green(codifferential)) on both fixture
    # algebras with the flat metric, in every degree the flows touch.
    with gate(announce, 9, "green identity"):
        for L in (ee1, ee2):
            for k in (2, 3, 4):
                report = green_identity_check(L, Metric.identity(), k)
                assert report.ok
                assert report.max_residual <= 1e-10


def test_criterion_10_projectors_and_metric_variation(announce, rng):
    # Type decomposition: projector ranks (7,14) on 2-forms and (1,7,27) on
    # 3-forms with clean projector algebra, plus the first variation of the
    # induced metric, checked against central finite differences with
    # quadratic step-size convergence.
    with gate(announce, 10, "projectors and metric variation"):
        for phi in (standard_phi(), random_positive_phi(rng)):
            structure = G2Structure.from_phi(phi)
            two = projector_matrices2(structure)
            three = projector_matrices3(structure)
            for projectors, ranks, total in (
                (two, (7, 14), DIMS[2]),
                (three, (1, 7, 27), DIMS[3]),
            ):
                acc = np.zeros((total, total))
                for p, rank in zip(projectors, ranks):
                    assert np.linalg.matrix_rank(p, tol=1e-8) == rank
                    assert np.max(np.abs(p @ p - p)) <= 1e-12
                    acc += p
                for i, p in enumerate(projectors):
                    for q in projectors[i + 1 :]:
                        assert np.max(np.abs(p @ q)) <= 1e-12
                assert np.max(np.abs(acc - np.eye(total))) <= 1e-11

        structure = G2Structure.from_phi(standard_phi())
        h = rng.normal(size=(7, 7))
        h = 0.5 * (h + h.T)
        law = metric_variation(structure, h)
        sigma = variation_form(structure, Form.zero(1), h)

        def metric_at(t):
            psi_t = Form(4, structure.psi.coeffs + t * sigma.coeffs)
            return phi_of_psi(psi_t, structure.phi).metric.g

        errors = []
        for step in (1e-3, 1e-4):
            fd = (metric_at(step) - metric_at(-step)) / (2.0 * step)
            errors.append(np.max(np.abs(fd - law)))
        assert errors[1] <= 1e-5
        assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.05)


def test_criterion_11_linearization_sanity(announce, ee1, ee2):
    # At the reference point the whole invariant coclosed cone is static, so
    # the linearization is the zero matrix and stays zero under epsilon
    # refinement, with entry changes inside a quadratic-in-epsilon budget.
    # The quadratic refinement law itself is exhibited at a static family
    # member whose linearization is genuinely nonzero.
    with gate(announce, 11, "linearization sanity"):
        base = standard_psi()
        dirs = closed_directions(ee1, 4)
        eps = 2e-3
        coarse = linearize(ee1, base, dirs, A=0.0, eps=eps)
        fine = linearize(ee1, base, dirs, A=0.0, eps=eps / 2.0)
        for report in (coarse, fine):
            assert np.max(np.abs(report.matrix)) <= 1e-6
            assert np.max(np.abs(report.eigenvalues)) <= 1e-6
            assert report.asymmetry_norm <= 1e-6
        assert np.max(np.abs(coarse.matrix - fine.matrix)) <= 1.0 * eps**2

        member = np.asarray(STATIC_FAMILY_MEMBER)
        curved = G2Structure.from_phi(ee2_diagonal_phi(member)).psi
        dirs2 = closed_directions(ee2, 4)
        mats = {
            e: linearize(ee2, curved, dirs2, A=0.0, eps=e).matrix
            for e in (2e-3, 1e-3, 5e-4)
        }
        assert np.max(np.abs(mats[1e-3])) > 1.0
        d_coarse = np.max(np.abs(mats[2e-3] - mats[1e-3]))
        d_fine = np.max(np.abs(mats[1e-3] - mats[5e-4]))
        assert d_coarse / d_fine == pytest.approx(4.0, rel=0.2)


def test_criterion_12_infrastructure(announce, ee1, ee2, tmp_path):
    # Structure-constant validation accepts the shipped algebras and rejects
    # the corrupted one, and a fixed config + seed reproduces output files
    # bitwise.  (The suite-runtime half of this criterion is enforced by the
    # session-finish hook in conftest.py.)
    with gate(announce, 12, "infrastructure"):
        assert jacobi_check(ee1).ok
        assert jacobi_check(ee2).ok
        bad = jacobi_check(load_algebra("ee1_corrupted"))
        assert not bad.ok
        assert bad.max_residual > 0.1

        raw = {
            "schema_version": 1,
            "experiment": "ee2_flow",
            "algebra_file": "ee2",
            "flow": {
                "A": 0.0,
                "integrator": {"method": "rk4", "dt": 1e-2, "t_end": 0.2},
                "monitors": {"record_every": 5},
            },
            "perturbation": {"seed": 20260823, "magnitude": 0.05},
            "output": {"format": "jsonl"},
        }
        blobs = []
        for tag in ("a", "b"):
            cfg, violations = config_from_dict(raw)
            assert violations == []
            outdir = tmp_path / tag
            run_experiment(cfg, output_dir=str(outdir))
            files = sorted(p for p in outdir.rglob("*") if p.is_file())
            assert files
            blobs.append([(p.name, p.read_bytes()) for p in files])
        assert blobs[0] == blobs[1]
