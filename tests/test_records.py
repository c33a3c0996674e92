"""Records on arrays: what a trajectory retains, and the bytes its writers
stream, against the ``csv.writer``/``json.dumps`` writers of record dicts."""

import gc
import tracemalloc

import numpy as np
import pytest

from g2flow import (
    FlowConfig,
    Form,
    IntegratorConfig,
    MonitorConfig,
    config_from_dict,
    integrate,
    run_experiment,
    standard_psi,
)
from g2flow import experiments

from .conftest import N2_ALGEBRA, closed_n2_phi, coclosed_sample
from .oracles import write_flow_oracle, write_records_oracle

SHORT = {"method": "rk4", "dt": 0.01, "t_end": 0.1}
# The standard psi, closed on ee1, plus 0.01 e^{2346}, which is not.
_E2346 = Form.monomial((2, 3, 4, 6), 0.01).coeffs


def _config(experiment, fmt, flow=None, **sections):
    raw = {"schema_version": 1, "experiment": experiment, "flow": flow or {},
           "output": {"format": fmt}, **sections}
    cfg, violations = config_from_dict(raw)
    assert violations == []
    return cfg


def _n2_laplacian(fmt, experiment="custom", flow=None, **sections):
    """A Laplacian flow on n2 from a closed start, with closed perturbations."""
    start = closed_n2_phi(np.random.default_rng(4)).coeffs.tolist()
    return _config(experiment, fmt, {"flow_kind": "laplacian_flow", "integrator": SHORT,
                                     **(flow or {})},
                   algebra_file=str(N2_ALGEBRA), initial=start,
                   perturbation={"seed": 2, "magnitude": 0.2, "subspace": "coclosed"},
                   **sections)


class TestWritersAgainstTheOracle:
    """Every file a run writes equals, byte for byte, what the reference
    writers write from the run's records: for flows the record dicts of the
    trajectory's FlowState views, for the other experiments the records they
    hand to ``_write_records``."""

    @staticmethod
    def _assert_oracle_bytes(monkeypatch, tmp_path, cfg, statuses):
        written = []
        write_flow, write_records = experiments._write_flow, experiments._write_records

        def flow(cfg, start, trajectory, path):
            records = [state.record() for state in trajectory.states]
            written.append((path, lambda out: write_flow_oracle(out, cfg.output.format, records)))
            return write_flow(cfg, start, trajectory, path)

        def records(path, fmt, records, fieldnames):
            written.append((path, lambda out: write_records_oracle(out, fmt, records, fieldnames)))
            return write_records(path, fmt, records, fieldnames)

        monkeypatch.setattr(experiments, "_write_flow", flow)
        monkeypatch.setattr(experiments, "_write_records", records)
        result = run_experiment(cfg, output_dir=tmp_path / "run")
        assert result.status == statuses
        assert written
        for i, (path, oracle) in enumerate(written):
            oracle(tmp_path / f"oracle{i}")
            assert path.read_bytes() == (tmp_path / f"oracle{i}").read_bytes(), path
        return result

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_flows_with_a_monitor_off(self, monkeypatch, tmp_path, fmt):
        monitors = {"record_every": 2, "trT": False}
        for cfg in (
            _config("ee2_flow", fmt, {"integrator": SHORT, "monitors": monitors},
                    perturbation={"seed": 1, "magnitude": 0.1}),
            _n2_laplacian(fmt, flow={"monitors": dict(monitors, trT=True, volume=False)}),
        ):
            self._assert_oracle_bytes(monkeypatch, tmp_path / cfg.experiment, cfg, "ok")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_halts_at_t0_and_between_records(self, monkeypatch, tmp_path, fmt):
        # A start that is not closed halts at t = 0 on a record whose
        # rhs_norm is null; the pinned rk4 newton halt at step 55 falls
        # between records and ends on a record of the state it halted at.
        # The standard phi is not closed on ee1 either.
        start = (standard_psi().coeffs + _E2346).tolist()
        for kind, initial in (("modified_coflow", start), ("laplacian_flow", None)):
            not_closed = _config("custom", fmt, {"flow_kind": kind, "integrator": SHORT},
                                 algebra_file="ee1", initial=initial)
            result = self._assert_oracle_bytes(monkeypatch, tmp_path / kind, not_closed, "halted")
            assert result.summary["termination"]["reason"] == "closedness"
            assert result.summary["records"] == 1
        newton = _config("ee2_flow", fmt, {"A": 0.5, "integrator": dict(SHORT, t_end=1.0)},
                         perturbation={"seed": 0, "magnitude": 0.2})
        result = self._assert_oracle_bytes(monkeypatch, tmp_path / "newton", newton, "halted")
        assert (result.summary["termination"]["reason"], result.summary["final_t"]) == (
            "newton", result.summary["termination"]["t"])
        assert result.summary["termination"]["steps"] % 10 != 0

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_lockstep_sweep_cells(self, monkeypatch, tmp_path, fmt):
        coflow = _config("sweep", fmt, {"integrator": SHORT}, perturbation={"magnitude": 0.05},
                         sweep={"experiment": "ee2_flow",
                                "axes": {"flow.A": [0.0, 0.5], "perturbation.seed": [1, 2]}})
        laplacian = _n2_laplacian(fmt, "sweep", sweep={
            "experiment": "custom", "axes": {"perturbation.seed": [0, 5, 9]}})
        for name, cfg in (("coflow", coflow), ("laplacian", laplacian)):
            self._assert_oracle_bytes(monkeypatch, tmp_path / name, cfg, "ok")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_reports_through_write_records(self, monkeypatch, tmp_path, fmt):
        for cfg in (
            _config("ee1_static", fmt, samples=6, perturbation={"magnitude": 0.5}),
            _config("ee2_family", fmt, samples=5),
            _config("np", fmt, {"A": 0.5, "integrator": {"dt": 0.01, "t_end": 0.2}},
                    np={"tau0": 1.0}),
        ):
            self._assert_oracle_bytes(monkeypatch, tmp_path / cfg.experiment, cfg, "ok")


class TestRecordsOnArrays:
    """A record is a row of arrays and lists: ``integrate`` builds no Form
    for it, and a long run retains well under a kilobyte per record (about
    1.4 KB when each record was a FlowState with its Forms and dict)."""

    def test_a_laplacian_record_retains_at_most_a_kilobyte(self, n2):
        cfg = FlowConfig(
            flow_kind="laplacian_flow",
            integrator=IntegratorConfig(dt=0.01, t_end=5.0),
            monitors=MonitorConfig(record_every=1),
        )
        phi = closed_n2_phi(np.random.default_rng(0))
        integrate(n2, cfg, phi)  # caches of the algebra are built once, not per record
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trajectory = integrate(n2, cfg, phi)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert trajectory.termination["steps"] == 500
        records = len(trajectory.states)
        assert records == 501
        assert retained / records <= 1000

    def test_integrate_builds_no_form(self, ee2, n2, monkeypatch):
        coflow_start = coclosed_sample(ee2, np.random.default_rng(1), magnitude=0.1)[0]
        laplacian_start = closed_n2_phi(np.random.default_rng(1))
        built = []
        post_init = Form.__post_init__
        monkeypatch.setattr(Form, "__post_init__", lambda self: built.append(1) or post_init(self))
        for L, kind, start in (
            (ee2, "modified_coflow", coflow_start),
            (n2, "laplacian_flow", laplacian_start),
        ):
            cfg = FlowConfig(flow_kind=kind, integrator=IntegratorConfig(dt=0.01, t_end=0.1),
                             monitors=MonitorConfig(record_every=1))
            built.clear()
            trajectory = integrate(L, cfg, start)
            assert len(built) == 0
            assert trajectory.termination["steps"] == 10
            # The views build their Forms on access: one per coflow record
            # (psi is the flowing form), two per Laplacian record.
            final = trajectory.final
            assert len(built) == (1 if kind == "modified_coflow" else 2)
            assert final.form.coeffs.tobytes() == trajectory.forms[-1].tobytes()
            assert final.psi.degree == 4
