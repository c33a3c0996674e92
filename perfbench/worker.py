"""Measure one workload in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with the BLAS thread variables cleared.  It checks
the workload's inputs, makes one untimed warm-up run whose output the
oracles check (for the sweep, at ``--jobs 1``), then times repeated calls
of ``g2flow.cli.main`` until the time budget is spent.  Every timed run
must write byte-identical files to the warm-up run.  With ``--trace 1`` it
instead makes pairs of untraced and traced runs and one call-counting run,
and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

MIN_RUNS = 3
MIN_TRACED_RUNS = 2


def _output_digest(out):
    """sha256 per file under ``out``, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _cpu_s():
    """User plus system CPU of this process (all threads) and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def blas_info():
    """Name, configuration and thread count of the loaded OpenBLAS, if any."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                info["library"] = os.path.basename(path)
                return info
    return info


def environment():
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


class Session:
    """Runs one workload through ``g2flow.cli.main`` and counts operations.

    ``warm_up`` makes the untimed reference run and checks its output with
    the workload's oracle; every later run must write the same bytes.
    """

    def __init__(self, name, cli, argv, out):
        self.name = name
        self.cli = cli
        self.argv = argv + ["--output-dir", str(out)]
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.units = 1

    def run(self, argv=None):
        """One run: returns (exit code, stdout, wall s, cpu s)."""
        shutil.rmtree(self.out, ignore_errors=True)
        buf = io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv or self.argv)
        wall = time.perf_counter() - t0
        return code, buf.getvalue(), wall, _cpu_s() - cpu0

    def warm_up(self, argv=None):
        code, text, _, _ = self.run(argv)
        self.reference = _output_digest(self.out)
        try:
            payload = json.loads(text)
            self.problems = workloads.oracle(self.name, payload, self.out)
            self.units = workloads.units_of_work(self.name, payload["summary"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.problems = [f"unreadable output: {exc!r}"]
        if code != 0:
            self.problems.append(f"warm-up run exited {code}")

    def timed(self, budget, min_runs, argv=None, after=None):
        """Run until ``budget`` seconds have passed and at least ``min_runs``
        runs were made; returns [(wall s, cpu s, after())]."""
        out = []
        start = time.perf_counter()
        while len(out) < min_runs or time.perf_counter() - start < budget:
            code, _, wall, cpu = self.run(argv)
            extra = after() if after is not None else None
            self.attempted += 1
            if code != 0 or self.problems or _output_digest(self.out) != self.reference:
                self.failed += 1
            out.append((wall, cpu, extra))
        return out


def _ms_quantiles(durations):
    if len(durations) < 2:
        return (durations[0] * 1e3,) * 2 if durations else (0.0, 0.0)
    q = statistics.quantiles(durations, n=10, method="inclusive")
    return q[4] * 1e3, q[8] * 1e3


def layer_metrics(name, traced, units, overhead_frac):
    """Per-layer metrics from the traced runs, a list of (wall s, cpu s,
    merged ThreadStats)."""
    import tracer

    runs = [r[2] for r in traced]
    first = runs[0]
    calls = first.calls

    def self_s(*names):
        return statistics.median([sum(r.self_s[n] for n in names) for r in runs])

    rhs_calls = sum(calls[n] for n in tracer.RHS)
    recoveries = calls[tracer.RECOVERY]
    rec_p50, rec_p90 = _ms_quantiles(first.durations[tracer.RECOVERY])
    rhs_p50, rhs_p90 = _ms_quantiles([d for n in tracer.RHS for d in first.durations[n]])
    m = {}
    for layer in tracer.LAYERS:
        names = [n for n in calls if n.startswith(layer + ".")]
        m[f"{layer}.calls"] = sum(calls[n] for n in names)
        m[f"{layer}.self_s"] = self_s(*names)
    m.update({
        "g2core.phi_of_psi.calls": recoveries,
        "g2core.phi_of_psi.s": self_s(tracer.RECOVERY),
        "g2core.phi_of_psi.ms_p50": rec_p50,
        "g2core.phi_of_psi.ms_p90": rec_p90,
        "g2core.phi_of_psi.per_unit": recoveries / units,
        "g2core.metric_per_recovery": first.metric_in_recovery / recoveries if recoveries else 0.0,
        "g2core.recovery_residual_max": first.residual_max,
        "g2core.recovery_failed": first.errors[tracer.RECOVERY],
        "g2core.metric_from_phi.calls": calls["g2core.metric_from_phi"],
        "g2core.metric_from_phi.s": self_s("g2core.metric_from_phi"),
        "g2core.torsion_trace.calls": calls["g2core.torsion_trace"],
        "g2core.torsion_trace.s": self_s("g2core.torsion_trace"),
        "flows.rhs.calls": rhs_calls,
        "flows.rhs.s": self_s(*tracer.RHS),
        "flows.rhs.ms_p50": rhs_p50,
        "flows.rhs.ms_p90": rhs_p90,
        "flows.rhs.per_unit": rhs_calls / units,
        "flows.integrate.s": self_s(tracer.INTEGRATE),
        "flows.write.s": self_s(*tracer.WRITERS),
        "flows.write.bytes": first.write_bytes,
        "liealg.hodge_laplacian_matrix.calls": calls["liealg.hodge_laplacian_matrix"],
        "liealg.hodge_laplacian_matrix.s": self_s("liealg.hodge_laplacian_matrix"),
        "exterior.exterior_powers.calls": calls["exterior.exterior_powers"],
        "exterior.exterior_powers.s": self_s("exterior.exterior_powers"),
        "exterior.exterior_powers_batch.calls": calls["exterior.exterior_powers_batch"],
        "exterior.exterior_powers_batch.s": self_s("exterior.exterior_powers_batch"),
        "exterior.star.calls": calls["exterior.star"],
        "exterior.star.s": self_s("exterior.star"),
        "experiments.sample_initial.calls": calls[tracer.SAMPLE],
        "experiments.sample_initial.s": self_s(tracer.SAMPLE),
        "experiments.sample_initial.halvings": first.halvings,
        "fixtures.load_algebra.calls": calls["fixtures.load_algebra"],
        "fixtures.load_algebra.s": self_s("fixtures.load_algebra"),
        "experiments.config_from_dict.s": self_s("experiments.config_from_dict"),
        "cli.main.s": self_s("cli.main"),
        "trace.overhead_frac": overhead_frac,
    })
    # The pool metrics exist only where there is a pool; 0 elsewhere.  Cell
    # work is counted as the integrating thread's CPU time, so a pool whose
    # threads wait on one another reads below 1.
    pool_eff = cell_max = 0.0
    if name == "sweep_ee2":
        pool_eff = statistics.median([
            st.integrate_cpu_s / (workloads.SWEEP_JOBS * wall) for wall, _, st in traced
        ])
        cell_max = statistics.median([max(st.integrate_wall, default=0.0) for st in runs])
    m["experiments.sweep.pool_efficiency"] = pool_eff
    m["experiments.sweep.cell_s_max"] = cell_max
    return m


def traced_metrics(session, seconds):
    """Pairs of one untraced and one traced run, then one call-counting run;
    returns (per-layer metrics, harness errors, untraced wall times).

    The two runs of a pair are back to back, in alternating order, so that
    ``trace.overhead_frac`` (the median of the pairs' traced/untraced - 1)
    compares runs made at the same host speed.
    """
    import tracer

    funcs = tracer.targets()
    t = tracer.Tracer()

    def merged_and_reset():
        stats = t.merged()
        t.reset()
        return stats

    def traced_run():
        t.install(funcs)
        try:
            return session.timed(0, 1, after=merged_and_reset)[0]
        finally:
            t.uninstall()

    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_RUNS or time.perf_counter() - start < 2 * seconds / 3:
        if len(traced) % 2 == 0:
            untraced.append(session.timed(0, 1)[0])
            traced.append(traced_run())
        else:
            traced.append(traced_run())
            untraced.append(session.timed(0, 1)[0])
    counted = tracer.count_calls(funcs, lambda: session.timed(0, 1))

    harness = []
    seen = traced[0][2].calls
    if any(r[2].calls != seen for r in traced[1:]):
        harness.append("harness: call counts differ between traced runs")
    for fn_name in sorted(set(counted) | set(seen)):
        if counted[fn_name] != seen[fn_name]:
            harness.append(
                f"harness: {fn_name}: wrapper saw {seen[fn_name]} calls, "
                f"code ran {counted[fn_name]}"
            )
    if session.name == "sweep_ee2" and not all(r[2].integrate_wall for r in traced):
        # Cells that run outside this process leave no spans to measure.
        harness.append("harness: no cell spans seen on sweep_ee2")
    overhead = statistics.median([tr[0] / un[0] - 1.0 for un, tr in zip(untraced, traced)])
    metrics = layer_metrics(session.name, traced, session.units, overhead)
    return metrics, harness, [r[0] for r in untraced]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/g2flow")
    parser.add_argument("--work", required=True, help="scratch directory for this run")
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import g2flow
    from g2flow import cli

    if not Path(g2flow.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"g2flow imported from {g2flow.__file__}, not from {src}\n")
        return 2

    name = args.workload
    work = Path(args.work)
    argv, cfg_path = workloads.write_inputs(name, args.seed, work)
    problems = workloads.check_inputs(name, cfg_path)
    if problems:
        for p in problems:
            sys.stderr.write(f"bad input for {name}: {p}\n")
        return 3

    session = Session(name, cli, argv, work / "out")
    reference_argv = None
    if name == "sweep_ee2":
        # The reference output comes from --jobs 1, so every timed run also
        # checks the cross-jobs invariant: the same cell files and manifest.
        reference_argv = session.argv[:]
        reference_argv[reference_argv.index("--jobs") + 1] = "1"
    session.warm_up(reference_argv)
    result = {"units": session.units}
    harness = []
    cpus = []
    if args.trace == 0:
        runs = session.timed(args.seconds, MIN_RUNS)
        walls = [r[0] for r in runs]
        cpus = [r[1] for r in runs]
        result["peak_rss_mb"] = _peak_rss_mb()
    else:
        result["metrics"], harness, walls = traced_metrics(session, args.seconds)

    result.update({
        "run_s": walls,
        "cpu_s": cpus,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems + harness,
        "environment": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
