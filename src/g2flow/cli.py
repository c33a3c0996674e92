"""Command-line front end.

Verbs:

* ``check [FIXTURE...]``  — validate algebra fixtures (d^2 = 0, unimodularity)
  and the bundled reference forms; defaults to the well-formed bundle.
* ``run CONFIG``          — run any experiment config.
* ``sweep CONFIG``        — run a config whose experiment is ``sweep``.
* ``linearize CONFIG``    — run a config whose experiment is ``linearize``.
* ``np``                  — the nearly-parallel scalar reduction from flags.

Exit codes: 0 success; 2 configuration/validation failure; 3 numerical halt
(a flow stopped before its horizon, a report assertion failed, or a
precondition such as staticness was violated); 1 unexpected error.

The fixture directory can be overridden with the ``G2FLOW_FIXTURES``
environment variable.  Identical config and seed produce bitwise-identical
output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import ConfigError, G2FlowError
from .experiments import (
    OUTPUT_FORMATS,
    check_fixture,
    config_from_dict,
    load_config,
    run_experiment,
)
from .fixtures import FORM_NAMES, load_form

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_DEFAULT_CHECK = ("torus", "ee1", "ee2")


# Built once per process: a parser is a web of reference cycles, so one per
# call would leave ~320 objects per in-process run to the cyclic collector.
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="g2flow",
        description="Left-invariant G2 structures and Laplacian-type flows "
        "on 7-dimensional Lie algebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    check = sub.add_parser("check", help="validate algebra and form fixtures")
    check.add_argument(
        "fixtures",
        nargs="*",
        default=list(_DEFAULT_CHECK),
        help="algebra fixture names or JSON paths (default: %(default)s)",
    )

    for verb, doc in (
        ("run", "run an experiment config"),
        ("sweep", "run a sweep config (experiment must be 'sweep')"),
        ("linearize", "run a linearize config (experiment must be 'linearize')"),
    ):
        p = sub.add_parser(verb, help=doc)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--output-dir", default=None, help="directory for relative output paths")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted and ignored: a sweep runs in one thread",
        )
        p.add_argument("--seed", type=int, default=None, help="override perturbation.seed")
        p.add_argument(
            "--format", choices=OUTPUT_FORMATS, default=None, help="override output.format"
        )
        p.add_argument(
            "--validate-only",
            action="store_true",
            help="validate and echo the fully-defaulted config without running",
        )

    np_parser = sub.add_parser("np", help="nearly-parallel scalar reduction")
    np_parser.add_argument("--tau0", type=float, required=True, help="torsion constant")
    np_parser.add_argument("--A", type=float, default=0.0, help="flow parameter (default 0)")
    np_parser.add_argument("--c0", type=float, default=1.0, help="initial factor (default 1)")
    np_parser.add_argument("--vol0", type=float, default=1.0, help="initial volume (default 1)")
    np_parser.add_argument("--t-end", type=float, default=1.0, help="horizon (default 1.0)")
    np_parser.add_argument("--dt", type=float, default=1e-4, help="step size (default 1e-4)")
    np_parser.add_argument("--output", default=None, help="output file (default np.<format>)")
    np_parser.add_argument("--output-dir", default=None, help="directory for relative paths")
    np_parser.add_argument(
        "--format", choices=OUTPUT_FORMATS, default="csv", help="output format (default csv)"
    )
    return parser


def _emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fail(violations):
    for message in violations:
        sys.stderr.write(f"config error: {message}\n")
    return EXIT_CONFIG


def _run(cfg, output_dir):
    """Run a validated config and print its result; returns the exit code."""
    result = run_experiment(cfg, output_dir=output_dir)
    _emit(
        {
            "experiment": result.experiment,
            "status": result.status,
            "summary": result.summary,
            "files": result.files,
        }
    )
    return EXIT_OK if result.status == "ok" else EXIT_NUMERICAL


def _cmd_check(args):
    reports = [check_fixture(name) for name in args.fixtures]
    all_ok = all(r["ok"] for r in reports)
    form_reports = []
    for name in FORM_NAMES:
        try:
            form = load_form(name)
            form_reports.append({"name": name, "ok": True, "degree": form.degree})
        except (FileNotFoundError, ValueError, KeyError) as exc:
            form_reports.append({"name": name, "ok": False, "error": str(exc)})
            all_ok = False
    _emit({"algebras": reports, "forms": form_reports, "ok": all_ok})
    return EXIT_OK if all_ok else EXIT_CONFIG


def _cmd_run(args, require=None):
    try:
        raw = load_config(args.config)
    except ConfigError as exc:
        return _fail(exc.violations)
    if args.seed is not None:
        raw.setdefault("perturbation", {})["seed"] = args.seed
    if args.format is not None:
        raw.setdefault("output", {})["format"] = args.format
    cfg, violations = config_from_dict(raw)
    if violations:
        return _fail(violations)
    if require is not None and cfg.experiment != require:
        return _fail(
            [f"the {require!r} verb needs experiment = {require!r}, got {cfg.experiment!r}"]
        )
    if args.validate_only:
        _emit({"ok": True, "normalized": cfg.to_dict()})
        return EXIT_OK
    return _run(cfg, args.output_dir)


def _cmd_np(args):
    raw = {
        "schema_version": 1,
        "experiment": "np",
        "np": {"tau0": args.tau0, "c0": args.c0, "vol0": args.vol0},
        "flow": {"A": args.A, "integrator": {"dt": args.dt, "t_end": args.t_end}},
        "output": {"path": args.output, "format": args.format},
    }
    cfg, violations = config_from_dict(raw)
    if violations:
        return _fail(violations)
    return _run(cfg, args.output_dir)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "check":
            return _cmd_check(args)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "sweep":
            return _cmd_run(args, require="sweep")
        if args.verb == "linearize":
            return _cmd_run(args, require="linearize")
        if args.verb == "np":
            return _cmd_np(args)
        raise AssertionError(f"unhandled verb {args.verb!r}")
    except ConfigError as exc:
        return _fail(exc.violations)
    except G2FlowError as exc:
        sys.stderr.write(f"numerical halt: {exc}\n")
        return EXIT_NUMERICAL
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"unexpected error: {type(exc).__name__}: {exc}\n")
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
