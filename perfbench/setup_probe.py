"""Time one CLI set-up in a fresh interpreter.

Usage: setup_probe.py ROOT CONFIG

Times what every ``g2flow`` invocation pays before its run starts: importing
the package and its CLI, loading and validating the config, and loading the
config's algebra.  Prints {"setup_s": seconds}.  Only ``sys`` and ``time``
are imported before the clock starts.
"""

import sys
import time


def main():
    root, cfg_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, root + "/src")
    t0 = time.perf_counter()
    import g2flow.cli  # noqa: F401  (what the console script imports)
    from g2flow.experiments import config_from_dict, load_config
    from g2flow.fixtures import load_algebra

    cfg, violations = config_from_dict(load_config(cfg_path))
    if not violations:
        load_algebra(cfg.algebra_file)
    elapsed = time.perf_counter() - t0
    if violations:
        sys.stderr.write("\n".join(violations) + "\n")
        return 2
    import json

    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
