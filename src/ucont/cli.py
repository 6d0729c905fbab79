"""Command-line front door: run and validate experiment configs.

Exit status: 0 when every asserted check passed (exploratory checks never
fail the run), 1 when an asserted check failed, 2 on configuration errors.
The worker-pool width is set by the UCONT_THREADS environment variable (a
positive integer, capped at the CPU count); an invalid value exits with 2.
"""

from __future__ import annotations

import argparse
import sys

from .carleman import ThreadCountError, worker_count
from .experiments import KINDS, ConfigError, load_config, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ucont",
        description="desk-scale verification experiments for weighted "
                    "dispersive estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to the experiment config file")

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config", help="path to the experiment config file")

    sub.add_parser("list-kinds", help="list known experiment kinds")

    args = parser.parse_args(argv)

    if args.command == "list-kinds":
        for kind in KINDS:
            print(kind)
        return 0

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        import json
        echo = {"kind": cfg.kind, "seed": cfg.seed, "output": str(cfg.output),
                "sections": cfg.sections}
        print(json.dumps(echo, indent=2, sort_keys=True))
        return 0

    try:
        worker_count()
    except ThreadCountError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 2
    report = run(cfg)
    for name, chk in sorted(report.checks.items()):
        print(f"[{chk['status']:>11}] {name}")
    print(f"report: {cfg.output / 'report.json'}")
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
