"""Command-line interface.

Subcommands run either the full pipeline or exactly one stage against the
artifacts of a run directory, from a YAML configuration (built-in defaults
when omitted). It exits with 0 when the command succeeds, with the failure's
``exit_code`` (see ``softspin.errors``: 2 for a configuration error, a
Langevin law that could diverge included, 3 for a data error) and with 1 for
any other error, such as an OSError while writing an artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import dump_default_config, load_config
from .errors import ConfigError, SoftspinError
from .pipeline import (
    run_pipeline,
    stage_analyze,
    stage_conformal,
    stage_field,
    stage_graph,
    stage_report,
    stage_simulate,
    stage_synth,
    stage_validate,
)

# subcommand -> (what it runs, help text)
_STAGES = {
    "pipeline": (run_pipeline, "run every stage in order and write the manifest"),
    "synth": (stage_synth, "generate the synthetic dataset"),
    "validate": (stage_validate, "load and validate the dataset"),
    "field": (stage_field, "build composites, PCA and the external field"),
    "graph": (stage_graph, "build the profile-similarity graph"),
    "simulate": (stage_simulate, "run the annealed chains"),
    "conformal": (stage_conformal, "compute calibrated prediction intervals"),
    "analyze": (stage_analyze, "comparison, associations and group summaries"),
    "report": (stage_report, "assemble the consolidated report"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softspin",
        description="Continuous-spin simulation of territorial outcomes "
                    "with conformal uncertainty",
    )
    parser.add_argument("--print-config", action="store_true",
                        help="print the full default configuration and exit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="YAML configuration file (defaults used when omitted)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the global seed")
    common.add_argument("--out", type=Path, default=None,
                        help="override the output directory")
    common.add_argument("--engine", choices=["ising", "langevin", "both"],
                        default=None,
                        help="engines to run instead of the configured ones")
    common.add_argument("--workers", type=int, default=None,
                        help="worker processes for parallel chains, and threads "
                             "for the conformal batch means")

    sub = parser.add_subparsers(dest="command")
    for name, (_, text) in _STAGES.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        sys.stdout.write(dump_default_config())
        return 0
    if args.command is None:
        parser.print_help()
        return ConfigError.exit_code

    stage = args.command
    try:
        overrides = {"seed": args.seed, "workers": args.workers}
        if args.out is not None:
            overrides["out"] = str(args.out)
        if args.engine is not None:
            overrides["engines"] = (["ising", "langevin"] if args.engine == "both"
                                    else [args.engine])
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return ConfigError.exit_code

    try:
        written = _STAGES[stage][0](cfg, cfg.out)
    except Exception as exc:  # stage-tagged reporting with stable exit codes
        print(f"[{stage}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, SoftspinError) else 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
