"""Command-line front end.

Subcommands: run (one case), batch (all cases plus metrics), validate
(config check only), record (batch with the backend forced to record mode).
Exit codes: 0 success, 1 config validation error, 2 one or more case
failures, 3 resource or load error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .config import RunConfig, as_record, validate_config
from .differential import read_cases
from .errors import CaseFailure, ConfigError, EngineError, ResourceError
from .runner import Runtime, run_batch, run_case, trace_path_for

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CASE = 2
EXIT_RESOURCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dxcouncil",
        description="Guideline- and knowledge-graph-grounded diagnostic workflow")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single case and print its report")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--case-id", default=None,
                       help="case to run; required when the case file has several")

    batch_p = sub.add_parser("batch", help="run every case and report metrics")
    batch_p.add_argument("--config", required=True)

    val_p = sub.add_parser("validate", help="validate a config and exit")
    val_p.add_argument("--config", required=True)

    rec_p = sub.add_parser("record",
                           help="run every case with the backend forced to record mode")
    rec_p.add_argument("--config", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = validate_config(args.config)
    runtime = Runtime(config)
    try:
        cases = read_cases(config.cases_path)
        if not cases:
            raise ResourceError(f"no cases in {config.cases_path}")
        if args.case_id is not None:
            matching = [c for c in cases if c.case_id == args.case_id]
            if not matching:
                print(f"error: no case with id {args.case_id!r} in {config.cases_path}",
                      file=sys.stderr)
                return EXIT_RESOURCE
            case = matching[0]
        elif len(cases) == 1:
            case = cases[0]
        else:
            print("error: case file has several cases; pass --case-id",
                  file=sys.stderr)
            return EXIT_CONFIG
        try:
            report, trace = run_case(runtime, case)
        except CaseFailure as exc:
            print(f"case {exc.case_id} failed at stage {exc.stage}: {exc.cause}",
                  file=sys.stderr)
            return EXIT_CASE
        print(f"case: {case.case_id}")
        print(f"final diagnosis: {report.final_diagnosis}")
        print(f"report: {report.consensus_narrative}")
        if report.recommended_next_steps:
            print(f"next steps: {report.recommended_next_steps}")
        print(f"trace: {trace_path_for(config, case.case_id)}")
        return EXIT_OK
    finally:
        runtime.close()


def _cmd_batch(args: argparse.Namespace) -> int:
    config = validate_config(args.config)
    if args.command == "record":
        config = as_record(config)
    runtime = Runtime(config)
    try:
        result = run_batch(runtime)
    finally:
        runtime.close()
    for row in result.rows:
        if row.status == "ok":
            mark = {True: "correct", False: "wrong", None: "unlabeled"}[row.correct]
            print(f"{row.case_id}: {row.final_diagnosis} ({mark})")
        else:
            print(f"{row.case_id}: FAILED at {row.failed_stage}: {row.error}")
    m = result.metrics
    print(f"cases: {len(result.rows)}  failed: {result.failed}")
    if m.cases:
        print(f"weighted precision: {m.weighted_precision:.2f}  "
              f"recall: {m.weighted_recall:.2f}  "
              f"f1: {m.weighted_f1:.2f}  f0.5: {m.weighted_f05:.2f}")
    print(f"outputs: {config.output_dir}")
    return EXIT_OK if result.ok else EXIT_CASE


def _cmd_validate(args: argparse.Namespace) -> int:
    config = validate_config(args.config)
    settings = [(setting.name, getattr(config, setting.name)) for setting in fields(RunConfig)
                if setting.metadata["key"].startswith("params.") or setting.name == "workers"]
    print(f"config OK: mode={config.mode.value}, " + ", ".join(
        f"{name}=[{', '.join(value)}]" if isinstance(value, tuple) else f"{name}={value}"
        for name, value in settings))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command in ("batch", "record"):
            return _cmd_batch(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CaseFailure as exc:
        print(f"case failure: {exc}", file=sys.stderr)
        return EXIT_CASE
    except (EngineError, OSError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
