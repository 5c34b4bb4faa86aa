"""Command line entry points: ``fuzz``, ``replay`` and ``serve``.

Each command imports what it runs when it runs, so ``serve`` loads only the
standard library and the mock target, never numpy or the fuzzer.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import fields
from typing import Iterator

from .client import HttpClient, TargetUnreachable
from .config import MODES, FuzzConfig
from .grammar import GrammarError, parse_spec_file

# A bad option value or input file ends the command with one line and exit 2.
_INPUT_ERRORS = (OSError, GrammarError, ValueError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restfuzz",
        description="Stateful REST API fuzzer with a deterministic mock target.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run a fuzzing session")
    fuzz.add_argument("--spec", required=True, help="grammar file (JSON)")
    fuzz.add_argument("--target", required=True, help="target base URL")
    fuzz.add_argument("--mode", choices=sorted(MODES), default=FuzzConfig.mode)
    fuzz.add_argument("--duration", type=float, default=None, help="budget in seconds")
    fuzz.add_argument("--max-requests", type=int, default=None, help="budget in requests")
    fuzz.add_argument("--seed", type=int, default=FuzzConfig.seed)
    fuzz.add_argument("--train-interval", type=float, default=FuzzConfig.train_interval,
                      help="seconds between training rounds, unless --train-every-requests")
    fuzz.add_argument("--train-every-requests", type=int, default=None,
                      help="train every N requests instead of by time")
    fuzz.add_argument("--train-sync", action="store_true",
                      help="accepted and ignored: training always runs inline")
    fuzz.add_argument("--enable-uaf-checker", action="store_true")
    fuzz.add_argument("--enable-datadriven-checker", action="store_true")
    fuzz.add_argument("--report-dir", default=None)
    fuzz.add_argument("--dump-weights", action="store_true",
                      help="write per-round weight dumps under the report dir")
    fuzz.add_argument("--max-sequence-length", type=int, default=FuzzConfig.max_sequence_length)
    fuzz.add_argument("--auth-token", default=None)
    fuzz.add_argument("--verbose", action="store_true")

    replay = sub.add_parser("replay", help="re-send a stored replay file")
    replay.add_argument("--file", required=True)
    replay.add_argument("--target", required=True)

    server = sub.add_parser("serve", help="run the mock target")
    server.add_argument("--port", type=int, required=True)
    server.add_argument("--bugs", default="",
                        help="comma-separated bug ids, e.g. b-uaf,b-undef")
    return parser


@contextmanager
def _stderr_log(verbose: bool) -> Iterator[None]:
    """Log to stderr for one run: INFO and up with ``--verbose``, else WARNING."""
    root = logging.getLogger()
    previous = root.level
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(logging.INFO if verbose else logging.WARNING)
    try:
        yield
    finally:
        root.removeHandler(handler)
        handler.close()
        root.setLevel(previous)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .orchestrator import Fuzzer

    try:
        # Every FuzzConfig field is the flag of the same name.
        config = FuzzConfig(**{field.name: getattr(args, field.name)
                               for field in fields(FuzzConfig)})
        fuzzer = Fuzzer(config, parse_spec_file(args.spec))
    except _INPUT_ERRORS as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
    try:
        with _stderr_log(args.verbose):
            metrics = fuzzer.run()
    except TargetUnreachable as exc:
        print(f"target unreachable: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a report dir or file that cannot be written
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
    json.dump(metrics.to_json(), sys.stdout, indent=2)
    print()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .reporting import load_replay, run_replay

    try:
        client = HttpClient(args.target)
        lines = load_replay(args.file)
    except _INPUT_ERRORS as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    with client:
        steps = run_replay(lines, client)
    all_match = len(steps) == len(lines)
    for index, (line, step) in enumerate(zip(lines, steps), start=1):
        expected, record = line.get("expected_class"), step.response
        actual = record.klass.value
        status = record.status if record.status is not None else "-"
        if expected is None:
            print(f"{index}: {status} {actual}")
        else:
            match = "match" if expected == actual else f"MISMATCH (expected {expected})"
            all_match = all_match and expected == actual
            print(f"{index}: {status} {actual} {match}")
    for index in range(len(steps) + 1, len(lines) + 1):
        print(f"{index}: not sent")
    return 0 if all_match else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    from .mock_service import BugConfig, serve

    try:
        bugs = BugConfig.parse(args.bugs)
        handle = serve(args.port, bugs)
    except _INPUT_ERRORS as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(f"mock target listening on {handle.base_url} "
          f"(bugs: {', '.join(sorted(bugs.armed)) or 'none'})")
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        handle.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_serve(args)


if __name__ == "__main__":
    raise SystemExit(main())
