"""Command line front door.

    ebk run --config cfg.json [--output-dir D] [--verbose]
    ebk validate --config cfg.json

validate also checks that no file stands where the config's output_dir
should be created, which run checks before any stage.
Exit codes: 0 ok, 2 config error, 3 hypothesis violation (regularity or
topology), 4 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError
from .pipeline import _say
from .pipeline import run as run_pipeline


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebk",
        description="Quantization spectra of 1D Hamiltonian symbols, with a direct oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured pipeline")
    p_run.add_argument("--config", required=True, help="path to the JSON run config")
    p_run.add_argument("--output-dir", default=None, help="override config output_dir")
    p_run.add_argument("--verbose", action="store_true", help="print stage progress")

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("--config", required=True, help="path to the JSON run config")
    return parser


def _check_output_dir(out: Path) -> None:
    """Raise the ConfigError run raises when a file stands where out or one
    of its parents should be, without creating anything."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                reason = os.strerror(errno.EEXIST if path == out else errno.ENOTDIR)
                raise ConfigError(f"cannot create output directory {out}: {reason}")
            return


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate":
            _check_output_dir(Path(config.output_dir))
            _say(f"config ok: symbol={config.symbol_name} stages={','.join(config.pipeline)}")
            return 0
        manifest, code = run_pipeline(config, output_dir=args.output_dir, verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    bad = [s for s, st in manifest["stages"].items() if st["status"] != "ok"]
    failed = [c for c, ok in manifest["checks"].items() if ok is not None and not ok]
    if code != 0:
        print(
            f"run failed (exit {code}); problem stages: {', '.join(bad)}; "
            f"failed checks: {', '.join(failed)}",
            file=sys.stderr,
        )
    elif args.verbose:
        _say("run ok")
    return code


if __name__ == "__main__":
    sys.exit(main())
