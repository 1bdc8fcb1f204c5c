"""Command line entry point.

This module imports nothing numerical at top level: the command bodies,
and numpy with them, load inside main() once the arguments parse, so
`--help` and argument errors never load numpy.

Exit codes: 0 success, 2 configuration error (a grid or kernel too large to
sample, or a frequency grid past the sampling's alias edge, included) or
OSError, 3 computation failure or failed internal check, 4 sweep
acceptance-gate failure, 5 any other unexpected exception (a bug or an
exhausted resource).  Every nonzero exit prints one line to stderr and
writes error.json when the output directory is writable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconv",
        description="Tikhonov deconvolution experiments: tail profiles, "
                    "error-bound verification, small-set measurement, and "
                    "zero counting on synthetic kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, eps_flag=False, noise_flag=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="experiment config JSON")
        cmd.add_argument("--out", required=True, help="output directory")
        if eps_flag:
            cmd.add_argument("--eps", type=float, default=None,
                             help="noise level (default: first of eps_list)")
        if noise_flag:
            cmd.add_argument("--noise-free", action="store_true",
                             help="skip perturbation; eps still sets the "
                                  "filter parameters")
        return cmd

    add("analyze-kernel", "tail profile, Young dual, growth and zero reports")
    add("deconvolve", "single reconstruction with error decomposition",
        eps_flag=True, noise_flag=True)
    add("sweep", "noise-level sweep with convergence-rate summary")
    add("smallset", "measure the sub-threshold frequency set", eps_flag=True)
    add("zeros", "zero counts of the kernel transform")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    from .commands import (cmd_analyze_kernel, cmd_deconvolve, cmd_smallset,
                           cmd_sweep, cmd_zeros)
    from .config import load_config
    from .errors import AcceptanceGateError, ConfigError, DeconvError
    from .fileio import atomic_write_text

    body = {"analyze-kernel": cmd_analyze_kernel, "deconvolve": cmd_deconvolve,
            "sweep": cmd_sweep, "smallset": cmd_smallset,
            "zeros": cmd_zeros}[args.command]
    # --eps and --noise-free, where the command takes them
    options = {k: v for k, v in vars(args).items()
               if k in ("eps", "noise_free")}
    try:
        body(load_config(args.config), args.out, **options)
        return 0
    except Exception as exc:
        if isinstance(exc, (ConfigError, OSError)):
            code = 2
        elif isinstance(exc, AcceptanceGateError):
            code = 4
        elif isinstance(exc, DeconvError):
            code = 3
        else:
            code = 5
        module, operation = ((exc.module, exc.operation)
                             if isinstance(exc, DeconvError)
                             else ("cli", args.command))
        payload = {"error": type(exc).__name__, "module": module,
                   "operation": operation, "message": str(exc)}
        try:
            os.makedirs(args.out, exist_ok=True)
            atomic_write_text(os.path.join(args.out, "error.json"),
                              json.dumps(payload, indent=2, sort_keys=True)
                              + "\n")
        except OSError:
            pass  # stderr still carries the report
        print(f"deconv: {payload['error']} in {payload['module']}."
              f"{payload['operation']}: {payload['message']}",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
