"""Command-line entry point: one subcommand per experiment kind plus a generic
`run`.  Bare subcommands use the built-in default config for that kind; every
flag overrides the corresponding config field."""

from __future__ import annotations

import argparse
import os
import sys

from .config import EXPERIMENT_KINDS, ConfigError, default_raw, read_config, validate
from .runner import run


def _add_common(p):
    p.add_argument("--config", metavar="PATH", help="experiment config file (JSON)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (default: $FRACEXT_OUT if set, else the "
                        "config's output_dir, whose default is '.')")
    p.add_argument("--seed", type=int, default=None, help="sampling seed override")
    p.add_argument("--emit-plots", action="store_true", default=None,
                   help="emit SVG plots alongside the reports")
    p.add_argument("--s", type=float, default=None, dest="s_value",
                   help="fractional order override")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fracext",
        description="fractional-extension numerical laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        _add_common(p)
    p = sub.add_parser("run", help="run an experiment from a config file")
    _add_common(p)
    return ap


def _with_overrides(raw, args):
    """raw with the --s, --seed and --emit-plots flags applied."""
    if not isinstance(raw, dict):
        return raw  # validate rejects it
    raw = dict(raw)
    setup = raw.get("setup") or {}
    if args.s_value is not None and isinstance(setup, dict):
        raw["setup"] = {**setup, "s": args.s_value}
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.emit_plots:
        raw["emit_plots"] = True
    return raw


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run" and not args.config:
        print("error: `run` requires --config", file=sys.stderr)
        return 2
    try:
        raw = (read_config(args.config) if args.config
               else default_raw(args.command, s=args.s_value))
        cfg = validate(_with_overrides(raw, args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command != "run" and cfg.experiment != args.command:
        print(f"error: config is for {cfg.experiment!r}, not {args.command!r}",
              file=sys.stderr)
        return 2
    out = args.out or os.environ.get("FRACEXT_OUT") or cfg.output_dir
    manifest = run(cfg, out_dir=out)
    for stage in manifest.stages:
        print(f"[{stage['status']}] {stage['name']}")
    print(f"manifest: {os.path.join(out, 'manifest.json')}")
    return manifest.exit_status


if __name__ == "__main__":
    sys.exit(main())
