"""Command-line front end: single-point evaluation, grid sweeps, figure presets.

Examples:

    qmb compute --model su2_qutrit --set alpha=0.7853981633974483 \\
        --set beta=0 --set t=1 --set B=3.141592653589793 --set theta=0 --set phi=0
    qmb sweep --model tunable_qubit --set gamma=0.785398 --set theta=1.570796 \\
        --set phi=0 --set r_y=0.2 --set r_z=0.4 \\
        --axis r_x=0.1:0.8:16 --axis xi=0:6.28:16 --out grid.csv
    qmb preset fig5 --out fig5.csv --format csv
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import QmbError
from .sweep import (
    Axis,
    SweepSpec,
    WeightSpec,
    emit,
    figure_preset,
    run_sweep,
)


def _parse_set(entries: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for entry in entries:
        if "=" not in entry:
            raise QmbError(f"--set expects name=value, got {entry!r}")
        key, _, val = entry.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise QmbError(f"--set {key}: {val!r} is not a number") from exc
    return out


def _parse_axis(entry: str) -> Axis:
    if "=" not in entry:
        raise QmbError(f"--axis expects name=start:stop:count, got {entry!r}")
    name, _, rest = entry.partition("=")
    parts = rest.split(":")
    if len(parts) != 3:
        raise QmbError(f"--axis {name}: expected start:stop:count, got {rest!r}")
    try:
        return Axis(name.strip(), float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise QmbError(f"--axis {name}: {rest!r} is malformed") from exc


def _parse_weight(entry: str) -> WeightSpec:
    if entry in ("identity", "qfim"):
        return WeightSpec(kind=entry)
    for kind in ("diag", "full"):
        prefix = kind + ":"
        if entry.startswith(prefix):
            try:
                values = tuple(float(v) for v in entry[len(prefix):].split(","))
            except ValueError as exc:
                raise QmbError(f"--weight {kind}: values must be numbers") from exc
            return WeightSpec(kind=kind, values=values)
    raise QmbError(f"--weight must be identity, diag:v1,v2,..., full:..., or qfim; got {entry!r}")


def _read_config(path: str) -> dict[str, list[str]]:
    """Flat key=value config, one entry per line; '#' starts a comment."""
    entries: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise QmbError(f"config line without '=': {raw.strip()!r}")
            key, _, val = line.partition("=")
            entries.setdefault(key.strip(), []).append(val.strip())
    return entries


# Config-file keys per command; a preset fixes its own model and weight.
_CONFIG_KEYS = {
    "compute": ("model", "set", "weight", "out"),
    "sweep": ("model", "set", "axis", "weight", "out"),
    "preset": ("set", "out"),
}


def _add_common(parser: argparse.ArgumentParser, command: str) -> None:
    if command != "preset":
        parser.add_argument("--model", help="tunable_qubit | su2_qubit | su2_qutrit")
        parser.add_argument("--weight",
                            help="identity (default) | diag:v1,v2,... | full:v11,v12,... | qfim")
    parser.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                        help="bind a model parameter or constant (repeatable)")
    if command == "sweep":
        parser.add_argument("--axis", action="append", default=[],
                            metavar="NAME=START:STOP:COUNT",
                            help="add a linear sweep axis (repeatable)")
    parser.add_argument("--out", help="output path (stdout if omitted)")
    parser.add_argument("--format", default="csv", choices=("csv", "json"))
    parser.add_argument("--pseudo-inverse", action="store_true",
                        help="rank-truncated inverses on singular QFIM lines (flagged)")
    parser.add_argument("--config", help="flat key=value config file; flags take precedence")


def _apply_config(args: argparse.Namespace) -> None:
    """Fill what the flags left unset from the config file, then from the defaults."""
    entries = _read_config(args.config) if args.config else {}
    keys = _CONFIG_KEYS[args.command]
    unknown = sorted(set(entries) - set(keys))
    if unknown:
        raise QmbError(f"unknown {args.command} config keys {unknown}; accepted: {', '.join(keys)}")
    if args.command != "preset":
        if args.model is None:
            args.model = entries.get("model", [None])[-1]
        if args.weight is None:
            args.weight = entries.get("weight", ["identity"])[-1]
    if args.command == "sweep" and not args.axis:
        args.axis = entries.get("axis", [])
    args.set = entries.get("set", []) + args.set
    if args.out is None:
        args.out = entries.get("out", [None])[-1]


def _build_spec(args: argparse.Namespace, axes: tuple[Axis, ...]) -> SweepSpec:
    if not args.model:
        raise QmbError("--model is required")
    return SweepSpec(
        model_id=args.model,
        fixed=_parse_set(args.set),
        axes=axes,
        weight=_parse_weight(args.weight),
        pseudo_inverse=args.pseudo_inverse,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmb",
        description="Multiparameter quantum estimation bounds and incompatibility measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_compute = sub.add_parser("compute", help="evaluate one fully bound point")
    _add_common(p_compute, "compute")
    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid")
    _add_common(p_sweep, "sweep")
    p_preset = sub.add_parser("preset", help="run a named figure preset")
    p_preset.add_argument("name", help="fig1 | fig2 | fig3a | fig3b | fig4 | fig5")
    _add_common(p_preset, "preset")

    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        if args.command == "compute":
            spec = _build_spec(args, axes=())
            rows = run_sweep(spec)
        elif args.command == "sweep":
            axes = tuple(_parse_axis(a) for a in args.axis)
            if not axes:
                raise QmbError("sweep needs at least one --axis")
            spec = _build_spec(args, axes=axes)
            rows = run_sweep(spec)
        else:
            spec = figure_preset(args.name, _parse_set(args.set))
            if args.pseudo_inverse:
                spec = replace(spec, pseudo_inverse=True)
            rows = run_sweep(spec)
        emit(rows, args.format, args.out or sys.stdout, spec)
    except QmbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
