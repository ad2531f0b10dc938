"""Command-line interface.

Subcommands: fixed-points, classify, simulate, basin, verify.  Each
subparser declares the settings its command reads, as flags with their
defaults, and its output formats, the first being the default.  Those
flags' dests are the --config keys, and a config key overrides its flag;
a setting passes the same check whichever way it comes.  The CLI checks
only unknown config keys and the command's formats; each setting's kind
and range are the rule of the library check that owns it (Rates for
theta), called for every key given, also one the command does not read,
so a bad value fails with the library's message on one stderr line.
Handlers print nothing: each returns its exit code and the one output its
format prints, a JSON payload or its text lines, and `main` prints it, on
stdout, with shortest round-trip float formatting, so identical
configurations give byte-identical runs.  Every CSV row, and the JSON of
fixed-points and classify, is rendered from its table's columns by
json's C encoder, byte-identical to json.dumps(payload, indent=2) and to
a CSV of each float's repr: `_column` cuts a column's text into CSV
cells, and a fixed-point record is the cells of its flat columns joined
with the fixed text json.dumps puts around them at that n.  The
fixed-point table is computed whole, so an error leaves stdout empty,
and is then written one Jacobian stack of records at a time.
Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.  QDYN_LOG sets diagnostic verbosity on stderr, never the numbers.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import sys
from argparse import ArgumentParser, Namespace
from dataclasses import asdict
from typing import Iterable, Sequence

import numpy as np

from . import stability
from .dynamics import DEFAULT_BISECT_TOL, DEFAULT_BUDGET, _budget, _trajectory_fate, basin_boundary, iterate
from .errors import QdynError
from .fixed_points import SupportMask, _all_supports, _points
from .model import Rates, _tolerance
from .stability import TAU_UNIT, _classes, spectrum_at
from .verify import _seed, verification_sweep


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise QdynError(f"{flag} expects comma-separated decimals, got {text!r}") from exc


def _parse_range(text: str) -> np.ndarray:
    try:  # a spec without exactly three parts fails the unpacking
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise QdynError(f"--x1-range expects lo:hi:count, got {text!r}") from exc
    # 2**53 is exact in float64 and far past any grid that can be allocated;
    # linspace fails with other errors than MemoryError near numpy's size limit
    if not 1 <= count <= 2**53:
        raise QdynError(f"--x1-range count must be between 1 and 2^53, got {count}")
    if not math.isfinite(hi - lo):
        raise QdynError(f"--x1-range ends and their span hi - lo must be finite, got {text!r}")
    return np.linspace(lo, hi, count)


# the settings as flag dests and --config keys, each with the library check
# that owns its rule, the value's kind and its range, and returns the checked
# value; the CLI's own rules are only unknown keys, checked in _settings, and
# the command's formats, checked in _setting, and str passes a format on
_SETTINGS = {"theta": Rates, "seed": _seed, "tau_unit": _tolerance, "bisect_tol": _tolerance, "budget": _budget,
             "format": str}


def _settings(args: Namespace) -> None:
    """Check each setting the command's flags or --config give, the config
    keys overriding the flags, and write the checked values onto `args`."""
    settings = {key: getattr(args, key) for key in _SETTINGS if getattr(args, key, None) is not None}
    if "theta" in settings:  # a malformed --theta is refused even where --config replaces it
        settings["theta"] = _parse_floats(settings["theta"], "--theta")
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:
                raise QdynError(f"--config is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise QdynError("--config must hold a JSON object")
        if unknown := sorted(set(overrides) - set(_SETTINGS)):
            raise QdynError(f"unknown config keys: {unknown}")
        settings.update(overrides)
    for key, value in settings.items():
        setattr(args, key, _setting(key, value, args))
    if getattr(args, "theta", 0) is None:  # a command with --theta needs rates, from it or --config
        raise QdynError("--theta is required for this command")


def _setting(key: str, value, args: Namespace):
    """One setting, from a flag or a config key: a format must be one the
    command prints, then the owner's check runs, whose result it returns:
    theta as Rates."""
    if key == "format" and value not in args.formats:
        raise QdynError(f"{args.command} prints {' or '.join(args.formats)}, not {value!r}")
    return _SETTINGS[key](value)


@functools.cache
def _separators(n: int) -> list[str]:
    """The fixed text of a fixed-points record at dimension n, as
    json.dumps(indent=2) prints it inside the payload: a record of zeros,
    split at its zeros, around and between its cells, which come in this
    key order ("index" repeats the mask, the position in the mask-ordered
    enumeration); no key, indent or bracket holds a digit."""
    record = dict.fromkeys(["mask", "support", "coords", "feasible", "residual", "eigenvalues", "class", "inside",
                            "outside", "on_unit", "index"], 0)
    record.update(support=[0] * n, coords=[0] * n, eigenvalues=[[0, 0]] * n)
    return json.dumps([[record]], indent=2)[6:-6].split("0")  # less the payload's "[\n  [\n" and "\n  ]\n]"


def _cells(values: list) -> list[str]:
    # the JSON text of each item of a flat list, from one call of json's C
    # encoder; no number, bool or class tag holds ", "
    return json.dumps(values, check_circular=False)[1:-1].split(", ")


def _json_records(masks, bits, coords, feasible, residual, spectra, tags, *counts) -> str:
    # the records of a slice of the fixed-point table, as json.dumps(indent=2)
    # prints them in the payload: one join over a row of text per record, its
    # cells in the odd places and the fixed text around them in the even ones
    masks, (rows, n) = list(masks), bits.shape
    columns = (masks, bits.ravel().tolist(), coords.ravel().tolist(), feasible.tolist(), residual.tolist(),
               spectra.view(float).ravel().tolist(), [tag.value for tag in tags], *(c.tolist() for c in counts), masks)
    text = np.empty((rows, 2 * len(_separators(n)) - 1), dtype=object)
    text[:, 0::2] = _separators(n)
    text[:-1, -1] += ",\n"  # between records, not after the slice's last
    text[:, 1::2] = np.hstack([np.array(_cells(column), dtype=object).reshape(rows, -1) for column in columns])
    return "".join(text.ravel().tolist())


def _column(values: list, depth: int, sep: str) -> list[str]:
    """Each CSV row's text of one column, encoded by json's C encoder in one
    call; depth is the list nesting of a value (0 or 1), sep joins the items
    of a list value, and nonfinite numbers are spelled inf, -inf and nan, as
    repr spells them.  Items are split at ", ", which no number and no class
    tag holds."""
    text = json.dumps(values)[depth + 1 : -depth - 1].replace("]" * depth + ", " + "[" * depth, "\0")
    return text.replace("Infinity", "inf").replace("NaN", "nan").replace(", ", sep).split("\0")


def _csv_rows(masks, bits, coords, feasible, residual, spectra, tags, *counts) -> str:
    # the CSV rows of a slice of the fixed-point table; its floats, the residual,
    # the coordinates and the eigenvalues' parts, are one column of rows
    numbers = np.column_stack([residual, coords, spectra.view(float)])
    return "\n".join(map(
        "{},{},{},{},{}".format, masks, _column(bits.tolist(), 1, ""), _column(feasible.tolist(), 0, ","),
        _column(numbers.tolist(), 1, ","), [tag.value for tag in tags]))


def _points_output(args: Namespace, rates: Rates, masks: Sequence[int], bits: np.ndarray) -> tuple[int, Iterable[str]]:
    # the fixed-point table, computed whole so that every error comes before the
    # first byte, then rendered one Jacobian stack of records at a time
    coords, residual, feasible = _points(rates.values, bits)
    spectra = spectrum_at(rates, coords)
    columns = masks, bits, coords, feasible, residual, spectra, *_classes(spectra, args.tau_unit)
    if args.format == "json":
        head = json.dumps({"theta": rates.values.tolist(), "n": rates.n}, indent=2)[:-2]  # less its "\n}"
        return 0, _in_stacks(columns, _json_records, f'{head},\n  "fixed_points": [', ",", "  ]\n}")
    header = ["mask", "support", "feasible", "residual", *(f"x{k + 1}" for k in range(rates.n))]
    header += [f"eig{k + 1}_{part}" for k in range(rates.n) for part in ("re", "im")] + ["class"]
    return 0, _in_stacks(columns, _csv_rows, ",".join(header), "")


def _in_stacks(columns: tuple, render, head: str, sep: str, *tail: str) -> Iterable[str]:
    """head, the text `render` makes of each stability._STACK_ROWS slice of
    the columns, each but the last followed by sep, then tail."""
    yield head
    rows, size = len(columns[0]), stability._STACK_ROWS
    for start in range(0, rows, size):
        yield render(*(column[start : start + size] for column in columns)) + (sep if start + size < rows else "")
    yield from tail


def cmd_fixed_points(args: Namespace) -> tuple[int, Iterable[str]]:
    rates = args.theta
    return _points_output(args, rates, range(1 << rates.n), _all_supports(rates))


def cmd_classify(args: Namespace) -> tuple[int, Iterable[str]]:
    rates = args.theta
    bits = args.support.split(",")
    if len(bits) != rates.n or any(b not in ("0", "1") for b in bits):
        raise QdynError(f"--support expects {rates.n} bits (0 or 1), got {args.support!r}")
    support = SupportMask.from_bits([b == "1" for b in bits])
    return _points_output(args, rates, [support.mask_int], np.array([support.bits()]))


def cmd_simulate(args: Namespace) -> tuple[int, dict | Iterable[str]]:
    rates = args.theta
    x0 = np.array(_parse_floats(args.x0, "--x0"))
    states = iterate(rates, x0, args.steps)
    report = _trajectory_fate(rates, states, args.budget)
    trajectory = states.tolist()
    fate = {
        "outcome": report.outcome.value,
        "steps_used": report.steps_used,
        "evidence": report.evidence.value,
        "fixed_point_index": report.fixed_point_index,
        "final_state": report.final_state.tolist(),
    }
    if args.format == "json":
        return 0, {"theta": rates.values.tolist(), "trajectory": trajectory, "fate": fate}
    trailer = (
        "# fate={outcome} steps_used={steps_used} evidence={evidence} "
        "fixed_point_index={fixed_point_index} final={final}"
    ).format(**fate, final=",".join(map(repr, fate["final_state"])))
    header = ",".join(["step", *(f"x{k + 1}" for k in range(rates.n))])
    return 0, [header, *map("{},{}".format, range(len(trajectory)), _column(trajectory, 1, ",")), trailer]


def cmd_basin(args: Namespace) -> tuple[int, dict | Iterable[str]]:
    rates = args.theta
    samples = basin_boundary(rates, _parse_range(args.x1_range), tol=args.bisect_tol, budget=args.budget)
    rows = [[s.x1, s.x2_low, s.x2_high, s.width, s.flagged] for s in samples]
    output = ["x1,x2_low,x2_high,width,flagged", *_column(rows, 1, ",")] if args.format == "csv" else {
        "theta": rates.values.tolist(),
        "tol": args.bisect_tol,
        "samples": [asdict(s) for s in samples],
    }
    return 0, output


def cmd_verify(args: Namespace) -> tuple[int, dict | Iterable[str]]:
    summary = verification_sweep(args.n, args.trials, args.seed)
    output = _verify_lines(summary) if args.format == "text" else {
        "n": summary.n,
        "trials": summary.trials,
        "seed": summary.seed,
        "passed": summary.passed,
        "checks": [asdict(c) for c in summary.checks],
    }
    return (0 if summary.passed else 1), output


def _verify_lines(summary) -> Iterable[str]:
    for c in summary.checks:
        status = "PASS" if c.passed else "FAIL"
        yield f"{c.name}: max = {c.worst:.3e} (tol {c.tolerance:.1e}): {status}"
        for theta in c.failures:
            yield f"  offending theta: {theta}"
    verdict = "all checks passed" if summary.passed else "FAILURES above"
    yield f"verified {summary.trials} draws at n={summary.n}, seed={summary.seed}: {verdict}"


def _emit(output: dict | Iterable[str]) -> None:
    """Print a handler's output: a JSON payload as json.dumps(indent=2), and
    otherwise each of its texts on a line of its own (CSV rows, text lines,
    the records of one stack of a fixed-point table)."""
    for text in [json.dumps(output, indent=2)] if isinstance(output, dict) else output:
        print(text)


@functools.cache
def build_parser() -> ArgumentParser:
    """The qdyn parser, built on the first call and then shared: every
    `parse_args` returns a fresh namespace, so calls do not see each other."""
    parser = ArgumentParser(prog="qdyn", description=(
        "Fixed points, spectra, trajectory fates and the planar basin boundary of the quadratic map x_k' = (r_k x_k / 2)"
        "(x_k + 2 sum_{i!=k} x_i), in five commands: fixed-points, classify, simulate, basin and verify.  Exit codes: "
        "0 success, 1 verification failure, 2 usage or precondition error.  QDYN_LOG sets diagnostic verbosity on stderr."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help, formats, theta=True) -> ArgumentParser:
        # the flags every command takes; a command prints two formats, which
        # _setting checks, and formats[0] is the default
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, formats=formats)
        if theta:
            p.add_argument("--theta", help="comma-separated positive rates, e.g. 0.4,0.6")
        p.add_argument("--config", help="JSON config file; its keys override flags")
        p.add_argument("--format", default=formats[0], metavar="{%s,%s}" % formats, help="output format (default %(default)s)")
        return p

    def add_tol(p, dest, default, help) -> None:
        # the --tol flag of a command, setting its tolerance `dest`
        p.add_argument("--tol", dest=dest, type=float, default=default, metavar="TOL", help=help)

    p = add_command("fixed-points", cmd_fixed_points, "enumerate all 2^n fixed points with spectra and classes",
                    ("json", "csv"))
    add_tol(p, "tau_unit", TAU_UNIT, "unit-circle tolerance for classification")

    p = add_command("classify", cmd_classify, "one fixed point selected by its support bit list", ("json", "csv"))
    p.add_argument("--support", required=True, help="bit list, e.g. 1,0,1")
    add_tol(p, "tau_unit", TAU_UNIT, "unit-circle tolerance for classification")

    p = add_command("simulate", cmd_simulate, "iterate from an initial state and report the fate", ("csv", "json"))
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--steps", type=int, default=100, help="trajectory length to emit")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="iteration cap for fate classification")

    p = add_command("basin", cmd_basin, "bisect the basin boundary on a grid of x1 values (n=2)", ("csv", "json"))
    p.add_argument("--x1-range", dest="x1_range", required=True, help="lo:hi:count")
    add_tol(p, "bisect_tol", DEFAULT_BISECT_TOL, "bisection bracket width")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="iteration cap for fate classification")

    p = add_command("verify", cmd_verify, "randomized verification sweep over seeded rate draws", ("text", "json"),
                    theta=False)
    p.add_argument("--n", type=int, required=True, help="dimension (2..12)")
    p.add_argument("--trials", type=int, default=100, help="number of rate draws")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes to sys.stderr as it is when a record is emitted, so the one
    installed handler follows later redirections of stderr."""

    stream = property(lambda self: sys.stderr, lambda self, value: None)


def _setup_logging() -> None:
    """Set the qdyn logger from QDYN_LOG on every call: one stderr handler
    at that level, or none and the level unset when QDYN_LOG is unset."""
    logger = logging.getLogger("qdyn")
    for handler in [h for h in logger.handlers if isinstance(h, _StderrHandler)]:
        logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
    level_name = os.environ.get("QDYN_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, logging.INFO)
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(level if isinstance(level, int) else logging.INFO)


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _settings(args)
        code, output = args.handler(args)
        try:
            _emit(output)
            sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        except BrokenPipeError:
            # the reader closed early: stop writing, and send what stdout
            # still buffers to devnull so the exit flush reports nothing
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return code
    except (QdynError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
