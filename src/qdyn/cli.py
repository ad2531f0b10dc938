"""Command-line interface.

Subcommands: fixed-points, classify, simulate, basin, verify.  Each
subparser declares the RunConfig fields its command reads and its output
formats, the first being the default; --config keys override the flags.
Handlers print nothing: each returns its exit code, a JSON payload and its
CSV rows or text lines (a lazy iterable, read only if printed), and `main`
prints the one the format names once, on stdout, with shortest round-trip
float formatting, so identical configurations give byte-identical runs.
Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.  QDYN_LOG sets diagnostic verbosity on stderr, never the numbers.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Iterable

import numpy as np

from .dynamics import DEFAULT_BUDGET, basin_boundary, classify_fate, iterate
from .errors import QdynError
from .fixed_points import _all_supports, _points
from .model import Rates
from .stability import _STACK_ROWS, TAU_UNIT, classify, spectrum_at
from .verify import verification_sweep

DEFAULT_BISECT_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    theta: tuple[float, ...] | None = None
    seed: int = 0
    tau_unit: float = TAU_UNIT
    bisect_tol: float = DEFAULT_BISECT_TOL
    budget: int = DEFAULT_BUDGET
    format: str = "json"

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so NaN is rejected too
        if self.theta is not None and not all(0.0 < t < math.inf for t in self.theta):
            raise QdynError("all rates must be finite and strictly positive")
        for name in ("tau_unit", "bisect_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise QdynError(f"{name} must be finite and positive")
        if self.budget < 1:
            raise QdynError("budget must be >= 1")
        if self.seed < 0:
            raise QdynError("seed must be a nonnegative integer")

    def rates(self) -> Rates:
        if self.theta is None:
            raise QdynError("--theta is required for this command")
        return Rates(np.array(self.theta))


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise QdynError(f"{flag} expects comma-separated decimals, got {text!r}") from exc


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise QdynError(f"--x1-range expects lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise QdynError(f"--x1-range expects lo:hi:count, got {text!r}") from exc
    if count < 1:
        raise QdynError("--x1-range count must be >= 1")
    if not math.isfinite(hi - lo):
        raise QdynError(f"--x1-range ends and their span hi - lo must be finite, got {text!r}")
    return np.linspace(lo, hi, count)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags the command declared, overridden by --config."""
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name, None) is not None}
    if "theta" in settings:
        settings["theta"] = _parse_floats(settings["theta"], "--theta")
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:
                raise QdynError(f"--config is not valid JSON: {exc}") from exc
        settings.update(_checked_overrides(overrides))
    if settings["format"] not in args.formats:
        raise QdynError(f"{args.command} prints {' or '.join(args.formats)}, not {settings['format']!r}")
    return RunConfig(**settings)


_KIND_NAMES = {float: "a number", int: "an integer", str: "a string", list: "a list of numbers"}


def _fits(value, kind: type) -> bool:
    # bool is an int subclass in Python but never a valid number here
    if kind is list:
        return isinstance(value, list) and all(_fits(v, float) for v in value)
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _checked_overrides(overrides) -> dict:
    """Config-file keys as RunConfig fields, each type-checked against the
    field's default (theta is a list)."""
    if not isinstance(overrides, dict):
        raise QdynError("--config must hold a JSON object")
    kinds = {f.name: type(f.default) for f in fields(RunConfig)}
    kinds["theta"] = list  # the only field that defaults to None
    unknown = set(overrides) - set(kinds)
    if unknown:
        raise QdynError(f"unknown config keys: {sorted(unknown)}")
    checked = {}
    for key, value in overrides.items():
        if not _fits(value, kinds[key]):
            raise QdynError(f"config key {key!r} must be {_KIND_NAMES[kinds[key]]}, got {value!r}")
        try:
            value = tuple(map(float, value)) if key == "theta" else float(value) if kinds[key] is float else value
        except OverflowError as exc:
            raise QdynError(f"config key {key!r} is out of range") from exc
        checked[key] = value
    return checked


def _points_output(rates: Rates, masks: Iterable[int], bits: np.ndarray, tau_unit: float) -> tuple[int, dict, Iterable]:
    # one record per support, read off the columns of the fixed-point table
    coords, residual = _points(rates.values, bits)
    spectra = np.concatenate(
        [spectrum_at(rates, coords[i:i + _STACK_ROWS]) for i in range(0, len(coords), _STACK_ROWS)]
    )
    columns = zip(
        masks, bits.tolist(), coords.tolist(), np.all(coords >= 0.0, axis=1).tolist(), residual.tolist(),
        np.stack([spectra.real, spectra.imag], axis=-1).tolist(), classify(spectra, tau_unit),
    )
    records = [
        {
            "mask": mask,
            "support": support,
            "coords": x,
            "feasible": feasible,
            "residual": res,
            "eigenvalues": eigs,
            "class": cls.tag.value,
            "inside": cls.inside,
            "outside": cls.outside,
            "on_unit": cls.on_unit,
            "index": mask,  # the position in the mask-ordered enumeration
        }
        for mask, support, x, feasible, res, eigs, cls in columns
    ]
    payload = {"theta": rates.values.tolist(), "n": rates.n, "fixed_points": records}
    header = ["mask", "support", "feasible", "residual", *(f"x{k + 1}" for k in range(rates.n))]
    header += [f"eig{k + 1}_{part}" for k in range(rates.n) for part in ("re", "im")] + ["class"]
    rows = (
        [rec["mask"], "".join(map(str, rec["support"])), str(rec["feasible"]).lower(), rec["residual"],
         *rec["coords"], *itertools.chain.from_iterable(rec["eigenvalues"]), rec["class"]]
        for rec in records
    )
    return 0, payload, itertools.chain([header], rows)


def cmd_fixed_points(cfg: RunConfig, args: argparse.Namespace) -> tuple[int, dict, Iterable]:
    rates = cfg.rates()
    return _points_output(rates, range(1 << rates.n), _all_supports(rates), cfg.tau_unit)


def cmd_classify(cfg: RunConfig, args: argparse.Namespace) -> tuple[int, dict, Iterable]:
    rates = cfg.rates()
    bits = args.support.split(",")
    if len(bits) != rates.n or any(b not in ("0", "1") for b in bits):
        raise QdynError(f"--support expects {rates.n} bits (0 or 1), got {args.support!r}")
    mask = int("".join(reversed(bits)), 2)  # bit k is coordinate k
    return _points_output(rates, [mask], np.array([bits], dtype=int), cfg.tau_unit)


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> tuple[int, dict, Iterable]:
    rates = cfg.rates()
    x0 = np.array(_parse_floats(args.x0, "--x0"))
    trajectory = iterate(rates, x0, args.steps).tolist()
    report = classify_fate(rates, x0, cfg.budget)
    fate = {
        "outcome": report.outcome.value,
        "steps_used": report.steps_used,
        "evidence": report.evidence.value,
        "fixed_point_index": report.fixed_point_index,
        "final_state": report.final_state.tolist(),
    }
    payload = {"theta": rates.values.tolist(), "trajectory": trajectory, "fate": fate}
    trailer = (
        "# fate={outcome} steps_used={steps_used} evidence={evidence} "
        "fixed_point_index={fixed_point_index} final={final}"
    ).format(**fate, final=",".join(map(repr, fate["final_state"])))
    header = ["step", *(f"x{k + 1}" for k in range(rates.n))]
    rows = ([step, *row] for step, row in enumerate(trajectory))
    return 0, payload, itertools.chain([header], rows, [trailer])


def cmd_basin(cfg: RunConfig, args: argparse.Namespace) -> tuple[int, dict, Iterable]:
    rates = cfg.rates()
    if rates.n != 2:
        raise QdynError(f"basin requires n = 2, got n = {rates.n}")
    grid = _parse_range(args.x1_range)
    samples = basin_boundary(rates, grid, tol=cfg.bisect_tol, budget=cfg.budget)
    payload = {
        "theta": rates.values.tolist(),
        "tol": cfg.bisect_tol,
        "samples": [asdict(s) for s in samples],
    }
    header = ["x1", "x2_low", "x2_high", "width", "flagged"]
    rows = ([s.x1, s.x2_low, s.x2_high, s.width, str(s.flagged).lower()] for s in samples)
    return 0, payload, itertools.chain([header], rows)


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> tuple[int, dict, Iterable]:
    if args.n < 2 or args.n > 12:
        raise QdynError(f"verify requires 2 <= n <= 12, got n = {args.n}")
    summary = verification_sweep(args.n, args.trials, cfg.seed)
    payload = {
        "n": summary.n,
        "trials": summary.trials,
        "seed": summary.seed,
        "passed": summary.passed,
        "checks": [asdict(c) for c in summary.checks],
    }
    return (0 if summary.passed else 1), payload, _verify_lines(summary)


def _verify_lines(summary) -> Iterable[str]:
    for c in summary.checks:
        status = "PASS" if c.passed else "FAIL"
        yield f"{c.name}: max = {c.worst:.3e} (tol {c.tolerance:.1e}): {status}"
        for theta in c.failures:
            yield f"  offending theta: {theta}"
    verdict = "all checks passed" if summary.passed else "FAILURES above"
    yield f"verified {summary.trials} draws at n={summary.n}, seed={summary.seed}: {verdict}"


def _emit(fmt: str, payload: dict, rows: Iterable) -> None:
    """Print the payload as JSON, or else the rows: a str row verbatim (text
    lines, simulate's fate trailer), any other row as a CSV record.

    csv writes a float cell (numpy float64 included) with float's repr, the
    shortest round-trip form, as json.dumps does."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        if isinstance(row, str):
            print(row)
        else:
            writer.writerow(row)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help, formats, theta=True) -> argparse.ArgumentParser:
        # the flags every command takes; formats[0] is the default format
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, formats=formats)
        if theta:
            p.add_argument("--theta", help="comma-separated positive rates, e.g. 0.4,0.6")
        p.add_argument("--config", help="JSON config file; its keys override flags")
        p.add_argument("--format", choices=formats, default=formats[0], help=f"output format (default {formats[0]})")
        return p

    p = add_command("fixed-points", cmd_fixed_points, "enumerate all 2^n fixed points with spectra and classes",
                    ("json", "csv"))
    p.add_argument("--tol", dest="tau_unit", type=float, metavar="TOL", help="unit-circle tolerance for classification")

    p = add_command("classify", cmd_classify, "one fixed point selected by its support bit list", ("json", "csv"))
    p.add_argument("--support", required=True, help="bit list, e.g. 1,0,1")
    p.add_argument("--tol", dest="tau_unit", type=float, metavar="TOL", help="unit-circle tolerance for classification")

    p = add_command("simulate", cmd_simulate, "iterate from an initial state and report the fate", ("csv", "json"))
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--steps", type=int, default=100, help="trajectory length to emit")
    p.add_argument("--budget", type=int, help="iteration cap for fate classification")

    p = add_command("basin", cmd_basin, "bisect the basin boundary on a grid of x1 values (n=2)", ("csv", "json"))
    p.add_argument("--x1-range", dest="x1_range", required=True, help="lo:hi:count")
    p.add_argument("--tol", dest="bisect_tol", type=float, metavar="TOL", help="bisection bracket width")
    p.add_argument("--budget", type=int, help="iteration cap for fate classification")

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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        code, payload, rows = args.handler(cfg, args)
        _emit(cfg.format, payload, rows)
        return code
    except (QdynError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
