#!/usr/bin/env python3
"""Emit the raw data behind a planar phase portrait: grid fates, fixed
points with classes, the invariant-line slope, and basin boundary samples.

Example:
    python3 scripts/phase_portrait_data.py --theta 0.4,0.6 --out portrait
writes portrait_fates.csv and portrait_boundary.csv; --out is a path prefix,
so relative names land in the working directory.
"""

import argparse
import csv

import numpy as np

from qdyn import (
    Rates,
    VerticalLineError,
    basin_boundary,
    classify,
    classify_fate,
    enumerate_fixed_points,
    spectrum_at,
    unstable_line_slope,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", default="0.4,0.6", help="two comma-separated rates")
    parser.add_argument("--grid", type=int, default=61, help="points per axis")
    parser.add_argument("--x1-max", type=float, default=6.0)
    parser.add_argument("--x2-max", type=float, default=4.0)
    parser.add_argument("--boundary-points", type=int, default=61)
    parser.add_argument("--tol", type=float, default=1e-6, help="boundary bisection width")
    parser.add_argument("--out", default="portrait", help="output file prefix")
    args = parser.parse_args()

    rates = Rates([float(t) for t in args.theta.split(",")])
    if rates.n != 2:
        parser.error("phase portrait data is planar; give exactly two rates")

    print("fixed points:")
    for point in enumerate_fixed_points(rates):
        tag = classify(spectrum_at(rates, point)).tag.value
        print(f"  support={''.join(map(str, point.support.bits()))} coords={point.coords} {tag}")
    try:
        print(f"invariant line through the interior point: x2 = {unstable_line_slope(rates)!r} * x1")
    except VerticalLineError:
        print("invariant line through the interior point: vertical")

    fates_path = f"{args.out}_fates.csv"
    with open(fates_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "fate", "steps_used"])
        starts = [(x1, x2) for x1 in np.linspace(0.0, args.x1_max, args.grid).tolist()
                  for x2 in np.linspace(0.0, args.x2_max, args.grid).tolist()]
        for (x1, x2), report in zip(starts, classify_fate(rates, np.array(starts).reshape(-1, 2))):
            writer.writerow([repr(x1), repr(x2), report.outcome.value, report.steps_used])
    print(f"wrote {fates_path}")

    boundary_path = f"{args.out}_boundary.csv"
    grid = np.linspace(0.0, args.x1_max, args.boundary_points)
    with open(boundary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2_low", "x2_high", "width", "flagged"])
        for sample in basin_boundary(rates, grid, tol=args.tol):
            writer.writerow(
                [repr(sample.x1), repr(sample.x2_low), repr(sample.x2_high), repr(sample.width), str(sample.flagged).lower()]
            )
    print(f"wrote {boundary_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
