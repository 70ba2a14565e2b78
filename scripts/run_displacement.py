#!/usr/bin/env python3
"""Run the displacement error experiment and print the median-error table.

Fits every model once at the reference pair of the config, displaces both
endpoints over the distance grid, and scores the normalized channel error
against re-traced ground truth. Writes the raw per-sample table as CSV.
"""

import argparse
import json

import numpy as np

from reflectmimo import fileio
from reflectmimo.cli import displacement_from_config


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scene", default="demo/corridor.json")
    parser.add_argument("--config", default="demo/displacement_config.json")
    parser.add_argument("--out", default="demo/displacement_errors.csv")
    args = parser.parse_args()

    with open(args.scene) as fp:
        scene = fileio.load_scene(fp)
    with open(args.config) as fp:
        cfg = json.load(fp)
    records = displacement_from_config(scene, cfg)
    with open(args.out, "w") as fp:
        fileio.write_error_csv(records, fp)

    models = tuple(dict.fromkeys(r.model for r in records))
    print(f"median epsilon by displacement ({args.out} has the raw table)")
    print("distance_m " + " ".join(f"{m:>10s}" for m in models))
    for dist in dict.fromkeys(r.distance for r in records):
        row = []
        for model in models:
            eps = [r.epsilon for r in records if r.model == model and r.distance == dist]
            row.append(float(np.median(eps)))
        print(f"{dist:10.3f} " + " ".join(f"{v:10.2e}" for v in row))


if __name__ == "__main__":
    main()
