#!/usr/bin/env python3
"""Run the capacity rotation sweep and print spectral efficiency per model.

Rotates the transmit array about the vertical, evaluates the band-averaged
spectral efficiency of every model at each angle, and reports how far the
cheap extrapolation models land from exhaustive per-element re-tracing,
together with the number of path traces each one consumed.
"""

import argparse
import json
import math

from reflectmimo import fileio
from reflectmimo.cli import capacity_from_config


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scene", default="demo/blocked.json")
    parser.add_argument("--config", default="demo/capacity_config.json")
    parser.add_argument("--out", default="demo/capacity_sweep.csv")
    args = parser.parse_args()

    with open(args.scene) as fp:
        scene = fileio.load_scene(fp)
    with open(args.config) as fp:
        cfg = json.load(fp)
    cells, counts = capacity_from_config(scene, cfg)
    with open(args.out, "w") as fp:
        fileio.write_capacity_csv(cells, fp)

    table = {}
    for c in cells:
        table.setdefault(c.rotation, {})[c.model] = c.se_avg
    models = tuple(counts)
    print(f"band-averaged SE, bit/s/Hz ({args.out} has the full table)")
    print("rot_deg " + " ".join(f"{m:>10s}" for m in models))
    for rot in sorted(table):
        row = table[rot]
        print(f"{math.degrees(rot):7.1f} " + " ".join(f"{row[m]:10.3f}" for m in models))
    if "exhaustive" in models:
        for name in models:
            if name == "exhaustive":
                continue
            devs = [
                abs(row[name] - row["exhaustive"]) / row["exhaustive"]
                for row in table.values()
            ]
            print(f"worst |SE_{name} - SE_exhaustive| / SE_exhaustive: "
                  f"{100 * max(devs):.2f}%")
    print("path traces used:", " ".join(f"{k}={v}" for k, v in counts.items()))


if __name__ == "__main__":
    main()
