#!/usr/bin/env python3
"""Write the two demo scenes plus matching experiment configs.

* corridor.json     2 km ground+wall corridor; displacement error experiment
* blocked.json      25 m wall-bounce link with the LOS shadowed; capacity sweep

The configs feed the `reflectmimo experiment displacement` and
`reflectmimo experiment capacity` commands, which write demo/*.csv.
"""

import argparse
import json
import pathlib

import numpy as np

from reflectmimo import ReferencePair, Scene, fileio, make_facet

F0 = 140e9


def corridor(length=2000.0):
    ground = make_facet(
        (length / 2.0, 0.0, 0.0), (0.0, 0.0, 1.0),
        half_u=length / 2.0 + 100.0, half_v=200.0,
    )
    wall = make_facet(
        (length / 2.0, 6.0, 5.0), (0.0, -1.0, 0.0),
        half_u=length / 2.0 + 100.0, half_v=200.0,
    )
    scene = Scene(facets=(ground, wall), carrier_freq=F0)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 0.0, 5.0]), rx_ref=np.array([length, 0.0, 5.0])
    )
    return scene, ref


def blocked():
    wall = make_facet((12.5, 5.0, 2.49), (0.0, -1.0, 0.0), half_u=25.0, half_v=3.0)
    blocker = make_facet((12.0, 0.0, 2.49), (-1.0, 0.0, 0.0), half_u=2.0, half_v=2.5)
    scene = Scene(facets=(wall, blocker), carrier_freq=F0)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 0.0, 2.49]), rx_ref=np.array([25.0, 0.0, 2.49])
    )
    return scene, ref


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo")
    args = parser.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scene, ref = corridor()
    with open(out / "corridor.json", "w") as fp:
        fileio.save_scene(scene, fp)
    disp_cfg = {
        "tx_ref": list(ref.tx_ref),
        "rx_ref": list(ref.rx_ref),
        "distances_m": [0.01, 0.02, 0.05, 0.10, 0.50, 1.00],
        "directions_per_distance": 10,
        "rng_seed": 3,
        "n_freq": 10,
        "max_bounces": 1,
    }
    (out / "displacement_config.json").write_text(json.dumps(disp_cfg, indent=2) + "\n")

    scene, ref = blocked()
    with open(out / "blocked.json", "w") as fp:
        fileio.save_scene(scene, fp)
    cap_cfg = {
        "tx_ref": list(ref.tx_ref),
        "rx_ref": list(ref.rx_ref),
        "rotations_deg": [float(d) for d in range(-180, 180, 15)],
        "rows": 8,
        "cols": 8,
        "spacing_m": 0.14,
        "models": ["exhaustive", "rm_rt", "rm_dp", "pwa"],
        "n_freq": 10,
        "max_bounces": 2,
        "rng_seed": 0,
    }
    (out / "capacity_config.json").write_text(json.dumps(cap_cfg, indent=2) + "\n")

    for name in sorted(p.name for p in out.iterdir()):
        print(out / name)


if __name__ == "__main__":
    main()
