"""Command-line front end: trace scenes, fit path models, predict channels
and run the displacement/capacity experiments on JSON scene files."""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import IO, Iterator

import numpy as np

from . import fileio
from .capacity import LinkBudget, RateModel
from .experiments import DisplacementSpec, capacity_sweep, displacement_experiment
from .channel import path_distances, phasor_sum
from .fit_dp import fit_rm_dp
from .fit_rt import fit_rm_rt
from .paths import ReferencePair, angles_to_image
from .tracer import to_pwa, trace_paths

_DEFAULT_ROTATIONS_DEG = [float(d) for d in range(-180, 180, 15)]


def _parse_vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z — got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[IO[str]]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fp:
            yield fp


def _load_scene(path: str):
    with open(path) as fp:
        return fileio.load_scene(fp)


def _cmd_trace(args: argparse.Namespace) -> int:
    scene = _load_scene(args.scene)
    ref = ReferencePair(tx_ref=args.tx, rx_ref=args.rx)
    paths = trace_paths(scene, args.tx, args.rx, args.bounces)
    export = fileio.PathExport(
        tx=args.tx,
        rx=args.rx,
        f0_hz=scene.carrier_freq,
        paths=tuple((to_pwa(p, ref), p.route) for p in paths),
    )
    with _open_out(args.out) as fp:
        fileio.save_paths(export, fp)
    print(f"traced {len(paths)} path(s)", file=sys.stderr)
    return 0


def _cmd_fit_rt(args: argparse.Namespace) -> int:
    with open(args.paths) as fp:
        export = fileio.load_paths(fp)
    ref = export.reference
    fitted = []
    for traced in export.traced():
        rm = fit_rm_rt(traced, ref)
        fitted.append((rm, angles_to_image(rm, ref)))
    out = fileio.RmExport(ref=ref, f0_hz=export.f0_hz, paths=tuple(fitted))
    with _open_out(args.out) as fp:
        fileio.save_rm(out, fp)
    return 0


def _cmd_fit_dp(args: argparse.Namespace) -> int:
    with open(args.ref) as fp:
        ref_export = fileio.load_paths(fp)
    displaced = []
    for name in args.disp:
        with open(name) as fp:
            displaced.append(fileio.load_paths(fp).observation())
    ref = ref_export.reference
    fitted = fit_rm_dp(ref_export.observation(), displaced, ref)
    out = fileio.RmExport(
        ref=ref,
        f0_hz=ref_export.f0_hz,
        paths=tuple((rm, angles_to_image(rm, ref)) for rm in fitted),
    )
    with _open_out(args.out) as fp:
        fileio.save_rm(out, fp)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    with open(args.rm) as fp:
        export = fileio.load_rm(fp)
    paths = [path for path, _ in export.paths]
    model = "rm_image" if args.model == "rm" else args.model
    dists = path_distances(args.rx, args.tx, paths, export.ref, model)
    total = complex(
        phasor_sum(
            [p.gain for p in paths],
            [p.delay for p in paths],
            dists,
            args.freq,
            export.f0_hz,
        )
    )
    print(f"{total.real:.17g}{total.imag:+.17g}j")
    return 0


def _load_config(path: str) -> dict:
    import json

    with open(path) as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict):
        raise ValueError("experiment config must be a JSON object")
    return doc


def _config_ref(cfg: dict) -> ReferencePair:
    return ReferencePair(
        tx_ref=np.array(cfg["tx_ref"], dtype=float),
        rx_ref=np.array(cfg["rx_ref"], dtype=float),
    )


# Experiment config keys -> (library parameter, type). Only the keys a config
# sets are passed on, so the defaults are those of the library signatures.
_SPEC_KEYS = {
    "distances_m": ("distances", tuple),
    "directions_per_distance": ("directions_per_distance", int),
    "rng_seed": ("rng_seed", int),
}
_DISPLACEMENT_KEYS = {
    "bandwidth_hz": ("bandwidth", float),
    "n_freq": ("n_freq", int),
    "models": ("models", tuple),
    "max_bounces": ("max_bounces", int),
}
_BUDGET_KEYS = {key: (key, float) for key in ("tx_power_dbm", "bandwidth_hz", "noise_figure_db")}
_RATE_KEYS = {"alpha": ("alpha", float), "se_max_bpshz": ("se_max", float)}
_SWEEP_KEYS = {
    **{key: (key, int) for key in ("rows", "cols", "n_freq", "max_bounces", "rng_seed")},
    "spacing_m": ("spacing", float),
    "models": ("models", tuple),
    "dp_displacements_m": ("dp_distances", tuple),
}


def _config_kwargs(cfg: dict, keys: dict) -> dict:
    return {param: kind(cfg[key]) for key, (param, kind) in keys.items() if key in cfg}


def _cmd_exp_displacement(args: argparse.Namespace) -> int:
    scene = _load_scene(args.scene)
    cfg = _load_config(args.config)
    records = displacement_experiment(
        scene,
        _config_ref(cfg),
        DisplacementSpec(**_config_kwargs(cfg, _SPEC_KEYS)),
        **_config_kwargs(cfg, _DISPLACEMENT_KEYS),
    )
    with _open_out(args.out) as fp:
        fileio.write_error_csv(records, fp)
    return 0


def _cmd_exp_capacity(args: argparse.Namespace) -> int:
    scene = _load_scene(args.scene)
    cfg = _load_config(args.config)
    rotations = [
        math.radians(d) for d in cfg.get("rotations_deg", _DEFAULT_ROTATIONS_DEG)
    ]
    cells, counts = capacity_sweep(
        scene,
        _config_ref(cfg),
        rotations,
        LinkBudget(**_config_kwargs(cfg, _BUDGET_KEYS)),
        RateModel(**_config_kwargs(cfg, _RATE_KEYS)),
        **_config_kwargs(cfg, _SWEEP_KEYS),
    )
    with _open_out(args.out) as fp:
        fileio.write_capacity_csv(cells, fp)
    for name, count in counts.items():
        print(f"trace count {name}: {count}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectmimo",
        description="specular channel tracing, reflection-model fitting and "
        "MIMO capacity experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace specular paths through a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--tx", required=True, type=_parse_vec)
    p.add_argument("--rx", required=True, type=_parse_vec)
    p.add_argument("--bounces", type=int, default=2)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_trace)

    fit = sub.add_parser("fit", help="fit reflection-model parameters")
    fit_sub = fit.add_subparsers(dest="method", required=True)
    p = fit_sub.add_parser("rt", help="fit from traced routes")
    p.add_argument("--paths", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_fit_rt)
    p = fit_sub.add_parser("dp", help="fit from displaced-pair observations")
    p.add_argument("--ref", required=True)
    p.add_argument("--disp", required=True, nargs="+")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_fit_dp)

    p = sub.add_parser("predict", help="predict the scalar channel at a point")
    p.add_argument("--rm", required=True)
    p.add_argument("--tx", required=True, type=_parse_vec)
    p.add_argument("--rx", required=True, type=_parse_vec)
    p.add_argument("--freq", required=True, type=float)
    p.add_argument("--model", choices=("constant", "pwa", "rm"), default="rm")
    p.set_defaults(func=_cmd_predict)

    exp = sub.add_parser("experiment", help="run a canned experiment")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)
    p = exp_sub.add_parser("displacement", help="displacement error experiment")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_exp_displacement)
    p = exp_sub.add_parser("capacity", help="capacity rotation sweep")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_exp_capacity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
