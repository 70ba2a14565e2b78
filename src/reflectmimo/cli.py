"""Command-line front end: trace scenes, fit path models, predict channels
and run the displacement/capacity experiments on JSON scene files.

``displacement_from_config`` and ``capacity_from_config`` map a JSON
experiment config to the library call, rejecting a key the config kind does
not hold. ``experiment displacement`` writes the per-sample error table and
prints the median error by model and displacement on stderr; ``experiment
capacity`` writes the sweep table and prints each model's trace count and
worst relative deviation of the band-averaged rate from ``exhaustive``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import replace
from typing import IO, Iterator

import numpy as np

from . import fileio
from .capacity import LinkBudget, RateModel
from .experiments import (
    DisplacementResult,
    DisplacementSpec,
    SweepCell,
    capacity_sweep,
    displacement_experiment,
)
from .channel import mimo_matrix
from .fit_dp import fit_rm_dp
from .fit_rt import fit_rm_rt
from .paths import ReferencePair, RmPath
from .tracer import Scene, to_pwa, trace_paths

_DEFAULT_ROTATIONS_DEG = [float(d) for d in range(-180, 180, 15)]


def _parse_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _parse_vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z — got {text!r}")
    return np.array([_parse_float(p) for p in parts])


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
    fitted = tuple((fit_rm_rt(traced, ref), traced.route) for traced in export.traced())
    with _open_out(args.out) as fp:
        fileio.save_paths(replace(export, paths=fitted), fp)
    return 0


def _cmd_fit_dp(args: argparse.Namespace) -> int:
    with open(args.ref) as fp:
        ref_export = fileio.load_paths(fp)
    displaced = []
    for name in args.disp:
        with open(name) as fp:
            displaced.append(fileio.load_paths(fp).observation())
    # fit_rm_dp reorders and drops paths: a fitted path has no route to keep
    fitted = fit_rm_dp(ref_export.observation(), displaced, ref_export.reference)
    with _open_out(args.out) as fp:
        fileio.save_paths(replace(ref_export, paths=tuple((p, None) for p in fitted)), fp)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    with open(args.rm) as fp:
        export = fileio.load_paths(fp)
    ref = export.reference  # checked for a file without paths too
    paths = [p for p, _ in export.paths]
    unfitted = [k for k, p in enumerate(paths) if not isinstance(p, RmPath)]
    if args.model == "rm" and unfitted:
        raise ValueError(
            f"path {unfitted[0]} has no roll_deg and s: --model rm needs a fitted path file"
        )
    model = "rm_image" if args.model == "rm" else args.model
    total = 0j  # no paths, no channel
    if paths:
        h = mimo_matrix(
            args.tx[None], args.rx[None], model, args.freq, export.f0_hz,
            paths=paths, ref=ref,
        )
        total = complex(h[0, 0])
    print(f"{total.real:.17g}{total.imag:+.17g}j")
    return 0


def _load_config(path: str) -> dict:
    with open(path) as fp:
        return fileio._document(fp)


_REF_KEYS = ("tx_ref", "rx_ref")


def _config_ref(cfg: dict) -> ReferencePair:
    return ReferencePair(**{key: fileio._number(cfg, key, 1) for key in _REF_KEYS})


def _model_names(cfg: dict) -> tuple[str, ...]:
    names = cfg["models"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ValueError(f"'models' must be a list of model names, got {names!r}")
    return tuple(names)


# Experiment config keys -> (library parameter, ndim of fileio._number, or
# None for the model names). Only the keys a config sets are passed on, so
# the defaults are those of the library signatures.
_SPEC_KEYS = {
    "distances_m": ("distances", 1),
    "directions_per_distance": ("directions_per_distance", int),
    "rng_seed": ("rng_seed", int),
}
_DISPLACEMENT_KEYS = {
    "bandwidth_hz": ("bandwidth", 0),
    "n_freq": ("n_freq", int),
    "models": ("models", None),
    "max_bounces": ("max_bounces", int),
}
_BUDGET_KEYS = {key: (key, 0) for key in ("tx_power_dbm", "bandwidth_hz", "noise_figure_db")}
_RATE_KEYS = {"alpha": ("alpha", 0), "se_max_bpshz": ("se_max", 0)}
_SWEEP_KEYS = {
    **{key: (key, int) for key in ("rows", "cols", "n_freq", "max_bounces", "rng_seed")},
    "spacing_m": ("spacing", 0),
    "models": ("models", None),
    "dp_displacements_m": ("dp_distances", 1),
}


def _config_kwargs(cfg: dict, keys: dict) -> dict:
    """The library arguments for the keys cfg sets."""
    return {
        param: _model_names(cfg) if ndim is None else fileio._number(cfg, key, ndim)
        for key, (param, ndim) in keys.items()
        if key in cfg
    }


def displacement_from_config(scene: Scene, cfg: dict) -> DisplacementResult:
    """displacement_experiment on scene with the parameters an experiment
    config sets."""
    keys = _REF_KEYS + (*_SPEC_KEYS, *_DISPLACEMENT_KEYS)
    fileio._check_keys(cfg, keys, "a displacement config")
    return displacement_experiment(
        scene,
        _config_ref(cfg),
        DisplacementSpec(**_config_kwargs(cfg, _SPEC_KEYS)),
        **_config_kwargs(cfg, _DISPLACEMENT_KEYS),
    )


def capacity_from_config(scene: Scene, cfg: dict) -> tuple[list[SweepCell], dict[str, int]]:
    """capacity_sweep on scene with the parameters an experiment config sets;
    the rotations default to a full turn in 15 degree steps."""
    keys = _REF_KEYS + ("rotations_deg", *_BUDGET_KEYS, *_RATE_KEYS, *_SWEEP_KEYS)
    fileio._check_keys(cfg, keys, "a capacity config")
    degrees = _DEFAULT_ROTATIONS_DEG
    if "rotations_deg" in cfg:
        degrees = fileio._number(cfg, "rotations_deg", 1)
    rotations = [math.radians(d) for d in degrees]
    return capacity_sweep(
        scene,
        _config_ref(cfg),
        rotations,
        LinkBudget(**_config_kwargs(cfg, _BUDGET_KEYS)),
        RateModel(**_config_kwargs(cfg, _RATE_KEYS)),
        **_config_kwargs(cfg, _SWEEP_KEYS),
    )


def _cmd_exp_displacement(args: argparse.Namespace) -> int:
    result = displacement_from_config(_load_scene(args.scene), _load_config(args.config))
    with _open_out(args.out) as fp:
        fileio.write_error_csv(result, fp)
    lines = ["median epsilon by displacement"]
    lines.append("distance_m " + " ".join(f"{m:>10s}" for m in result.models))
    for dist in np.unique(result.distances):
        medians = np.median(result.epsilon[result.distances == dist], axis=(0, 1))
        lines.append(f"{dist:10.3f} " + " ".join(f"{m:10.2e}" for m in medians))
    print("\n".join(lines), file=sys.stderr)
    return 0


def _relative(x: float, ref: float) -> float:
    """|x - ref| / ref; 0 or inf where ref is 0."""
    if ref == 0.0:
        return 0.0 if x == 0.0 else math.inf
    return abs(x - ref) / ref


def _cmd_exp_capacity(args: argparse.Namespace) -> int:
    cells, counts = capacity_from_config(_load_scene(args.scene), _load_config(args.config))
    with _open_out(args.out) as fp:
        fileio.write_capacity_csv(cells, fp)
    for name, count in counts.items():
        print(f"trace count {name}: {count}", file=sys.stderr)
    se: dict[float, dict[str, float]] = {}
    for c in cells:
        se.setdefault(c.rotation, {})[c.model] = c.se_avg
    if "exhaustive" in counts:
        for name in counts:
            if name != "exhaustive":
                worst = max(_relative(row[name], row["exhaustive"]) for row in se.values())
                print(f"worst |SE_{name} - SE_exhaustive| / SE_exhaustive: {100 * worst:.2f}%",
                      file=sys.stderr)
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
    p.add_argument("--freq", required=True, type=_parse_float)
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
    """Run the command argv names. The error contract: every loader returns,
    or raises a ValueError, or a KeyError naming a key the file lacks, and
    main prints either as an ``error:`` line on stderr and returns 2, so a
    run exits 0 or 2, never 1 (argparse exits 2 on a malformed command line)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
