"""End-to-end acceptance checks, one test per delivered guarantee.

Each check prints a PASS/FAIL scorecard line (bypassing pytest capture, so a
plain ``pytest`` run leaves a readable record) and then asserts. Tolerances
are part of the package contract; do not loosen them here.
"""

import functools
import math
import time

import numpy as np

from scenelib import random_scene, retrace_length, rm_distance_angles

from reflectmimo import (
    LinkBudget,
    PairObservation,
    ReferencePair,
    Scene,
    angles_to_image,
    capacity_sweep,
    displacement_experiment,
    fit_rm_rt,
    make_facet,
    mimo_matrix,
    pwa_distance,
    rayleigh_distance,
    rho,
    rm_distance_image,
    singular_values,
    solve_gamma_s,
    to_pwa,
    trace_paths,
    upa,
)
from reflectmimo.geometry import spherical_dir
from reflectmimo.paths import C_LIGHT, align_rotation

F0 = 140e9
WAVELENGTH = C_LIGHT / F0


def report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} acceptance {num:02d}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


@functools.lru_cache(maxsize=None)
def corpus():
    """20 random specular scenes traced to 2 bounces, with route fits."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(20):
        scene, ref = random_scene(rng)
        traced = trace_paths(scene, ref.tx_ref, ref.rx_ref, 2)
        fits = [fit_rm_rt(p, ref) for p in traced]
        out.append((scene, ref, traced, fits))
    return out


def corridor_scene(length: float):
    """Ground plane plus one side wall; stable 3-path set at one bounce."""
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


@functools.lru_cache(maxsize=None)
def blocked_los_sweep():
    """8x8/8x8 sweep over 24 rotations in a wall+blocker scene (no LOS)."""
    wall = make_facet((12.5, 5.0, 2.49), (0.0, -1.0, 0.0), half_u=25.0, half_v=3.0)
    blocker = make_facet((12.0, 0.0, 2.49), (-1.0, 0.0, 0.0), half_u=2.0, half_v=2.5)
    scene = Scene(facets=(wall, blocker), carrier_freq=F0)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 0.0, 2.49]), rx_ref=np.array([25.0, 0.0, 2.49])
    )
    rotations = [math.radians(d) for d in range(-180, 180, 15)]
    t0 = time.perf_counter()
    cells, counts = capacity_sweep(
        scene, ref, rotations, LinkBudget(),
        models=("exhaustive", "rm_rt", "rm_dp", "pwa"), n_freq=10,
    )
    elapsed = time.perf_counter() - t0
    return cells, counts, elapsed, len(rotations)


def test_01_reflection_model_distance_is_exact(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = skipped = 0
    for scene, ref, traced, fits in corpus():
        images = [angles_to_image(rm, ref) for rm in fits]
        for _ in range(100):
            tx = ref.tx_ref + rng.uniform(0.0, 1.0) * unit(rng)
            rx = ref.rx_ref + rng.uniform(0.0, 1.0) * unit(rng)
            for path, img in zip(traced, images):
                truth = retrace_length(scene, path, tx, rx)
                checked += 1
                if truth is None:  # reflection point left its facet segment
                    skipped += 1
                    continue
                worst = max(worst, abs(rm_distance_image(rx, tx, img) - truth) / truth)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and skipped <= checked // 50 and elapsed < 10.0
    report(capsys, 1, ok,
           "reflection-model distance vs re-traced routes: worst rel err "
           f"{worst:.2e} over {checked - skipped} samples "
           f"({skipped} skipped), {elapsed:.1f} s")


def test_02_plane_wave_error_is_second_order(capsys):
    rng = np.random.default_rng(202)
    ratios = []
    for scene, ref, traced, _ in corpus():
        pwa0 = [to_pwa(p, ref) for p in traced]
        dir_tx, dir_rx = unit(rng), unit(rng)
        mean_err = {}
        for delta in (1e-3, 2e-3, 4e-3):
            tx = ref.tx_ref + delta * dir_tx
            rx = ref.rx_ref + delta * dir_rx
            errs = []
            for path, w in zip(traced, pwa0):
                truth = retrace_length(scene, path, tx, rx)
                if truth is not None:
                    errs.append(abs(pwa_distance(rx, tx, ref, w) - truth))
            mean_err[delta] = float(np.mean(errs))
        ratios.append(mean_err[2e-3] / mean_err[1e-3])
        ratios.append(mean_err[4e-3] / mean_err[2e-3])
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(capsys, 2, ok,
           "plane-wave error doubles displacement -> x4 error: ratios in "
           f"[{min(ratios):.3f}, {max(ratios):.3f}] across {len(ratios) // 2} scenes")


def test_03_displaced_pair_fit_matches_route_fit(capsys):
    # Noiseless two-pair observations (1 cm and 2 cm) generated from the
    # fitted model itself; compact scenes keep the squared-distance algebra
    # clear of float cancellation.
    rng = np.random.default_rng(11)
    total = flagged = good = 0
    for _ in range(20):
        scene, ref = random_scene(rng, sep_range=(10.0, 30.0))
        traced = trace_paths(scene, ref.tx_ref, ref.rx_ref, 2)
        pwa0 = tuple(to_pwa(p, ref) for p in traced)
        fits = [fit_rm_rt(p, ref) for p in traced]
        ref_obs = PairObservation(tx=ref.tx_ref, rx=ref.rx_ref, paths=pwa0)
        displaced = []
        for dist in (0.01, 0.02):
            txd = ref.tx_ref + dist * unit(rng)
            rxd = ref.rx_ref + dist * unit(rng)
            paths = tuple(
                type(w)(
                    gain=w.gain,
                    delay=rm_distance_angles(rxd, txd, ref, rm) / C_LIGHT,
                    aoa_az=w.aoa_az, aoa_el=w.aoa_el,
                    aod_az=w.aod_az, aod_el=w.aod_el,
                )
                for w, rm in zip(pwa0, fits)
            )
            displaced.append(PairObservation(tx=txd, rx=rxd, paths=paths))
        for rm, sol in zip(fits, solve_gamma_s(ref_obs, displaced, ref)):
            total += 1
            if sol.s == 0:
                flagged += 1
                continue
            dgamma = abs((sol.gamma - rm.roll + math.pi) % (2 * math.pi) - math.pi)
            good += (sol.s == rm.s) and (dgamma <= 1e-6)
    rate = good / max(1, total - flagged)
    ok = rate >= 0.99 and flagged <= total // 10
    report(capsys, 3, ok,
           "two displaced pairs recover roll and parity: "
           f"{good}/{total - flagged} paths ({100 * rate:.1f}%), {flagged} flagged")


def test_04_channel_error_separation(capsys):
    from reflectmimo import DisplacementSpec

    scene, ref = corridor_scene(2000.0)
    spec = DisplacementSpec(directions_per_distance=10, rng_seed=3)
    result = displacement_experiment(scene, ref, spec, n_freq=10, max_bounces=1)
    med = {
        m: {d: float(np.median(result.epsilon[result.distances == d, :, k]))
            for d in spec.distances}
        for k, m in enumerate(result.models)
    }

    separated = all(
        med["rm_rt"][d] < med["pwa"][d] and med["rm_dp"][d] < med["pwa"][d]
        for d in spec.distances
    )
    ok = (
        med["rm_rt"][1.0] <= 1e-6
        and med["rm_dp"][1.0] <= 1e-6
        and med["pwa"][1.0] >= 1e-1
        and separated
    )
    report(capsys, 4, ok,
           "median channel error at 1 m: "
           f"route fit {med['rm_rt'][1.0]:.1e}, pair fit {med['rm_dp'][1.0]:.1e} "
           f"(<= 1e-6), plane-wave {med['pwa'][1.0]:.1e} (>= 1e-1); "
           "reflection model below plane-wave at every distance")


def test_05_capacity_sweep_tracks_exhaustive(capsys):
    cells, _, elapsed, n_rot = blocked_los_sweep()
    table = {}
    for c in cells:
        table.setdefault(c.rotation, {})[c.model] = c.se_avg
    worst = {"rm_rt": 0.0, "rm_dp": 0.0}
    under = 0
    for row in table.values():
        ex = row["exhaustive"]
        for name in worst:
            worst[name] = max(worst[name], abs(row[name] - ex) / ex)
        under += row["pwa"] < ex
    ok = (
        len(table) == n_rot
        and worst["rm_rt"] <= 0.05
        and worst["rm_dp"] <= 0.05
        and under >= 0.8 * n_rot
        and elapsed < 300.0
    )
    report(capsys, 5, ok,
           "8x8 blocked-LOS sweep: worst spectral-efficiency deviation "
           f"{100 * worst['rm_rt']:.2f}% (route fit) / "
           f"{100 * worst['rm_dp']:.2f}% (pair fit) <= 5%, plane-wave "
           f"underestimates at {under}/{n_rot} rotations, {elapsed:.0f} s")


def test_06_far_field_boundary_spot_value(capsys):
    d = rayleigh_distance(1.0, WAVELENGTH)
    ok = abs(d - 930.0) <= 0.01 * 930.0
    report(capsys, 6, ok, f"1 m aperture at 140 GHz -> {d:.1f} m (930 m +- 1%)")


def test_07_rate_model_spot_values(capsys):
    ok = rho(1.0) == 0.6 and rho(255.0) == 4.8
    report(capsys, 7, ok, f"rho(1) = {rho(1.0)}, rho(255) = {rho(255.0)} (exact)")


def test_08_distance_gradients_are_arrival_departure_directions(capsys):
    step = 1e-6
    worst = 0.0
    for _, ref, traced, fits in corpus():
        for rm in fits:
            img = angles_to_image(rm, ref)
            for endpoint, direction in (
                ("rx", spherical_dir(rm.aoa_az, rm.aoa_el)),
                ("tx", spherical_dir(rm.aod_az, rm.aod_el)),
            ):
                grad = np.empty(3)
                for i in range(3):
                    e = np.zeros(3)
                    e[i] = step
                    if endpoint == "rx":
                        hi = rm_distance_image(ref.rx_ref + e, ref.tx_ref, img)
                        lo = rm_distance_image(ref.rx_ref - e, ref.tx_ref, img)
                    else:
                        hi = rm_distance_image(ref.rx_ref, ref.tx_ref + e, img)
                        lo = rm_distance_image(ref.rx_ref, ref.tx_ref - e, img)
                    grad[i] = (hi - lo) / (2.0 * step)
                worst = max(worst, float(np.max(np.abs(grad + direction))))
    ok = worst <= 1e-5
    report(capsys, 8, ok,
           "finite-difference distance gradients equal minus the "
           f"arrival/departure directions: worst dev {worst:.1e} (<= 1e-5)")


def test_09_tuned_broadside_los_link_is_full_rank(capsys):
    range_m, d_t = 50.0, 0.1
    d_r = WAVELENGTH * range_m / (2.0 * d_t)
    scene = Scene(facets=(), carrier_freq=F0)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 0.0, 2.0]), rx_ref=np.array([range_m, 0.0, 2.0])
    )
    tx_array = upa(2, 1, d_t, ref.tx_ref)
    rx_array = upa(2, 1, d_r, ref.rx_ref)
    h = mimo_matrix(tx_array, rx_array, "exhaustive", F0, F0, ref=ref, scene=scene)
    s = singular_values(h)
    ratio = float(s[0] / s[1])
    ok = ratio <= 1.001
    report(capsys, 9, ok,
           f"2x2 broadside LOS with spacing product lambda*R/2: s1/s2 = {ratio:.6f}")


def test_10_image_determinant_and_parity_law(capsys):
    corner = Scene(facets=(
        make_facet((0.0, 2.0, 2.0), (1.0, 0.0, 0.0)),
        make_facet((2.0, 0.0, 2.0), (0.0, 1.0, 0.0)),
        make_facet((2.0, 2.0, 0.0), (0.0, 0.0, 1.0)),
    ), carrier_freq=F0)
    rng = np.random.default_rng(5)
    jobs = []
    for _ in range(5):  # corner retroreflector: guarantees 0..3 bounces
        tx = rng.uniform(0.5, 4.0, size=3)
        rx = rng.uniform(0.5, 4.0, size=3)
        ref = ReferencePair(tx_ref=tx, rx_ref=rx)
        for p in trace_paths(corner, tx, rx, 3):
            jobs.append((ref, p, fit_rm_rt(p, ref)))
    for _, ref, traced, fits in corpus():
        jobs.extend((ref, p, rm) for p, rm in zip(traced, fits))

    seen = set()
    worst_det = worst_w = 0.0
    for ref, path, rm in jobs:
        n_refl = len(path.route.vertices) - 2
        seen.add(n_refl)
        img = angles_to_image(rm, ref)
        worst_det = max(
            worst_det, abs(float(np.linalg.det(img.U)) - (-1.0) ** n_refl)
        )
        assert rm.s in (-1, 1)
        w = -align_rotation(rm.aoa_az, rm.aoa_el) @ img.U \
            @ align_rotation(rm.aod_az, rm.aod_el).T
        worst_w = max(worst_w, abs(float(np.linalg.det(w)) - rm.s))
    ok = seen == {0, 1, 2, 3} and worst_det <= 1e-12 and worst_w <= 1e-9
    report(capsys, 10, ok,
           f"det(U) = (-1)^bounces over {len(jobs)} routes (0..3 bounces), "
           f"worst dev {worst_det:.1e}; parity = det of the roll/mirror factor, "
           f"worst dev {worst_w:.1e}")


def test_11_trace_count_advantage(capsys):
    _, counts, _, n_rot = blocked_los_sweep()
    exhaustive = counts["exhaustive"]
    ratio = exhaustive / max(counts["rm_rt"], counts["rm_dp"])
    ok = (
        exhaustive == 64 * 64 * n_rot
        and counts["rm_rt"] == 1
        and counts["rm_dp"] == 3
        and ratio >= 1e4
    )
    report(capsys, 11, ok,
           f"exhaustive sweep traces {exhaustive} pairs vs 1 (route fit) / "
           f"3 (pair fit); advantage {ratio:.0f}x >= 1e4")
