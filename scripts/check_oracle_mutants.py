#!/usr/bin/env python3
"""Check that the tests catch faults in the tracer's unfolding, in the
reflection model's angle-to-image conversion, both through their oracles in
tests/scenelib.py, in the culls of the tracer's walk, through that
brute-force oracle and the walk's count pins in tests/test_tracer.py, in
the pair tracer's unfolding, through its agreement with the scalar one in
tests/test_tracer.py, in the stream-rate kernel, through the closed-form
and rho-loop checks of tests/test_capacity.py, in the one check of a point,
through the table of every point entry in tests/test_points.py, in the one
reader of a file's numbers, through the table of every file key in
tests/test_file_keys.py, in the check of a file's keys, through its
unknown-key cases there, in the link budget's power range, through its
out-of-range budgets there, in the seam rule's tolerance, through the tiles
a micrometre apart in tests/test_tracer.py, in the unchecked
construction of the tracers' own records, through their public twins in
tests/test_records.py, in the route fit's straight-pass threshold, through
the grazing bounce in tests/test_fit_rt.py, in the rows of the
displacement result, through the per-sample loop in
tests/test_experiments.py, in the phasor kernel, through its expression form
in tests/scenelib.py and the scalar channels of tests/test_channel.py, in
the roll/parity fit, through the matrix form of its equation and the tie
between its two parity rules in tests/test_fit_dp.py, and in the distance
laws, through the line-of-sight identity of the reflection model and the
second-order error of the plane-wave one in tests/test_paths.py, in the
scene's carrier check, through the carriers of tests/test_tracer.py that
are not positive and finite, in the one check of a real number, through
the tables of real arguments in tests/test_geometry.py and
tests/test_fileio_cli.py, in the experiments' check of a
displaced-pair fit that keeps no path, through the ceiling scene of
tests/test_experiments.py, in the parity check of a fitted path file,
through its parity values in tests/test_fileio_cli.py, in predict's
check that --model rm reads fitted paths, through its case on a trace
output there, in the one check of a complex number and of a path record's
angles, through the gain and angle rows of the table of real arguments in
tests/test_geometry.py, in the tracers' delay bound, through the 1.2e150 m
line of sight in tests/test_tracer.py, in the one band rule and the
capacity sweep's check of it before any trace, through the bands of
tests/test_channel.py and tests/test_experiments.py, in the channel layer's
frequency check, through the generated table of float arguments in
tests/test_reals.py, in the band walk's rotor, through its midpoint
matrices in tests/test_channel.py, in the displacement error's reference
energy, through the per-sample loop in tests/test_experiments.py, in the
route fit's delay check, through its off-image delay in
tests/test_fit_rt.py, and in the displaced-pair fit's path matching, rank
threshold and unit-circle rule, through tests/test_fit_dp.py.

Copies src/, tests/, demo/ (the scenes some tests load), scripts/ (the demo
generator a test runs) and pyproject.toml into a temporary directory and,
one at a time, applies there each of forty-nine mutants, keyed by module
and top-level function or class:

* tracer._walk
  * pad:       the second crossing's rectangle not padded by _PAD,
  * side:      the second crossing's hit-side test inverted,
  * middle:    the second-crossing cull disabled (only the count pins see it),
  * faced:     the skip of a facet TX cannot meet first applied below the
               bounce limit too, cutting the subtrees under it;
* tracer._unfold
  * side:      the side test flipped (a one-sided facet reflects from its back),
  * slack:     a bounds slack of 0 in place of 1e-9,
  * halves:    the u and v half-extents swapped,
  * occlusion: the occluder loop dropped (no facet blocks a segment);
* tracer._inside, the pair tracer's bounds test
  * slack:     a bounds slack of 0 in place of 1e-9;
* tracer._unfold_batch
  * occlusion: the occluder loop dropped,
  * side:      the side test flipped;
* tracer._kept, the seam rule
  * seam:      a tolerance of 1e-6 of the route length in place of 1e-9;
* tracer.Scene
  * carrier:   the carrier's geometry._real call replaced by float() (a
               zero or NaN carrier passes);
* tracer._delay_of
  * bound:     the _MAX_DELAY comparison disabled (a traced delay past
               reach is returned);
* paths.angles_to_image
  * parity:    the mirror parity factor z_reflection(s) dropped,
  * roll:      the roll angle negated;
* paths.rm_distance_image
  * axis:      the z coordinate dropped from the distance;
* paths._pwa_terms
  * sign:      the transmit displacement reversed;
* paths.PwaPath
  * angles:    the angles' geometry._real call bypassed (True, a string
               or NaN is stored as given);
* capacity._triangle
  * streams:   row k of the stream table sums k + 1 streams at power P/k;
* capacity._stream_rates
  * clip:      the se_max cap on the per-stream rate dropped;
* capacity.LinkBudget
  * range:     the range test of the powers in watts disabled (an infinite
               or zero power passes);
* geometry.as_points
  * finite:    the coordinate test disabled (a NaN, infinite or past-reach
               point passes);
* geometry._real
  * bool:      the bool test dropped (True passes as 1.0),
  * range:     the bound test disabled (a zero or negative value passes);
* geometry._complex
  * bool:      the bool test dropped (True passes as 1+0j);
* geometry._record
  * order:     the fields zipped with the values in reversed order,
  * skip:      the last field left unset;
* fileio._number
  * nesting:   the nesting test disabled (a list passes where a number
               belongs, and a number where a list belongs);
* fileio._check_keys
  * unknown:   the key test disabled (a key the kind does not hold passes);
* fileio.load_paths
  * parity:    the -1/+1 test of a fitted path's s disabled (-1.4 loads as -1);
* cli._cmd_predict
  * fitted:    the check that --model rm reads only fitted paths disabled;
* fit_rt.fit_from_route
  * bend:      a straight-pass threshold of 1e-4 in place of _MIN_BEND (1e-12);
* experiments.DisplacementResult
  * order:     the rows read epsilon as (S, K, F), not (S, F, K);
* experiments._fit_estimators
  * empty:     the check of an rm_dp fit that keeps no path disabled;
* experiments.capacity_sweep
  * band:      the band check before any trace dropped;
* experiments.displacement_experiment
  * energy:    E0 over the strongest path only;
* channel.mimo_matrix
  * f:         f's geometry._real call replaced by float() (True, "1.0"
               or NaN passes);
* channel._band
  * twice:     the 2 f0 bound dropped (a band may reach 0 Hz);
* channel._Evaluator
  * rotor:     the band rotor's step scaled by 1 + 1e-9;
* channel.phasor_sum
  * reference: the tau f0 reference phase dropped,
  * sum:       the paths after the first not added to the total;
* fit_dp._roll_equation
  * sign:      the s = -1 row negated;
* fit_dp.solve_gamma_s
  * tie:       a tie tolerance of 1e-2 of tie_scale in place of 1e-6,
  * circle:    the unit-circle tie-break inverted;
* fit_dp._fit_roll
  * rank:      a rank threshold of 1e-6 in place of 1e-12;
* fit_dp.match_paths
  * elevation: the elevation gaps dropped from the matching cost,
  * wrap:      the azimuth gaps not wrapped;
* fit_rt.fit_rm_rt
  * delay:     an image-distance tolerance of 1e-3 in place of 1e-9.

For the unmutated copy it runs the full list

    pytest tests/test_points.py tests/test_reals.py tests/test_file_keys.py \
        tests/test_records.py tests/test_paths.py tests/test_tracer.py \
        tests/test_acceptance.py tests/test_capacity.py tests/test_fit_rt.py \
        tests/test_experiments.py tests/test_fit_dp.py tests/test_channel.py \
        tests/test_geometry.py tests/test_fileio_cli.py -q -x

against the copy, which must pass. Each mutant names the file of that list
that catches it, and runs that file alone with -x first: a failed test
there is a failed test of the full list, so the mutant is caught. Only
when no test of the file fails (it passes, or pytest stops otherwise, as
on an error while collecting it alone) does the full list run, and its
result decides. So every verdict is the full list's, at the cost of one
file for most mutants. A mutant survives when the full list passes; one
that only another file catches is reported, so that its named file can be
corrected. Nothing is written into the repository.

    python scripts/check_oracle_mutants.py

Exits 0 when every mutant fails a test, 1 when one survives, and 2 when the
check cannot run: a mutant no longer matches the source, or the unmutated
copy fails.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = [
    "tests/test_points.py",
    "tests/test_reals.py",
    "tests/test_file_keys.py",
    "tests/test_records.py",
    "tests/test_paths.py",
    "tests/test_tracer.py",
    "tests/test_acceptance.py",
    "tests/test_capacity.py",
    "tests/test_fit_rt.py",
    "tests/test_experiments.py",
    "tests/test_fit_dp.py",
    "tests/test_channel.py",
    "tests/test_geometry.py",
    "tests/test_fileio_cli.py",
]

# (module, function or class) -> {name: (text in it, replacement, occurrences,
# the test file that catches the mutant)}
TRACER, PATHS, KEYS = "tests/test_tracer.py", "tests/test_paths.py", "tests/test_file_keys.py"
REALS = "tests/test_reals.py"
CAPACITY, ACCEPTANCE = "tests/test_capacity.py", "tests/test_acceptance.py"
MUTANTS = {
    ("tracer", "_walk"): {
        "pad": ("* gap", "* gap - _PAD * gap", 2, TRACER),
        "side": ("(hp > 0.0) != (z_g > 0.0)", "(hp > 0.0) == (z_g > 0.0)", 1, TRACER),
        "middle": ("middle = True", "middle = False", 1, TRACER),
        "faced": ("if leaf and not reached:", "if not reached:", 1, TRACER),
    },
    ("tracer", "_unfold"): {
        "side": ("and denom >= 0.0:", "and denom <= 0.0:", 1, "tests/test_records.py"),
        "slack": ("+ _T_EPS:", "+ 0.0:", 2, TRACER),
        "halves": (
            "half_u, half_v, _ = flats[idx]",
            "half_v, half_u, _ = flats[idx]",
            1,
            "tests/test_records.py",
        ),
        "occlusion": ("for f in occluders:", "for f in ():", 1, TRACER),
    },
    ("tracer", "_inside"): {
        "slack": ("+ _T_EPS", "+ 0.0", 2, TRACER),
    },
    ("tracer", "_unfold_batch"): {
        "occlusion": ("for idx, f in enumerate(flats):", "for idx, f in ():", 1, TRACER),
        "side": ("crosses &= denom < 0.0", "crosses &= denom > 0.0", 1, TRACER),
    },
    ("tracer", "_kept"): {
        "seam": ("tol = 1e-9 *", "tol = 1e-6 *", 1, TRACER),
    },
    ("tracer", "Scene"): {
        "carrier": (
            '_real(self.carrier_freq, "carrier frequency must be positive, got ", above=0.0)',
            "float(self.carrier_freq)",
            1,
            TRACER,
        ),
    },
    ("tracer", "_delay_of"): {
        "bound": ("if ops.any(delay >= _MAX_DELAY):", "if False:", 1, TRACER),
    },
    ("paths", "angles_to_image"): {
        "parity": ("mirror = z_reflection(path.s) @ ", "mirror = ", 1, PATHS),
        "roll": ('rotation_matrix("x", path.roll)', 'rotation_matrix("x", -path.roll)', 1, PATHS),
    },
    ("paths", "rm_distance_image"): {
        "axis": ("for k in (1, 2):", "for k in (1,):", 1, PATHS),
    },
    ("paths", "_pwa_terms"): {
        "sign": (
            '(ref.tx_ref - as_points(tx, "tx", None))',
            '(as_points(tx, "tx", None) - ref.tx_ref)',
            1,
            PATHS,
        ),
    },
    ("paths", "PwaPath"): {
        "angles": (
            'value = _real(getattr(self, name), f"path {name} must be finite, got ")',
            "value = getattr(self, name)",
            1,
            "tests/test_geometry.py",
        ),
    },
    ("capacity", "_triangle"): {
        "streams": ("np.tril_indices(size)", "np.tril_indices(size, 1)", 1, CAPACITY),
    },
    ("capacity", "_stream_rates"): {
        "clip": ("np.minimum(snr, model.se_max, out=snr)", "snr", 1, CAPACITY),
    },
    ("capacity", "LinkBudget"): {
        "range": ("if not 0.0 < watts < math.inf:", "if False:", 1, KEYS),
    },
    ("geometry", "as_points"): {
        "finite": ("if not abs(pts).max() < _REACH:", "if False:", 1, "tests/test_points.py"),
    },
    ("geometry", "_real"): {
        "bool": (" and not isinstance(value, bool)", "", 1, KEYS),
        "range": ("real >= least and real > above", "True", 1, KEYS),
    },
    ("geometry", "_complex"): {
        "bool": (" and not isinstance(value, bool)", "", 1, "tests/test_geometry.py"),
    },
    ("geometry", "_record"): {
        "order": (
            "zip(cls.__match_args__, values)",
            "zip(reversed(cls.__match_args__), values)",
            1,
            KEYS,
        ),
        "skip": (
            "zip(cls.__match_args__, values)", "zip(cls.__match_args__[:-1], values)", 1, KEYS
        ),
    },
    ("fileio", "_number"): {
        "nesting": ("if x.ndim != depth:", "if False:", 1, KEYS),
    },
    ("fileio", "_check_keys"): {
        "unknown": ("if key not in keys:", "if False:", 1, KEYS),
    },
    ("fileio", "load_paths"): {
        "parity": ("if s not in (-1.0, 1.0):", "if False:", 1, "tests/test_fileio_cli.py"),
    },
    ("cli", "_cmd_predict"): {
        "fitted": (
            'if args.model == "rm" and unfitted:', "if False:", 1, "tests/test_fileio_cli.py"
        ),
    },
    ("fit_rt", "fit_from_route"): {
        "bend": ("bend_norms < _MIN_BEND", "bend_norms < 1e-4", 1, "tests/test_fit_rt.py"),
    },
    ("experiments", "DisplacementResult"): {
        "order": (
            "self.epsilon.reshape(-1)",
            "self.epsilon.swapaxes(1, 2).reshape(-1)",
            1,
            "tests/test_experiments.py",
        ),
    },
    ("experiments", "_fit_estimators"): {
        "empty": ('if not fitted["rm_dp"]:', "if False:", 1, "tests/test_experiments.py"),
    },
    ("experiments", "capacity_sweep"): {
        "band": ("_band(f0, budget.bandwidth_hz)", "None", 1, "tests/test_experiments.py"),
    },
    ("experiments", "displacement_experiment"): {
        "energy": (
            "energy0 = sum(abs(p.gain) ** 2 for p in traced0)",
            "energy0 = max(abs(p.gain) ** 2 for p in traced0)",
            1,
            "tests/test_experiments.py",
        ),
    },
    ("channel", "mimo_matrix"): {
        "f": ("f = _real(f, _F_MESSAGE, above=0.0)", "f = float(f)", 1, REALS),
    },
    ("channel", "_band"): {
        "twice": ("below=2.0 * f0", "below=math.inf", 1, "tests/test_channel.py"),
    },
    ("channel", "_Evaluator"): {
        "rotor": (
            "[d], step, self.f0)", "[d], step * (1 + 1e-9), self.f0)", 1, "tests/test_channel.py"
        ),
    },
    ("channel", "phasor_sum"): {
        "reference": (
            "np.subtract(tau * f0, phase,", "np.subtract(0.0, phase,", 1, ACCEPTANCE
        ),
        "sum": (
            "else np.add(total, term, out=total)", "else total", 1, "tests/test_experiments.py"
        ),
    },
    ("fit_dp", "_roll_equation"): {
        "sign": (
            "(2.0 * (p - q), 2.0 * (-u - v))",
            "(-2.0 * (p - q), -2.0 * (-u - v))",
            1,
            ACCEPTANCE,
        ),
    },
    ("fit_dp", "solve_gamma_s"): {
        "tie": ("> 1e-6 * tie_scale", "> 1e-2 * tie_scale", 1, "tests/test_fit_dp.py"),
        "circle": (
            "if circle_pos < circle_neg", "if circle_pos > circle_neg", 1, "tests/test_fit_dp.py"
        ),
    },
    ("fit_dp", "_fit_roll"): {
        "rank": (
            "det <= 1e-12 * sigma_max_sq", "det <= 1e-6 * sigma_max_sq", 1, "tests/test_fit_dp.py"
        ),
    },
    ("fit_dp", "match_paths"): {
        "elevation": ("_DEG_PER_RAD * abs(ref.ao", "0.0 * abs(ref.ao", 2, "tests/test_fit_dp.py"),
        "wrap": (
            "remainder, turn = math.remainder,",
            "remainder, turn = lambda x, _: x,",
            1,
            "tests/test_fit_dp.py",
        ),
    },
    ("fit_rt", "fit_rm_rt"): {
        "delay": (
            "> 1e-9 * max(1.0, C_LIGHT", "> 1e-3 * max(1.0, C_LIGHT", 1, "tests/test_fit_rt.py"
        ),
    },
}


_TOP_LEVEL = re.compile(r"^(?:def|class) ", re.M)


def mutate(source: str, function: str, old: str, new: str, count: int) -> str:
    """source with old replaced by new inside the top-level function or
    class, up to the next top-level def or class, which must hold old
    exactly count times."""
    start = re.search(rf"^(?:def|class) {function}\b", source, re.M).start()
    following = _TOP_LEVEL.search(source, start + 1)
    end = len(source) if following is None else following.start()  # the module's last
    body = source[start:end]
    if body.count(old) != count:
        raise SystemExit(f"mutant {old!r} -> {new!r} no longer matches {function}")
    return source[:start] + body.replace(old, new) + source[end:]


def run_tests(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "pytest", *tests, "-q", "-x", "-p", "no:cacheprovider"]
    return subprocess.run(cmd, cwd=copy, capture_output=True, text=True)


def failures(result: subprocess.CompletedProcess) -> list[str]:
    return [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "demo", "scripts"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)

        result = run_tests(copy, TESTS)
        if result.returncode != 0:
            print("the unmutated copy fails:", *failures(result), sep="\n  ")
            return 2
        print("unmutated: passes")

        survivors = []
        for (module, function), mutants in MUTANTS.items():
            target = copy / "src" / "reflectmimo" / f"{module}.py"
            original = target.read_text()
            for name, (old, new, count, catcher) in mutants.items():
                label = f"{module}.{function} {name}"
                if catcher not in TESTS:
                    raise SystemExit(f"{label}: {catcher} is not in the test list")
                target.write_text(mutate(original, function, old, new, count))
                result = run_tests(copy, [catcher])
                if result.returncode != 1:  # no test of its file failed: the full list decides
                    missed = result.returncode == 0
                    result = run_tests(copy, TESTS)
                    if missed and result.returncode == 1:
                        print(f"{label}: missed by {catcher}")
                if result.returncode == 0:
                    survivors.append(label)
                    print(f"{label}: SURVIVED")
                elif result.returncode == 1:  # pytest: some test failed
                    print(f"{label}: caught by", *failures(result))
                else:
                    print(f"{label}: pytest exited {result.returncode}", result.stdout, result.stderr)
                    return 2
            target.write_text(original)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
