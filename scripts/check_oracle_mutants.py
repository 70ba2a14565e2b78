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
in tests/scenelib.py and the scalar channels of tests/test_channel.py, and in
the roll/parity fit, through the matrix form of its equation and the tie
between its two parity rules in tests/test_fit_dp.py.

Copies src/, tests/, demo/ (the scenes some tests load) and pyproject.toml
into a temporary directory and, one at a time, applies there each of
twenty-eight mutants, keyed by module and top-level function or class:

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
* paths.angles_to_image
  * parity:    the mirror parity factor z_reflection(s) dropped,
  * roll:      the roll angle negated;
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
* geometry._record
  * order:     the fields zipped with the values in reversed order,
  * skip:      the last field left unset;
* fileio._number
  * nesting:   the nesting test disabled (a list passes where a number
               belongs, and a number where a list belongs);
* fileio._check_keys
  * unknown:   the key test disabled (a key the kind does not hold passes);
* fit_rt.fit_from_route
  * bend:      a straight-pass threshold of 1e-4 in place of _MIN_BEND (1e-12);
* experiments.DisplacementResult
  * order:     the rows read epsilon as (S, K, F), not (S, F, K);
* channel.phasor_sum
  * reference: the tau f0 reference phase dropped,
  * sum:       the paths after the first not added to the total;
* fit_dp._roll_equation
  * sign:      the s = -1 row negated;
* fit_dp.solve_gamma_s
  * tie:       a tie tolerance of 1e-2 of tie_scale in place of 1e-6.

For the unmutated copy and then for each mutant it runs

    pytest tests/test_points.py tests/test_file_keys.py tests/test_records.py \
        tests/test_paths.py tests/test_tracer.py tests/test_acceptance.py \
        tests/test_capacity.py tests/test_fit_rt.py tests/test_experiments.py \
        tests/test_fit_dp.py tests/test_channel.py -q -x

against the copy, one run after another. A mutant survives when its run
passes. Nothing is written into the repository.

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
]

# (module, function or class) -> {name: (text in it, replacement, occurrences)}
MUTANTS = {
    ("tracer", "_walk"): {
        "pad": ("* gap", "* gap - _PAD * gap", 2),
        "side": ("(hp > 0.0) != (z_g > 0.0)", "(hp > 0.0) == (z_g > 0.0)", 1),
        "middle": ("middle = turns[g]", "middle = None", 1),
        "faced": ("if leaf and not reached:", "if not reached:", 1),
    },
    ("tracer", "_unfold"): {
        "side": ("and denom >= 0.0:", "and denom <= 0.0:", 1),
        "slack": ("+ _T_EPS:", "+ 0.0:", 2),
        "halves": ("half_u, half_v, _ = flats[idx]", "half_v, half_u, _ = flats[idx]", 1),
        "occlusion": ("for f in occluders:", "for f in ():", 1),
    },
    ("tracer", "_inside"): {
        "slack": ("+ _T_EPS", "+ 0.0", 2),
    },
    ("tracer", "_unfold_batch"): {
        "occlusion": ("for idx, f in enumerate(flats):", "for idx, f in ():", 1),
        "side": ("crosses &= denom < 0.0", "crosses &= denom > 0.0", 1),
    },
    ("tracer", "_kept"): {
        "seam": ("tol = 1e-9 *", "tol = 1e-6 *", 1),
    },
    ("paths", "angles_to_image"): {
        "parity": ("mirror = z_reflection(path.s) @ ", "mirror = ", 1),
        "roll": ('rotation_matrix("x", path.roll)', 'rotation_matrix("x", -path.roll)', 1),
    },
    ("capacity", "_triangle"): {
        "streams": ("np.tril_indices(size)", "np.tril_indices(size, 1)", 1),
    },
    ("capacity", "_stream_rates"): {
        "clip": ("np.minimum(snr, model.se_max, out=snr)", "snr", 1),
    },
    ("capacity", "LinkBudget"): {
        "range": ("if not 0.0 < watts < math.inf:", "if False:", 1),
    },
    ("geometry", "as_points"): {
        "finite": ("if not abs(pts).max() < _REACH:", "if False:", 1),
    },
    ("geometry", "_record"): {
        "order": (
            "zip(cls.__match_args__, values)", "zip(reversed(cls.__match_args__), values)", 1
        ),
        "skip": ("zip(cls.__match_args__, values)", "zip(cls.__match_args__[:-1], values)", 1),
    },
    ("fileio", "_number"): {
        "nesting": ("if x.ndim != depth:", "if False:", 1),
    },
    ("fileio", "_check_keys"): {
        "unknown": ("if key not in keys:", "if False:", 1),
    },
    ("fit_rt", "fit_from_route"): {
        "bend": ("bend_norms < _MIN_BEND", "bend_norms < 1e-4", 1),
    },
    ("experiments", "DisplacementResult"): {
        "order": ("self.epsilon.reshape(-1)", "self.epsilon.swapaxes(1, 2).reshape(-1)", 1),
    },
    ("channel", "phasor_sum"): {
        "reference": ("np.subtract(tau * f0, phase,", "np.subtract(0.0, phase,", 1),
        "sum": ("else np.add(total, term, out=total)", "else total", 1),
    },
    ("fit_dp", "_roll_equation"): {
        "sign": ("(2.0 * (p - q), 2.0 * (-u - v))", "(-2.0 * (p - q), -2.0 * (-u - v))", 1),
    },
    ("fit_dp", "solve_gamma_s"): {
        "tie": ("> 1e-6 * tie_scale", "> 1e-2 * tie_scale", 1),
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


def run_tests(copy: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "pytest", *TESTS, "-q", "-x", "-p", "no:cacheprovider"]
    return subprocess.run(cmd, cwd=copy, capture_output=True, text=True)


def failures(result: subprocess.CompletedProcess) -> list[str]:
    return [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "demo"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)

        result = run_tests(copy)
        if result.returncode != 0:
            print("the unmutated copy fails:", *failures(result), sep="\n  ")
            return 2
        print("unmutated: passes")

        survivors = []
        for (module, function), mutants in MUTANTS.items():
            target = copy / "src" / "reflectmimo" / f"{module}.py"
            original = target.read_text()
            for name, (old, new, count) in mutants.items():
                label = f"{module}.{function} {name}"
                target.write_text(mutate(original, function, old, new, count))
                result = run_tests(copy)
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
