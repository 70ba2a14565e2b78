#!/usr/bin/env python3
"""Check that the tests catch faults in the tracer's unfolding, in the
reflection model's angle-to-image conversion, both through their oracles in
tests/scenelib.py, in the pair tracer's unfolding, through its agreement
with the scalar one in tests/test_tracer.py, in the stream-rate kernel,
through the closed-form and rho-loop checks of tests/test_capacity.py, in
the one check of a point, through the table of every point entry in
tests/test_points.py, and in the one reader of a file's numbers, through
the table of every file key in tests/test_file_keys.py.

Copies src/, tests/, demo/ (the scenes some tests load) and pyproject.toml
into a temporary directory and, one at a time, applies there each of thirteen
mutants, keyed by module and function:

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
* paths.angles_to_image
  * parity:    the mirror parity factor z_reflection(s) dropped,
  * roll:      the roll angle negated;
* capacity._triangle
  * streams:   row k of the stream table sums k + 1 streams at power P/k;
* capacity._stream_rates
  * clip:      the se_max cap on the per-stream rate dropped;
* geometry.as_points
  * finite:    the finiteness test disabled (a NaN or infinite point passes);
* fileio._number
  * nesting:   the nesting test disabled (a list passes where a number
               belongs, and a number where a list belongs).

For the unmutated copy and then for each mutant it runs

    pytest tests/test_points.py tests/test_file_keys.py tests/test_paths.py \
        tests/test_tracer.py tests/test_acceptance.py tests/test_capacity.py -q -x

against the copy, one run after another. A mutant survives when its run
passes. Nothing is written into the repository.

    python scripts/check_oracle_mutants.py

Exits 0 when every mutant fails a test, 1 when one survives, and 2 when the
check cannot run: a mutant no longer matches the source, or the unmutated
copy fails.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = [
    "tests/test_points.py",
    "tests/test_file_keys.py",
    "tests/test_paths.py",
    "tests/test_tracer.py",
    "tests/test_acceptance.py",
    "tests/test_capacity.py",
]

# (module, function) -> {name: (text in the function, replacement, occurrences)}
MUTANTS = {
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
        "occlusion": ("for f in flats:", "for f in ():", 1),
        "side": ("crosses &= denom < 0.0", "crosses &= denom > 0.0", 1),
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
    ("geometry", "as_points"): {
        "finite": ("if not np.isfinite(pts).all():", "if False:", 1),
    },
    ("fileio", "_number"): {
        "nesting": ("if x.ndim != depth:", "if False:", 1),
    },
}


def mutate(source: str, function: str, old: str, new: str, count: int) -> str:
    """source with old replaced by new inside the top-level function, which
    must hold old exactly count times."""
    start = source.index(f"\ndef {function}(")
    end = source.find("\ndef ", start + 1)
    if end < 0:  # the module's last function
        end = len(source)
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
