"""Mutation check: which tests fail when a piece of the package is broken on purpose.

Run by hand from the root of a checkout, not by pytest (its name is not a
test module's):

    python tests/mutants.py                     # every mutant, Tier-1 in each copy
    python tests/mutants.py one-tile-wrong-row  # the named mutants only
    python tests/mutants.py -- -q -x tests/test_montecarlo.py   # other pytest arguments

A mutant is a (file, old text, new text) triple, the file relative to the
root of the checkout; every old text must occur exactly once in its file,
or nothing runs.  The checkout is copied to a temporary directory (TMPDIR
sets where), without .git and caches, once unmutated and once per mutant
with its text replaced, and the tests run in each copy with that copy's
src/ on PYTHONPATH.  A mutant is killed by the tests that fail in its copy
and pass in the unmutated one; a mutant that no test kills survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER_1 = ("-q", "--continue-on-collection-errors")
ENGINE = "src/dihedral_erw/montecarlo.py"

# the fill of a pass of at most _TILE rows, which its walk reads as the staging block transposed
MUTANTS = {
    # each stream's draws land in another row's column
    "one-tile-wrong-row": (ENGINE, "yield u_buf[:c_eff] if wide else block.T",
                           "yield u_buf[:c_eff] if wide else block[::-1].T"),
    # a pass whose length is not a multiple of the chunk loses its last, partial chunk
    "last-partial-chunk-dropped": (ENGINE, "for m0 in range(0, steps, chunk):",
                                   "for m0 in range(0, steps - steps % chunk, chunk):"),
    # each chunk yields one step fewer than it advances
    "fill-chunk-short": (ENGINE, "c_eff = min(chunk, steps - m0)",
                         "c_eff = min(chunk - 1, steps - m0)"),
    # one step more per chunk: the same draws, a slightly larger block
    "one-tile-chunk-plus-one": (ENGINE, "chunk = (min(1024, _BLOCK_CELLS // reps) if",
                                "chunk = (min(1024, _BLOCK_CELLS // reps + 1) if"),
    # the (chunk, reps) buffer is allocated again, though the walk never reads it
    "one-tile-second-buffer": (ENGINE, "_uniform_buffer(chunk, reps if wide else 0, tile)",
                               "_uniform_buffer(chunk, reps, tile)"),
}

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks")


def check(mutants: dict) -> None:
    """Every old text occurs exactly once in its file; SystemExit names those that do not."""
    counts = {name: (ROOT / path).read_text().count(old)
              for name, (path, old, _) in mutants.items()}
    bad = [f"{name}: {n} occurrences in {mutants[name][0]}"
           for name, n in counts.items() if n != 1]
    if bad:
        raise SystemExit("old texts must occur exactly once:\n  " + "\n  ".join(bad))


def failures(pytest_args, mutant=None) -> set:
    """The ids of the tests that fail or err in a copy of the checkout, with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if mutant is not None:
            path, old, new = mutant
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
        report = Path(tmp) / "report.xml"
        paths = [str(copy / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        subprocess.run([sys.executable, "-m", "pytest", *pytest_args, "-p", "no:cacheprovider",
                        f"--junitxml={report}"], cwd=copy, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if not report.exists():
            return {"<no test report: pytest did not run>"}
        return {f"{case.get('classname')}::{case.get('name')}"
                for case in ET.parse(report).iter("testcase")
                if case.find("failure") is not None or case.find("error") is not None}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pytest_args = TIER_1
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], tuple(argv[cut + 1:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="mutant",
                    help=f"mutants to run (default: all of {', '.join(MUTANTS)})")
    names = ap.parse_args(argv).names or list(MUTANTS)
    unknown = set(names) - set(MUTANTS)
    if unknown:
        ap.error(f"unknown mutants: {sorted(unknown)}")
    mutants = {name: MUTANTS[name] for name in names}
    check(mutants)
    baseline = failures(pytest_args)
    print(f"unmutated: {len(baseline)} failing" + "".join(f"\n    {t}" for t in sorted(baseline)),
          flush=True)
    for name, mutant in mutants.items():
        killed = sorted(failures(pytest_args, mutant) - baseline)
        print(f"{name}: " + (f"killed by {len(killed)}" + "".join(f"\n    {t}" for t in killed)
                             if killed else "SURVIVED"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
