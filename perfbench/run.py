#!/usr/bin/env python3
"""Builds the perfbench package in release mode, then runs it in place.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to stderr. The benchmark prints its environment header
and summary lines, and as the last line of stdout one JSON result. The
target directory is $CARGO_TARGET_DIR, or perfbench/target when unset;
traced runs write their spans under perfbench/out.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", here / "target"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(here / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = str(target / "release" / "perfbench")
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left to stop.
    os.execv(binary, [binary, *sys.argv[1:], "--out", str(here / "out")])
    return 1


if __name__ == "__main__":
    sys.exit(main())
