"""Write reference.json: the checked output of every task any seed can run.

    python3 benchmarks/make_reference.py

Each task must pass its own compare.  Regenerate the file only in a change
that means to move results, and say by how much they moved.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        for task in workloads.all_variants():
            digest = task.digest(task.run(workdir), workdir)
            entry = task.reference(digest)
            problems = task.check(digest, entry)
            if problems:
                print(f"{task.key}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            reference[task.key] = entry
            print(task.key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"{json.dumps(key)}: {json.dumps(reference[key])}" for key in sorted(reference)]
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
