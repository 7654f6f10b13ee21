"""Peak memory of the long-prefix paths, each in a fresh interpreter.

At N = 4*10^6 orders one float array is 32 MB.  compare holds the values
and the sorted tail (48 MB) beside block-sized temporaries, so it must stay
within two length-N arrays; the CSV and JSON exports hold the values and
one block of rows.  The Shepard step sweep at sqrt(2)/2 holds the values
and one block's temporaries, also on the four orders up to 4*10^6 with a
node within 2*NODE_ATOL of x0.  The Lagrange sweep at 10^6 orders holds
its 9 MB of served flags and values and one block's temporaries.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

# ru_maxrss before and after one cli.main call, in KiB (Linux)
SCRIPT = """
import contextlib, io, resource, sys
from jumpspectra import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""

# the same for one step_sweep call over n = 1..argv[1]
SWEEP = """
import math, resource, sys
from jumpspectra.piecewise import pure_step
from jumpspectra.shepard import step_sweep
h = pure_step(math.sqrt(2) / 2, 0.3, "left1_right0", (0.0, 1.0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
step_sweep(h, 2.0, range(1, int(sys.argv[1]) + 1))
print(0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""

# the same for one lagrange.sweep call over n = 1..argv[1] at a step at
# theta0/pi = sqrt(2) - 1
LAGRANGE = """
import math, resource, sys
from jumpspectra.lagrange import sweep
from jumpspectra.piecewise import pure_step
ratio = math.sqrt(2) - 1
h = pure_step(math.cos(math.pi * ratio), 0.3, "left1_right0", (-1.0, 1.0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
served, _ = sweep(h, 0, ratio, range(1, int(sys.argv[1]) + 1))
assert served.all()
print(0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""

S1 = ["--operator", "shepard", "--s", "1", "--x0-num", "1", "--x0-den", "3",
      "--n-max", "4000000", "--d", "-0.25"]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB")
@pytest.mark.parametrize(
    "script, argv, limit_mb",
    [
        (SCRIPT, ["compare", *S1, "--gap", "0.15"], 64),
        (SCRIPT, ["run", *S1, "--format", "csv", "--out", os.devnull], 100),
        (SCRIPT, ["run", *S1, "--format", "json", "--out", os.devnull], 100),
        (SWEEP, ["4000000"], 100),
        (LAGRANGE, ["1000000"], 32),
    ],
    ids=["compare", "run-csv", "run-json", "step-sweep-irrational", "lagrange-sweep"],
)
def test_peak_growth_after_import(script, argv, limit_mb):
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    code, grown_kib = proc.stdout.split()
    assert code == "0"
    assert int(grown_kib) / 1024 <= limit_mb
