"""The benchmark's frozen digests catch a miscount.

A counter that adds 1 to every count of a two-step trie node is still a
working counter: every op runs to the end and only its numbers are
wrong.  The benchmark must then fail the op by comparing its results
(the frozen digest, or on dirsum-split the split chi sums), never with
an exception.  The benchmark imports the package afresh from ``src/``,
so each run is a subprocess of its own and leaves the test process's modules
alone.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")

CROOKED_RUN = """
import sys

import run

real_setup = run.setup


def corrupted_setup(*args):
    P, inputs = real_setup(*args)
    real = P.flags._count

    def crooked(m, node, memo):
        counts = real(m, node, memo)
        return tuple(n + 1 for n in counts) if len(node) == 2 else counts

    P.flags._count = crooked
    return P, inputs


run.setup = corrupted_setup
run.select_pool = lambda frozen, seed: [frozen["strata"][0][0]]
sys.exit(run.main(["--workload", sys.argv[1], "--seed", "0", "--seconds", "0"]))
"""


@pytest.mark.parametrize(
    "workload, reason",
    [
        ("d4-pairwise", "results differ from the frozen digest"),
        ("dirsum-split", "split chi sums differ"),
    ],
)
def test_a_miscount_fails_the_op_on_its_results(workload, reason):
    done = subprocess.run(
        [sys.executable, "-c", CROOKED_RUN, workload],
        cwd=PERFBENCH,
        env={**os.environ, "PYTHONPATH": PERFBENCH},
        capture_output=True,
        text=True,
        timeout=300,
    )
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert done.returncode == 1, done.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"] == {}
    [failure] = info["failures"]
    assert reason in failure
    assert "raised" not in failure
