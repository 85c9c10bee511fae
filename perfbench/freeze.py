"""Rebuild the frozen digests and strata of one workload.

    python3 perfbench/freeze.py --workload NAME

Runs every member of the workload's universe, checks it, and writes
``perfbench/frozen/NAME.json``: per member the digests of its input and
of its results and its op time here; and the strata the benchmark seed
chooses from.  The benchmark compares against these digests, so run this
only on a commit whose results are trusted, and only when the workloads
themselves change.

An op's time is its median calibrated time over ``REPEATS`` rounds, as a
run measures it (see ``calibrate``).  Strata are groups of ``size``
members whose op times lie within ``1 + tolerance`` of each other, taken
from the cheapest ``kept`` share of the members sorted by op time;
``count`` of them, spread evenly from the cheapest to the dearest, make
up a pool.  The seed picks one member of each stratum, so every seed's
pool costs about the same while the inputs still differ.
"""

import argparse
import json
import os
import statistics
import time

from calibrate import Clock
from run import FROZEN, import_package, machine
from workloads import WORKLOADS, digest

# workload: (stratum size, tolerance, strata per pool, share kept).
# Strata are drawn from the cheapest ``share kept`` of the universe.  A
# run reports each member's median time over its passes, so a pass must
# be short enough for every member to run about eight times or more in a
# run: on dirsum-split the pool comes from the cheapest 35% (up to 0.6 s
# an op at freeze; the tail runs to 13 s), and ext-pairs has 24 strata.
# op_p50_s rests on the middle members of a pool, so dirsum-split's few
# strata are tight (5%) and most of them lie close together.
STRATA = {
    "d4-pairwise": (1, 0.0, 1, 1.0),
    "dirsum-split": (2, 0.05, 7, 0.35),
    "ext-pairs": (3, 0.1, 24, 1.0),
}
# An op's time at freeze is its median over this many rounds over the
# universe; rounds spread each member's runs over the whole freeze, so a
# slow or fast spell of the machine does not decide a member's place.
REPEATS = 5


def make_strata(work, size, tolerance, count, kept):
    order = sorted(work, key=lambda i: (work[i], i))
    order = order[:round(kept * len(order))]
    groups = []
    k = 0
    while k + size <= len(order):
        group = order[k:k + size]
        if work[group[-1]] <= (1 + tolerance) * work[group[0]]:
            groups.append(group)
            k += size
        else:
            k += 1
    if len(groups) > count:
        step = (len(groups) - 1) / (count - 1)
        groups = [groups[round(j * step)] for j in range(count)]
    return groups


def freeze(name):
    workload = WORKLOADS[name]
    P = import_package()
    inputs = {i: workload.generate(P, i) for i in range(workload.universe)}
    members, times = {}, {i: [] for i in inputs}
    clock = Clock()
    for _ in range(REPEATS):
        for i, data in inputs.items():
            start = time.perf_counter()
            material, info = workload.op(P, data)
            times[i].append(clock.record(time.perf_counter() - start))
            output = digest(material)
            if members.get(str(i), {}).get("output", output) != output:
                raise RuntimeError(f"member {i} gave two different results")
            members[str(i)] = {
                "input": digest(workload.input_data(P, data)),
                "output": output,
                "describe": dict(workload.describe(P, data), **info),
            }
    for i, records in times.items():
        op_s = statistics.median(clock.calibrated(k) for k in records)
        members[str(i)]["op_s"] = round(op_s, 4)
    return {
        "workload": name,
        "machine": machine(),
        "strata_rule": dict(zip(("size", "tolerance", "count", "kept"), STRATA[name])),
        "strata": make_strata(
            {int(i): m["op_s"] for i, m in members.items()}, *STRATA[name]
        ),
        "members": members,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    data = freeze(args.workload)
    os.makedirs(FROZEN, exist_ok=True)
    with open(os.path.join(FROZEN, f"{args.workload}.json"), "w") as out:
        json.dump(data, out, indent=1, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
