"""Seed-driven inputs of the benchmark workloads.

The driver binary receives only what this module generates (the plan
file); the seed never reaches the engine. The same seed always gives
the same plan. The Table-4 scenes of the World workloads are fixed by
the paper and take no seed.
"""

import random

FLEET_SESSIONS = 2000
# About 1 in 50 sessions is a heavy scene; the rest are 3-sphere stacks.
FLEET_HEAVY_EVERY = 50
FLEET_STREAMS = 16
# Sweep points of fig_replay: for each of the 1- and 4-thread trace
# models (in that order), a shared L2 of 1, 2, 4, 8, 16, 32 MB and the
# paper's partitioned plan.
SWEEP_MODELS = 2
SWEEP_POINTS_PER_MODEL = 7
SWEEP_POINTS = SWEEP_MODELS * SWEEP_POINTS_PER_MODEL


def fleet_plan(seed, sessions=FLEET_SESSIONS, streams=FLEET_STREAMS):
    """Session kinds (S stack, P Periodic, R Ragdoll) and streamed ids.

    The number of heavy sessions is fixed (half Periodic, half
    Ragdoll); the seed picks which sessions they are and which
    sessions' delta streams are served.
    """
    rng = random.Random(seed)
    kinds = ["S"] * sessions
    heavy = rng.sample(range(sessions), sessions // FLEET_HEAVY_EVERY)
    for n, index in enumerate(heavy):
        kinds[index] = "P" if n % 2 == 0 else "R"
    return {"kinds": "".join(kinds),
            "streams": rng.sample(range(sessions), streams)}


def sweep_order(seed):
    """Execution order of the fig_replay sweep points.

    The seed shuffles the points within each thread model. The
    4-thread model's points, whose traces are about 1.7x longer to
    replay, are always issued first, so the sweep's makespan on four
    lanes does not hinge on where the seed happens to put them.
    """
    rng = random.Random(seed)
    order = []
    for model in reversed(range(SWEEP_MODELS)):
        points = [model * SWEEP_POINTS_PER_MODEL + i
                  for i in range(SWEEP_POINTS_PER_MODEL)]
        rng.shuffle(points)
        order += points
    return order


def plan_text(workload, seed):
    """The plan file the driver reads for `workload`."""
    if workload == "server_fleet":
        plan = fleet_plan(seed)
        return "kinds %s\nstreams %s\n" % (
            plan["kinds"], " ".join(map(str, plan["streams"])))
    if workload == "fig_replay":
        return "order %s\n" % " ".join(map(str, sweep_order(seed)))
    return ""
