"""Statistics of one benchmark run: from the driver's raw samples to
the end-to-end and per-layer metrics named in BENCHMARK.json.

Raw samples (written by driver.cc): every timed operation, the slowest
unit of each repetition, the set-up times, layer counters and, in a
traced run, spans [name, start_ns, end_ns, parent_index].
"""

import statistics

# The fewest samples a reported tail percentile must have beyond it.
TAIL_SAMPLES = 10

# What one operation and one repetition are on each workload, and the
# workload-specific name of each generic end-to-end metric.
WORKLOADS = {
    "mix_native": {
        "op": "30 FPS frame (3 x World::step)",
        "rep": "window of frames 5-7",
        "names": {"op_ms_p50": "frame_ms_p50", "op_ms_p95": "frame_ms_p95",
                  "worst_op_ms": "worst_frame_ms",
                  "throughput_per_s": "steps_per_s"},
    },
    "explosions_lockstep": {
        "op": "30 FPS frame (3 x World::step)",
        "rep": "window of frames 5-7",
        "names": {"op_ms_p50": "frame_ms_p50", "op_ms_p95": "frame_ms_p95",
                  "worst_op_ms": "worst_frame_ms",
                  "throughput_per_s": "steps_per_s"},
    },
    "server_fleet": {
        "op": "update (Server::advance + 16 streamSnapshot)",
        "rep": "checkpoint cycle of 20 updates",
        "names": {"op_ms_p50": "update_ms_p50",
                  "op_ms_p95": "update_ms_p95",
                  "worst_op_ms": "worst_update_ms",
                  "throughput_per_s": "world_ticks_per_s"},
    },
    "fig_replay": {
        "op": "sweep of 14 points on 4 lanes",
        "rep": "sweep",
        "names": {"op_ms_p50": "sweep_ms_p50", "op_ms_p95": "sweep_ms_p95",
                  "worst_op_ms": "slowest_point_ms",
                  "throughput_per_s": "points_per_s"},
    },
}

END_TO_END = [
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p95", "ms", "lower"),
    ("worst_op_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Pipeline phase layers: (metric prefix, seconds counter, work counter).
# A phase that did no work (no cloth in the scene) reports 0.
PHASES = [
    ("broadphase", "phase.broadphase_s", "steps"),
    ("island", "phase.island_creation_s", "steps"),
    ("narrowphase", "phase.narrowphase_s", "narrowphase.pairs_tested"),
    ("solver", "phase.island_processing_s", "solver.row_iterations"),
    ("cloth", "phase.cloth_s", "cloth.relaxations"),
]

# (name, unit, better); a value of 0 means the workload does not
# exercise the layer.
PER_LAYER = (
    [(p[0] + ".ms_per_step", "ms", "lower") for p in PHASES]
    + [(p[0] + ".speedup_vs_serial", "x", "higher") for p in PHASES]
    + [
        ("broadphase.pairs_per_step", "count", "lower"),
        ("narrowphase.ns_per_pair", "ns", "lower"),
        ("solver.ns_per_row_iteration", "ns", "lower"),
        ("kernels.vector_fraction", "ratio", "higher"),
        ("kernels.fused_contact_units_per_step", "count", "higher"),
        ("cloth.ns_per_relaxation", "ns", "lower"),
        ("scheduler.chunks_per_step", "count", "lower"),
        ("scheduler.steal_fraction", "ratio", "lower"),
        ("scheduler.lane_imbalance", "ratio", "lower"),
        ("arena.growths_per_step", "count", "lower"),
        ("scheduler.sweep_efficiency", "ratio", "higher"),
        ("server.tick_work_ms", "ms", "lower"),
        ("server.parallel_efficiency", "ratio", "higher"),
        ("server.checkpoints_per_update", "count", "lower"),
        ("server.steals_per_update", "count", "lower"),
        ("server.speedup_vs_serial", "x", "higher"),
        ("snapshot.capture_ms", "ms", "lower"),
        ("snapshot.restore_ms", "ms", "lower"),
        ("snapshot.stream_ms", "ms", "lower"),
        ("snapshot.apply_ms", "ms", "lower"),
        ("snapshot.delta_bytes", "bytes", "lower"),
        ("snapshot.delta_ratio", "ratio", "lower"),
        ("workload.build_ms", "ms", "lower"),
        ("workload.tracegen_ms_per_step", "ms", "lower"),
        ("mem.replay_ms_per_point", "ms", "lower"),
        ("mem.mrefs_per_s", "Mref/s", "higher"),
        ("mem.l2_miss_ratio", "ratio", "lower"),
        ("cpu.timing_model_ms_per_point", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.noise_frac", "ratio", "lower"),
        ("driver.self_frac", "ratio", "lower"),
    ]
)


# --- Percentiles -----------------------------------------------------------

def percentile(values, q):
    """The q-quantile (0 <= q <= 1), interpolating between order
    statistics (the 'inclusive' method of statistics.quantiles)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values, q):
    """How many samples lie strictly above the q-quantile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def tail_supported(values, q, needed=TAIL_SAMPLES):
    """Whether the q-quantile has at least `needed` samples beyond it."""
    return samples_beyond(values, q) >= needed


def highest_supported_quantile(values, candidates=(0.999, 0.99, 0.95, 0.9,
                                                   0.75, 0.5)):
    """The highest candidate quantile with TAIL_SAMPLES samples beyond
    it, or None when even the median lacks them."""
    for q in candidates:
        if tail_supported(values, q):
            return q
    return None


def iqr_fraction(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


# --- Spans -----------------------------------------------------------------

def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of
    its interval that its child spans cover (overlapping children,
    such as sweep points on parallel lanes, count once)."""
    children = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(index, []))
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def span_table(spans):
    """Per span name: count, total ms and self ms."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (span[2] - span[1]) * 1e-6
        row[2] += own * 1e-6
    return table


def span_ms(spans, name):
    """Durations (ms) of every span called `name`."""
    return [(s[2] - s[1]) * 1e-6 for s in spans if s[0] == name]


# --- Metrics ---------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw):
    """Every end-to-end metric of an untraced run: {name: (value, n)}."""
    ops = raw["op_ms"]
    c = raw["counters"]
    return {
        "op_ms_p50": (percentile(ops, 0.5), len(ops)),
        "op_ms_p95": (percentile(ops, 0.95), len(ops)),
        "worst_op_ms": (_median(raw["rep_worst_ms"]),
                        len(raw["rep_worst_ms"])),
        "throughput_per_s": (_ratio(c.get("work_units", 0),
                                    sum(ops) * 1e-3), len(ops)),
        "setup_s": (_median(raw["setup_s"]), len(raw["setup_s"])),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }


def per_layer(raw):
    """Every per-layer metric of a traced run: {name: value}."""
    c, s, spans = raw["counters"], raw["serial"], raw["spans"]
    m = {}
    steps = c.get("steps", 0)
    serial_steps = s.get("steps", 0)
    for layer, key, work in PHASES:
        per_step = _ratio(c.get(key, 0), steps) if c.get(work) else 0.0
        m[layer + ".ms_per_step"] = per_step * 1e3
        m[layer + ".speedup_vs_serial"] = _ratio(
            _ratio(s.get(key, 0), serial_steps), per_step)
    vec = c.get("kernels.rows_vectorized", 0)
    m.update({
        "broadphase.pairs_per_step": _ratio(c.get("broadphase.pairs", 0),
                                            steps),
        "narrowphase.ns_per_pair": _ratio(
            c.get("phase.narrowphase_s", 0) * 1e9,
            c.get("narrowphase.pairs_tested", 0)),
        "solver.ns_per_row_iteration": _ratio(
            c.get("phase.island_processing_s", 0) * 1e9,
            c.get("solver.row_iterations", 0)),
        "kernels.vector_fraction": _ratio(
            vec, vec + c.get("kernels.remainder_rows", 0)),
        "kernels.fused_contact_units_per_step": _ratio(
            c.get("kernels.contact_units", 0), steps),
        "cloth.ns_per_relaxation": _ratio(c.get("phase.cloth_s", 0) * 1e9,
                                          c.get("cloth.relaxations", 0)),
        "scheduler.chunks_per_step": _ratio(c.get("scheduler.chunks", 0),
                                            steps),
        "scheduler.steal_fraction": _ratio(c.get("scheduler.steals", 0),
                                           c.get("scheduler.chunks", 0)),
        "scheduler.lane_imbalance": _ratio(
            c.get("scheduler.imbalance_sum", 0),
            c.get("scheduler.imbalance_steps", 0)),
        "arena.growths_per_step": _ratio(c.get("arena.growths", 0), steps),
    })

    # Sweep efficiency: lane-busy time of the points over lanes x wall.
    by_index = {}
    for index, span in enumerate(spans):
        if span[0] == "sweep_point":
            by_index.setdefault(span[3], []).append(span)
    efficiencies = [
        _ratio(sum(p[2] - p[1] for p in points),
               c.get("sweep.lanes", 0) * (spans[i][2] - spans[i][1]))
        for i, points in by_index.items()]
    m["scheduler.sweep_efficiency"] = _median(efficiencies)

    updates = c.get("updates", 0)
    update_s = c.get("update_s", 0)
    m.update({
        "server.tick_work_ms": _ratio(c.get("server.tick_work_s", 0) * 1e3,
                                      updates),
        "server.parallel_efficiency": _ratio(
            c.get("server.tick_work_s", 0),
            c.get("server.lanes", 0) * update_s),
        "server.checkpoints_per_update": _ratio(
            c.get("server.checkpoints", 0), updates),
        "server.steals_per_update": _ratio(c.get("server.steals", 0),
                                           updates),
        "server.speedup_vs_serial": _ratio(
            _ratio(s.get("update_s", 0), s.get("updates", 0)),
            _ratio(update_s, updates)),
    })

    captures = (span_ms(spans, "captureState")
                + span_ms(spans, "Server::snapshotWorld"))
    m.update({
        "snapshot.capture_ms": _median(captures),
        "snapshot.restore_ms": _median(span_ms(spans, "restoreState")),
        "snapshot.stream_ms": _median(span_ms(spans, "streamSnapshot")),
        "snapshot.apply_ms": _median(span_ms(spans, "applySnapshotDelta")),
        "snapshot.delta_bytes": _ratio(c.get("snapshot.delta_bytes", 0),
                                       c.get("snapshot.deltas", 0)),
        "snapshot.delta_ratio": _ratio(c.get("snapshot.delta_bytes", 0),
                                       c.get("snapshot.full_bytes", 0)),
        "workload.build_ms": _median(span_ms(spans, "buildBenchmark")),
        "workload.tracegen_ms_per_step": _median(
            span_ms(spans, "TraceGenerator::generate")),
    })

    replay = span_ms(spans, "MemoryHierarchy::replayStep")
    traced_sweeps = len(span_ms(spans, "sweep"))
    sweeps = len(raw["rep_worst_ms"])
    refs_per_sweep = _ratio(c.get("mem.refs_replayed", 0), sweeps)
    m.update({
        "mem.replay_ms_per_point": _median(replay),
        "mem.mrefs_per_s": _ratio(refs_per_sweep * traced_sweeps * 1e-6,
                                  sum(replay) * 1e-3),
        "mem.l2_miss_ratio": _ratio(
            c.get("mem.l2_misses", 0),
            c.get("mem.l2_hits", 0) + c.get("mem.l2_misses", 0)),
        "cpu.timing_model_ms_per_point": _median(
            span_ms(spans, "CgTimingModel::parallelPhaseTime")),
    })

    # Tracing overhead: traced against untraced repetitions of the
    # same run, next to the untraced repetitions' own spread.
    traced = [v for v, t in zip(raw["rep_ms"], raw["rep_traced"]) if t]
    untraced = [v for v, t in zip(raw["rep_ms"], raw["rep_traced"])
                if not t]
    if traced and untraced:
        base = _median(untraced)
        m["trace.overhead_frac"] = _ratio(_median(traced) - base, base)
        m["trace.noise_frac"] = iqr_fraction(untraced)
    else:
        m["trace.overhead_frac"] = m["trace.noise_frac"] = 0.0

    # Share of each repetition the driver's own code takes.
    own = self_times(spans)
    rep_names = ("repetition", "checkpoint_cycle", "sweep")
    total = sum(sp[2] - sp[1] for sp in spans if sp[0] in rep_names)
    mine = sum(t for sp, t in zip(spans, own) if sp[0] in rep_names)
    m["driver.self_frac"] = _ratio(mine, total)
    return m
