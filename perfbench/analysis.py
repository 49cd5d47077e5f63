"""Turns the raw measurements into the benchmark's metrics.

The C++ program (measure/main.cpp) only measures: step times, set-up
times, output checks and, in a traced run, spans and exact counts.
Everything derived from those numbers lives here, so it can be tested
without building anything (tests/test_analysis.py).
"""

import json
import math
import statistics

# Step and set-up times are steal-free wall times (see steal_free): on
# a shared VM the hypervisor's steal time swings raw wall time by 2x
# within minutes.  Raw wall and CPU figures are reported per layer.
END_TO_END = [
    # name, unit, better
    ("samples_per_s", "1/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

# Top-level children of resnet-tiny, as <index>.<type>.
RESNET_LAYERS = [
    "0.pact_quant", "1.conv2d", "2.batchnorm", "3.pact_quant",
    "4.basic_block", "5.basic_block", "6.basic_block",
    "7.global_avg_pool", "8.pact_quant", "9.linear",
]
# The Fig. 19 ladder (resnet_tq_eval rotation) and the mMAC ladder.
EVAL_RUNGS = ["a8b2", "a10b2", "a12b2", "a14b2",
              "a14b3", "a16b3", "a18b3", "a20b3"]
HW_RUNGS = ["a8b2", "a12b2", "a16b3", "a20b3"]
KERNEL_SLUGS = [
    "gemm_dot", "gemm_axpy", "add_row", "add_scalar", "lattice_quantize",
    "lattice_dequant", "lattice_round_trip", "lstm_gates", "term_pairs",
    "bucket_sum",
]


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [
        ("wall.samples_per_s", "1/s", "higher"),
        ("cpu.samples_per_s", "1/s", "higher"),
        ("host.steal_pct", "%", "lower"),
        ("setup_cold_s", "s", "lower"),
        ("data.batch_ms", "ms", "lower"),
    ]
    for layer in RESNET_LAYERS + ["lstm_lm"]:
        out += [
            (f"nn.{layer}.fwd_ms", "ms", "lower"),
            (f"nn.{layer}.bwd_ms", "ms", "lower"),
            (f"nn.{layer}.fwd_alloc_kib", "KiB", "lower"),
            (f"nn.{layer}.bwd_alloc_kib", "KiB", "lower"),
        ]
    out += [
        ("core.teacher_ms", "ms", "lower"),
        ("core.student_ms", "ms", "lower"),
        ("core.loss_ms", "ms", "lower"),
        ("core.trainer_self_ms", "ms", "lower"),
    ]
    out += [(f"core.rung.{r}.fwd_ms", "ms", "lower") for r in EVAL_RUNGS]
    out += [
        ("core.proj_cache.hit_ratio", "ratio", "higher"),
        ("core.proj_cache.misses_per_step", "count", "lower"),
        ("core.macs_per_sample", "count", "lower"),
    ]
    out += [(f"kernels.{k}.elems_per_step", "count", "lower")
            for k in KERNEL_SLUGS]
    out += [
        ("runtime.pool.regions_per_step", "count", "lower"),
        ("runtime.pool.chunks_per_step", "count", "lower"),
        ("runtime.pool.queue_wait_ms", "ms", "lower"),
        ("runtime.pool.executor_busy_ms", "ms", "lower"),
    ]
    for r in HW_RUNGS:
        out += [
            (f"hw.{r}.forward_ms", "ms", "lower"),
            (f"hw.{r}.sim_cycles_per_sample", "count", "lower"),
            (f"hw.{r}.mem_entries_per_sample", "count", "lower"),
        ]
    out += [
        ("hw.host_ns_per_sim_cycle", "ns", "lower"),
        ("hw.image_build_ms", "ms", "lower"),
        ("hw.image_load_ms", "ms", "lower"),
        ("heap.step_alloc_mib", "MiB", "lower"),
        ("heap.step_alloc_count", "count", "lower"),
        ("trace_overhead_pct", "%", "lower"),
    ]
    return out


def percentile_with_tail(values, q, min_tail=10):
    """Nearest-rank q-quantile that leaves at least min_tail samples
    strictly beyond its rank; raises ValueError when there are too few
    samples for that."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_tail:
        raise ValueError(
            f"{n} samples leave {n - rank} beyond the {q:g} quantile; "
            f"need {min_tail}")
    return sorted(values)[rank - 1]


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (overlaps counted once,
    children clipped to the parent).

    spans: list of (parent_index, start_ns, end_ns).
    """
    children = [[] for _ in spans]
    for i, (parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            s, e = max(spans[c][1], start), min(spans[c][2], end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out


def samples_per_s(step_ns, samples_per_step):
    """Samples per second of summed step time."""
    return samples_per_step * len(step_ns) / (sum(step_ns) / 1e9)


def unstolen_share(cpu_ns, steal_ns):
    """Share of the vCPU time the process was ready to use that the
    hypervisor did not steal: cpu / (cpu + steal)."""
    busy = cpu_ns + steal_ns
    return cpu_ns / busy if busy > 0 else 1.0


def steal_free(wall, cpu, steal):
    """Wall times with the VM's steal time taken out.

    Steal accrues only on vCPUs that are running something, and the
    benchmark is alone on its VM, so during an interval the process
    kept k = (cpu + steal) / wall vCPUs busy on average, each stolen
    for the share 1 - u of its time, u = cpu / (cpu + steal).  The
    model: a step advances only while none of its busy vCPUs is stolen
    (its threads meet at the end of every parallel region), and vCPUs
    are stolen independently, so it advanced for the share u ** k of
    its wall time.  With one thread (k about 1) the result is about the
    CPU time; without steal it is the wall time, so waiting and
    parallelism count in full.  Steal is read in 10 ms ticks, which
    land in whichever interval crosses them, so a short interval's
    correction is coarse; step_times takes steps in longer units.
    """
    out = []
    for w, c, s in zip(wall, cpu, steal):
        busy_vcpus = (c + s) / w if w > 0 else 1.0
        out.append(w * unstolen_share(c, s) ** busy_vcpus)
    return out


def clock(raw, prefix):
    """Steal-free times of one group of intervals of a raw run."""
    return steal_free(raw[prefix + "wall_ns"], raw[prefix + "cpu_ns"],
                      raw[prefix + "steal_ns"])


def step_times(raw, record, prefix="step_"):
    """Steal-free time per step, taken over units of
    raw["step_group"] consecutive steps (one value per unit): a unit
    of about 50 ms or more spans several 10 ms steal ticks.  record is
    the raw run or its "traced" part, prefix names its step arrays."""
    g = raw["step_group"]

    def units(key):
        v = record[prefix + key]
        return [sum(v[i:i + g]) for i in range(0, len(v), g)]

    return [t / g for t in steal_free(units("wall_ns"), units("cpu_ns"),
                                      units("steal_ns"))]


def end_to_end_values(raw):
    step_ns = step_times(raw, raw)
    return {
        "samples_per_s": samples_per_s(step_ns, raw["samples_per_step"]),
        "step_ms_p50": statistics.median(step_ns) / 1e6,
        "step_ms_p90": percentile_with_tail(step_ns, 0.9) / 1e6,
        "setup_s": statistics.median(clock(raw, "setup_")) / 1e9,
        "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
    }


def self_time_check(raw):
    """(self times summed per traced step, untraced step, gap in %),
    in ms on the steal-free clock: the traced run's layer times
    against the step time they explain."""
    steps = len(raw["step_wall_ns"])
    # Steal taken out of the self times in the proportion it was taken
    # out of the traced steps that contain them.
    scale = (sum(step_times(raw, raw)) * raw["step_group"]
             / sum(raw["step_wall_ns"]))
    self_ms = sum(r["self_ns"] for r in span_table(raw).values()) \
        * scale / steps / 1e6
    untraced_ms = statistics.fmean(
        step_times(raw, raw["traced"], "untraced_")) / 1e6
    return self_ms, untraced_ms, 100.0 * (self_ms / untraced_ms - 1.0)


def span_table(raw):
    """Per-span-name totals over the traced steps: count, total ns,
    self ns, allocated bytes and allocation count."""
    tr = raw["traced"]
    names = tr["span_names"]
    spans = tr["spans"]
    selfs = self_times([(s[1], s[3], s[4]) for s in spans])
    table = {}
    for s, self_ns in zip(spans, selfs):
        row = table.setdefault(names[s[0]], {
            "count": 0, "total_ns": 0, "self_ns": 0,
            "alloc_bytes": 0, "alloc_count": 0})
        row["count"] += 1
        row["total_ns"] += s[4] - s[3]
        row["self_ns"] += self_ns
        row["alloc_bytes"] += s[5]
        row["alloc_count"] += s[6]
    return table


def per_layer_values(raw):
    """Every per-layer metric of a traced run; 0 for a layer the
    workload does not run."""
    tr = raw["traced"]
    steps = len(raw["step_wall_ns"])
    table = span_table(raw)
    zero = {"count": 0, "total_ns": 0, "self_ns": 0,
            "alloc_bytes": 0, "alloc_count": 0}

    def row(name):
        return table.get(name, zero)

    def per_step_ms(name, key="self_ns"):
        return row(name)[key] / steps / 1e6

    def per_call_ms(name):
        r = row(name)
        return r["total_ns"] / r["count"] / 1e6 if r["count"] else 0.0

    v = {"data.batch_ms": per_step_ms("data.batch", "total_ns")}
    for layer in RESNET_LAYERS + ["lstm_lm"]:
        for d in ("fwd", "bwd"):
            span = f"nn.{layer}.{d}"
            v[f"nn.{layer}.{d}_ms"] = per_step_ms(span)
            v[f"nn.{layer}.{d}_alloc_kib"] = (
                row(span)["alloc_bytes"] / steps / 1024.0)
    for role in ("teacher", "student"):
        v[f"core.{role}_ms"] = (per_step_ms(f"core.{role}.fwd", "total_ns")
                                + per_step_ms(f"core.{role}.bwd", "total_ns"))
    v["core.loss_ms"] = per_step_ms("core.loss", "total_ns")
    v["core.trainer_self_ms"] = per_step_ms("core.trainer")
    for r in EVAL_RUNGS:
        v[f"core.rung.{r}.fwd_ms"] = per_call_ms(f"core.rung.{r}.fwd")
    for r in HW_RUNGS:
        v[f"hw.{r}.forward_ms"] = per_call_ms(f"hw.{r}.forward")
    step = row("step")
    v["heap.step_alloc_mib"] = step["alloc_bytes"] / steps / 2**20
    v["heap.step_alloc_count"] = step["alloc_count"] / steps
    n = raw["samples_per_step"]
    v["wall.samples_per_s"] = samples_per_s(tr["untraced_wall_ns"], n)
    v["cpu.samples_per_s"] = samples_per_s(tr["untraced_cpu_ns"], n)
    v["host.steal_pct"] = 100.0 * (1.0 - unstolen_share(
        sum(tr["untraced_cpu_ns"]), sum(tr["untraced_steal_ns"])))
    # A traced run sets up once, from main: the cold set-up.
    v["setup_cold_s"] = clock(raw, "setup_")[0] / 1e9
    traced_sps = samples_per_s(step_times(raw, raw), n)
    untraced_sps = samples_per_s(step_times(raw, tr, "untraced_"), n)
    v["trace_overhead_pct"] = 100.0 * (1.0 - traced_sps / untraced_sps)
    for key, value in list(tr["counts"].items()) + list(tr["values"].items()):
        v[key] = value
    out = {}
    for name, _, _ in per_layer_metrics():
        out[name] = float(v.get(name, 0.0))
    return out


def report(raw):
    """The benchmark's result object for one run."""
    if raw["trace"]:
        units = {n: u for n, u, _ in per_layer_metrics()}
        values = per_layer_values(raw)
    else:
        units = {n: u for n, u, _ in END_TO_END}
        values = end_to_end_values(raw)
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
    }


def parse_report(line):
    """Parse and validate one result line; raises ValueError."""
    rep = json.loads(line)
    if set(rep) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(rep)}")
    if not isinstance(rep["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(rep[key], int) or isinstance(rep[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if rep["attempted"] < 1:
        raise ValueError("attempted < 1")
    for name, m in rep["metrics"].items():
        if set(m) != {"value", "unit"} or not m["unit"]:
            raise ValueError(f"metric {name} lacks a value or a unit")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            raise ValueError(f"metric {name} is not a finite number")
    return rep
