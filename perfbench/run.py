"""Run one benchmark workload and print its result as the last line of stdout.

    python3 -B perfbench/run.py --workload check-large --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
replays the first round of the workload with the layer wrappers installed and
prints the per-layer metrics.  Both write their details (environment, tail
percentile, sample count, failures; the spans for ``--trace 1``) under
``perfbench/out/``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
HOST_SPEED_INTERVAL_S = 0.25
HOST_SPEED_KERNEL_REPEATS = 6
# HostSpeed's kernel time on the reference box when it runs at full speed.
HOST_SPEED_REFERENCE_S = 0.042
MIN_TRACE_PASSES = 3
MAX_RECORDED_FAILURES = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("check-large", "desk-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import scatterpoly from this checkout's src/ and the workloads module.

    Returns the workloads module and the import time.  The default size cap
    and single-threaded numpy are enforced here.
    """
    os.environ.pop("SCATTERPOLY_CAP", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "scatterpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: no scatterpoly package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import scatterpoly
    import workloads
    import_s = time.perf_counter() - t0
    if Path(scatterpoly.__file__).resolve().parent != src / "scatterpoly":
        raise SystemExit(f"error: imported scatterpoly from {scatterpoly.__file__}")
    return workloads, import_s


def environment(seed: int) -> dict:
    import numpy
    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def run_decision(wl, item, rec=None):
    """Time one decision and check it; returns (seconds, failure or None).

    With a recorder, the decision and its check are the two top-level spans;
    layer calls made by the check itself are not recorded.
    """
    span = rec.open("decide") if rec else None
    t0 = time.perf_counter()
    try:
        outcome = wl.decide(item)
    except Exception as exc:  # a failed decision is counted, not fatal
        elapsed = time.perf_counter() - t0
        if rec:
            rec.close(span)
        return elapsed, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if rec:
        rec.close(span)
        rec.counters.update(wl.counters(outcome))
        span = rec.open("check")
        rec.active = False
    try:
        failure = wl.check(item, outcome)
    except Exception as exc:  # a check that cannot run counts as a failure
        failure = f"check raised {type(exc).__name__}: {exc}"
    finally:
        if rec:
            rec.active = True
            rec.close(span)
    return elapsed, failure


def run_rounds(wl, rounds, failures, rec=None) -> list[float]:
    latencies = []
    for item in rounds:
        if rec:
            rec.request_id += 1
        elapsed, failure = run_decision(wl, item, rec)
        latencies.append(elapsed)
        if failure:
            failures.append(f"{item.stratum} {item.poly} @ {item.t}: {failure}")
    return latencies


class HostSpeed:
    """A fixed kernel of the benchmark's own, timed just before what it paces.

    It mixes what the workloads spend their time on: a gather from an 8 MB
    table, a sort, a loop of small integer matrix products and a pure-Python
    loop, repeated HOST_SPEED_KERNEL_REPEATS times.  Its time over
    HOST_SPEED_REFERENCE_S is the host's pace at that moment (above 1 when
    the host runs slower than the reference box); the program's code never
    runs inside it.  The large arrays are allocated once.
    """

    def __init__(self):
        import numpy as np

        # Fixed pseudo-random contents from multiplicative hashes (odd
        # multipliers permute residues mod 2^k), not from numpy.random,
        # whose import alone would add to peak_rss_mb.
        size = 1 << 21
        self.table = np.arange(size, dtype=np.int32)
        self.table *= 40503
        self.table &= size - 1
        self.index = np.arange(1 << 18, dtype=np.int64)
        self.index *= 2654435761
        self.index %= size
        self.out = np.empty(1 << 18, dtype=np.int32)
        self.matrix = np.arange(144).reshape(12, 12) * 5 % 7
        self.row = np.arange(12) % 7
        self.times = []

    def pace(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(HOST_SPEED_KERNEL_REPEATS):
            np.take(self.table, self.index, out=self.out, mode="clip")
            self.out.sort()
            row = self.row
            for _ in range(2000):
                row = row @ self.matrix % 7
            acc = 0
            for i in range(20000):
                acc += i * 7919 % 13
        self.times.append(time.perf_counter() - t0)
        return self.times[-1] / HOST_SPEED_REFERENCE_S


def end_to_end(wl, seed: int, seconds: float, import_s: float):
    """Cycle through the pool of decisions for ``seconds`` of deciding.

    The host this was tuned on changes speed by a fifth to a half for
    seconds to minutes at a time.  Every decision in the pool runs at least
    once, most of them many times, and a decision's latency is the least of
    its repeats, which finds the host's quiet spells for short decisions.
    Spans long enough to average over those spells are divided by the
    host's pace, measured by HostSpeed just before them: the import, each
    set-up, and on a workload with ``paced`` decisions, each decision once
    HOST_SPEED_INTERVAL_S of deciding have passed since the last sample.
    The set-up is timed SETUP_REPEATS times spread evenly over the run; each
    repeat rebuilds the pool, which must come out the same.  Only decisions
    count against ``seconds``.  The unpaced figures go to the details file.
    """
    from stats import percentile, tail_percentile

    host = HostSpeed()
    import_pace = host.pace()
    setup_runs, setup_paces = [], []

    def set_up():
        setup_paces.append(host.pace())
        t0 = time.perf_counter()
        rounds = wl.setup(seed)
        setup_runs.append(time.perf_counter() - t0)
        return [item for items in rounds for item in items]

    def inputs(pool):
        return [(item.stratum, str(item.poly), item.t) for item in pool]

    pool = set_up()
    first_inputs = inputs(pool)
    repeats = [[] for _ in pool]
    paced = [[] for _ in pool]
    failures = []
    deciding = 0.0  # seconds spent in decisions
    pace, since_pace = 1.0, HOST_SPEED_INTERVAL_S
    attempted = 0
    while attempted < len(pool) or deciding < seconds:
        if (len(setup_runs) < SETUP_REPEATS
                and deciding >= len(setup_runs) * seconds / SETUP_REPEATS):
            pool = None  # free the previous set-up before building the next
            pool = set_up()
            if inputs(pool) != first_inputs:
                raise RuntimeError("set-up gave other inputs for the same seed")
        if wl.paced and since_pace >= HOST_SPEED_INTERVAL_S:
            pace, since_pace = host.pace(), 0.0
        k = attempted % len(pool)
        (latency,) = run_rounds(wl, pool[k:k + 1], failures)
        repeats[k].append(latency)
        paced[k].append(latency / pace)
        deciding += latency
        since_pace += latency
        attempted += 1

    def figures(per_decision, setup_s):
        best = [min(r) for r in per_decision]
        pct = tail_percentile(len(best))
        return best, pct, {
            "setup_s": (setup_s, "s"),
            "decisions_per_s": (len(best) / sum(best), "1/s"),
            "decide_s_p50": (statistics.median(best), "s"),
            "decide_s_tail": (percentile(best, pct), "s"),
        }

    paced_setup_s = import_s / import_pace + statistics.median(
        t / p for t, p in zip(setup_runs, setup_paces))
    best, pct, metrics = figures(paced, paced_setup_s)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    _, _, unpaced = figures(repeats, import_s + statistics.median(setup_runs))
    by_stratum = {}
    for item, b in zip(pool, best):
        by_stratum.setdefault(item.stratum, []).append(b)
    details = {"import_s": import_s, "setup_runs_s": setup_runs,
               "decisions": len(pool), "least_repeats": min(map(len, repeats)),
               "tail_percentile": pct,
               "median_s_by_stratum": {k: statistics.median(v)
                                       for k, v in sorted(by_stratum.items())},
               "host_speed": {"reference_s": HOST_SPEED_REFERENCE_S,
                              "least_s": min(host.times),
                              "median_s": statistics.median(host.times),
                              "samples": len(host.times)},
               "unpaced": {k: v for k, (v, _) in unpaced.items()},
               "latencies_s": repeats}
    return metrics, attempted, failures, details


def traced(wl, seed: int, seconds: float, import_s: float):
    """Set-up once, then alternate untraced and traced passes over round 0."""
    from spans import Recorder, Tracer, summarize

    tracer = Tracer()
    tracer.install()
    try:
        span = tracer.rec.open("setup")
        rounds = wl.setup(seed)
        tracer.rec.close(span)
        setup_rec = tracer.rec
    finally:
        tracer.uninstall()

    work = rounds[0]
    failures, plain_walls, traced_walls, passes = [], [], [], []
    first_pass = None
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_TRACE_PASSES or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        run_rounds(wl, work, failures)
        plain_walls.append(time.perf_counter() - t0)

        tracer.rec = Recorder()
        tracer.install()
        try:
            t0 = time.perf_counter()
            run_rounds(wl, work, failures, tracer.rec)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        summary = summarize(tracer.rec)
        summary["wall_s"] = wall
        passes.append(summary)
        first_pass = first_pass or tracer.rec

    jobs_ratio = jobs_probe(work)
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics = layer_metrics(summarize(setup_rec), passes, overhead, jobs_ratio)
    counts_repeat = all(p["calls"] == passes[0]["calls"]
                        and _exact(p["counters"]) == _exact(passes[0]["counters"])
                        for p in passes)
    details = {"import_s": import_s, "passes": len(passes),
               "plain_walls_s": plain_walls, "traced_walls_s": traced_walls,
               "counts_repeat": counts_repeat}
    spans = {"fields": ["name", "start", "end", "parent", "request"],
             "setup": setup_rec.rows(), "first_traced_pass": first_pass.rows()}
    return metrics, 2 * len(passes) * len(work), failures, details, spans


def _exact(counters) -> dict:
    """Counters that must repeat exactly; the CLI's output carries timings,
    so its length moves by a few bytes from pass to pass."""
    return {k: v for k, v in counters.items() if k != "cli.output_bytes"}


def jobs_probe(work) -> float:
    """Oracle time at jobs=2 over jobs=1 on the decisions of one round."""
    from scatterpoly import scatter

    totals = {1: 0.0, 2: 0.0}
    for item in work:
        for jobs in (1, 2):
            t0 = time.perf_counter()
            scatter.is_scattered_bruteforce(item.ctx, item.poly, item.t, jobs=jobs)
            totals[jobs] += time.perf_counter() - t0
    return totals[2] / totals[1]


def layer_metrics(setup: dict, passes: list[dict], overhead: float,
                  jobs_ratio: float) -> dict:
    """Per-layer figures: set-up once plus one pass over round 0.

    Times are medians over the traced passes; counts come from the first pass
    (they repeat exactly from pass to pass).
    """
    def busy(key):
        return setup["busy"][key] + statistics.median(p["busy"][key] for p in passes)

    def own(key):
        return setup["self"][key] + statistics.median(p["self"][key] for p in passes)

    def calls(key):
        return setup["calls"][key] + passes[0]["calls"][key]

    def counter(key):
        return setup["counters"][key] + passes[0]["counters"][key]

    elements = counter("field.elements")
    eval_s = busy("linpoly.evaluate_many")
    dispatches = calls("criteria.dispatch")
    top_share = statistics.median(p["root_s"] / p["wall_s"] for p in passes)
    return {
        "field.build_s": (busy("field.build"), "s"),
        "field.build_calls": (calls("field.build"), "count"),
        "field.table_bytes_per_element": (
            counter("field.table_bytes") / elements if elements else 0.0, "B"),
        "field.scalar_calls": (counter("field.scalar_calls"), "count"),
        "linpoly.evaluate_many_s": (eval_s, "s"),
        "linpoly.evaluate_many_calls": (calls("linpoly.evaluate_many"), "count"),
        "linpoly.points_evaluated": (counter("linpoly.points"), "count"),
        "linpoly.points_per_busy_s": (
            counter("linpoly.points") / eval_s if eval_s else 0.0, "1/s"),
        "linpoly.evaluate_many_bytes_computed": (counter("linpoly.bytes"), "B"),
        "linpoly.rho_transform_s": (busy("linpoly.rho_transform"), "s"),
        "linpoly.rho_transform_calls": (calls("linpoly.rho_transform"), "count"),
        "scatter.oracle_s": (busy("scatter.oracle"), "s"),
        "scatter.oracle_calls": (calls("scatter.oracle"), "count"),
        "scatter.oracle_self_s": (own("scatter.oracle"), "s"),
        "scatter.oracle_self_s.scattered": (own("scatter.oracle.scattered"), "s"),
        "scatter.oracle_self_s.not_scattered": (own("scatter.oracle.not_scattered"), "s"),
        "scatter.points_scanned": (counter("scatter.points_scanned"), "count"),
        "scatter.distinct_ratio_values": (counter("scatter.distinct_ratio_values"), "count"),
        "scatter.permutation_s": (busy("scatter.permutation"), "s"),
        "scatter.permutation_calls": (calls("scatter.permutation"), "count"),
        "scatter.pp_s": (busy("scatter.pp"), "s"),
        "scatter.pp_self_s": (own("scatter.pp"), "s"),
        "scatter.oracle_jobs2_over_jobs1": (jobs_ratio, "ratio"),
        "cyclotomic.coefficient_table_s": (busy("cyclotomic.coefficient_table"), "s"),
        "cyclotomic.coefficient_table_calls": (
            calls("cyclotomic.coefficient_table"), "count"),
        "cyclotomic.cosets_tabulated": (counter("cyclotomic.cosets"), "count"),
        "criteria.dispatch_s": (busy("criteria.dispatch"), "s"),
        "criteria.dispatch_calls": (dispatches, "count"),
        "criteria.applicable_share": (
            counter("criteria.deciding_dispatches") / dispatches if dispatches else 0.0,
            "share"),
        "criteria.reduction_s": (busy("criteria.reduction"), "s"),
        "criteria.reduction_calls": (calls("criteria.reduction"), "count"),
        "verify.coset_check_self_s": (own("verify.coset_check"), "s"),
        "cli.request_s": (busy("cli.request"), "s"),
        "cli.self_s": (own("cli.request"), "s"),
        "cli.output_bytes": (counter("cli.output_bytes"), "B"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.top_level_share": (top_share, "share"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, import_s = load_program()
    wl = workloads.WORKLOADS[args.workload]()
    spans = None
    if args.trace:
        metrics, attempted, failures, details, spans = traced(
            wl, args.seed, args.seconds, import_s)
    else:
        metrics, attempted, failures, details = end_to_end(
            wl, args.seed, args.seconds, import_s)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, environment=environment(args.seed),
                  failed_share=len(failures) / attempted,
                  failures=failures[:MAX_RECORDED_FAILURES], details=details)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"{args.workload} seed {args.seed}: {attempted} decisions, "
          f"{len(failures)} failed (failed_share {len(failures) / attempted:.4g})"
          + (f", pool of {details['decisions']}, tail at p{details['tail_percentile']:g},"
             f" host-speed samples {details['host_speed']['samples']}"
             if "tail_percentile" in details else ""))
    for failure in failures[:MAX_RECORDED_FAILURES]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
