"""One seeded benchmark for the whole query stack.

Run one workload, or all five one after another (``--workload all``, the
default)::

    python3 perfbench/run.py --workload serve-static --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same seeded inputs with spans around every layer
call and prints the per-layer metrics instead.  The last line of stdout
is the result object; every result is also stamped with provenance and
saved under ``.perfbench_out/``.  Compare two sets of saved results::

    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

Workloads, metrics and the layer each metric belongs to are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
#: set-ups per untraced run (``setup_s`` is their median): at least
#: ``SETUP_MIN``, more while their total stays under ``SETUP_BUDGET`` s
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 5, 15, 3.0
#: set in the measuring child, which must not supervise again
CHILD_ENV = "PERFBENCH_CHILD"
#: seconds the run's leftover processes get to exit before they are killed
REAP_GRACE = 10.0
PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> bool:
    """Have orphaned descendants re-parented to this process (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list[int]:
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # ``pid (comm) state ppid ...``; comm may hold spaces and parens
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap_all(grace: float) -> None:
    """Wait for every child of this process to end; after ``grace``
    seconds, kill what is still running and wait for that too."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child and wait for every process it leaves.

    ``multiprocessing``'s resource tracker outlives the process that
    started it (it exits once it reads EOF on its pipe), and a run that
    fails may strand pool workers.  As a child subreaper this process
    inherits all of them when the child exits and returns only after each
    has ended.  SIGTERM and SIGINT are passed on to the child.
    """
    _become_subreaper()
    child = subprocess.Popen(
        [sys.executable, __file__, *argv], env={**os.environ, CHILD_ENV: "1"}
    )

    def forward(signum, _frame):
        if child.poll() is None:
            child.send_signal(signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_all(REAP_GRACE)
        _unlink_segments(child.pid)
    return code if code >= 0 else 128 - code


def _unlink_segments(pid: int) -> None:
    """Remove the shm graph segments of ``pid`` (named ``xset-<pid hex>-``)
    that a killed run could not unlink itself."""
    import gate

    prefix = f"{gate.SHM_PREFIX}{pid:x}-"
    for name in gate.shm_segments():
        if name.startswith(prefix):
            try:
                (gate.SHM_DIR / name).unlink()
            except FileNotFoundError:
                pass


def _end_to_end(timing, kinds, setup_times, rss) -> dict:
    qps, tasks_per_s = timing.rates(kinds)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_qps": (qps, "queries/s"),
        "latency_p50_ms": (timing.percentile_ms(50, kinds), "ms"),
        "latency_p90_ms": (timing.percentile_ms(90, kinds), "ms"),
        "latency_p99_ms": (timing.percentile_ms(99, kinds), "ms"),
        "sim_tasks_per_s": (tasks_per_s, "tasks/s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def _digest(reports) -> tuple[list[str], str]:
    """Exact work counts of every distinct query, one plain line each."""
    lines = []
    for (gid, pname), r in sorted(reports.items()):
        lines.append(
            f"{gid}/{pname} embeddings={r.embeddings} tasks={r.tasks} "
            f"set_ops={r.set_ops} comparisons={r.comparisons} "
            f"words_in={r.words_in} words_out={r.words_out} "
            f"cycles={r.cycles!r}"
        )
    return lines, hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _service_layers(stats_list, tracer) -> dict:
    hits = sum(s.cache_hits for s in stats_list)
    lookups = hits + sum(s.cache_misses for s in stats_list)
    waits = [s.queue_wait for s in stats_list if s.queue_wait.get("count")]
    return {
        "service.queue_wait_p50_ms": max((w["p50"] for w in waits), default=0.0) * 1e3,
        "service.queue_wait_p99_ms": max((w["p99"] for w in waits), default=0.0) * 1e3,
        "service.cache_hit_rate": hits / lookups if lookups else 0.0,
        "service.cache_hits": hits,
        "service.cache_lookups": lookups,
        "service.retries": sum(s.retries for s in stats_list),
        "service.failed": sum(s.failed for s in stats_list),
        "service.submit_us": statistics.median(tracer.durations("service.submit")) * 1e6,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import gate as gates
    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    gate = gates.CountGate()
    shm_before = gates.shm_segments()

    wl = cls(seed)
    wl.graphs = wl.make_graphs()
    prints = {gid: g.fingerprint() for gid, g in wl.graphs.items()}
    refs = gates.reference_counts(wl.reference_jobs())

    setup_times = []
    while not setup_times or (not trace and (
        len(setup_times) < SETUP_MIN
        or (len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET)
    )):
        if setup_times:
            wl.stop()
        t0 = time.perf_counter()
        wl = cls(seed)
        wl.graphs = wl.make_graphs()
        wl.start()
        reports = wl.warm(gate, refs)
        setup_times.append(time.perf_counter() - t0)
        gate.check(
            "inputs repeat for the seed",
            prints, {gid: g.fingerprint() for gid, g in wl.graphs.items()},
        )

    kinds = wl.weights() if wl.per_kind else None
    loop_tracer = ladder_tracer = None
    try:
        if not trace:
            timing = wl.run(seconds, gate, refs)
            metrics = _end_to_end(timing, kinds, setup_times, gates.peak_rss_mb())
        else:
            plain = wl.run(seconds / 2, gate, refs)
            loop_tracer = Tracer()
            timing = wl.run(seconds / 2, gate, refs, loop_tracer)
            layers = {
                "trace.overhead_frac": 1.0
                - timing.rates(kinds)[0] / plain.rates(kinds)[0],
            }
            own_stats = wl.service_stats()
            notes = wl.cluster_notes()
    finally:
        wl.stop()
    wl.post_check(gate)

    if trace:
        import ladder

        ladder_tracer = Tracer()
        engine, rows = ladder.engine_layers(ladder_tracer, wl, gate)
        layers.update(engine)
        if wl.engine == "event":
            layers.update(ladder.event_layers(ladder_tracer, wl))
        graphs, pairs = ladder.wrapper_queries(wl, rows)
        refs.update(gates.reference_counts(
            {p: (graphs[p[0]], p[1]) for p in pairs if p not in refs}
        ))
        wrap, proc_stats, ladder_notes = ladder.wrapper_layers(
            ladder_tracer, graphs, pairs, gate, refs
        )
        layers.update(wrap)
        # the workload's own service and cluster numbers win over the ladder's
        own_submits = loop_tracer.durations("service.submit")
        layers.update(_service_layers(
            own_stats or [proc_stats],
            loop_tracer if own_submits else ladder_tracer,
        ))
        notes = notes or ladder_notes
        layers["cluster.partials"] = sum(bool(n["partial"]) for n in notes)
        layers["cluster.failovers"] = sum(n.get("failovers", 0) for n in notes)
        layers.update(ladder.graph_layers(ladder_tracer, wl))
        layers.update(ladder.incremental_layers(ladder_tracer, wl, gate))
        layers["sim.cycles"] = sum(r.cycles for r in reports.values())
        layers["sim.tasks"] = sum(r.tasks for r in reports.values())
        layers["error_rate"] = gate.failed / max(gate.attempted, 1)
        units = _layer_units()
        metrics = {k: (v, units[k]) for k, v in layers.items()}

    leaked, late = gates.leaks(shm_before)
    digest_lines, digest = _digest(reports)
    return {
        "gate": gate,
        "leaks": leaked,
        "late": late,
        "metrics": metrics,
        "digest_lines": digest_lines,
        "digest": digest,
        "samples": len(timing.latencies),
        "tracers": (loop_tracer, ladder_tracer),
    }


def _layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # from the command line, measure in a child (``main(argv)`` callers,
    # such as the gate test, measure in their own process)
    if argv is None and not os.environ.get(CHILD_ENV):
        return supervise(sys.argv[1:])
    if argv is None:
        # a terminated run still stops its workload (``finally`` blocks)
        signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    from workloads import WORKLOADS

    if args.workload in (None, "all"):
        # one child per workload: peak RSS and the leak check are per process
        return max(
            subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOADS
        )
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of all, {', '.join(WORKLOADS)}")

    import gate as gates

    meta = gates.provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    gate = res["gate"]
    correct = gate.ok and not res["leaks"]
    for line in res["digest_lines"]:
        print(f"digest {args.workload} {line}")
    print(f"digest {args.workload} sha={res['digest']}")
    print(f"latency samples: {res['samples']}")
    for note in res["late"]:
        print(f"note {note}")
    for problem in gate.problems + res["leaks"]:
        print(f"FAIL {problem}")
    metrics = {
        k: {"value": v, "unit": u} for k, (v, u) in sorted(res["metrics"].items())
    }
    record = {
        "meta": meta,
        "digest": res["digest"],
        "late_teardown": res["late"],
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for k, tracer in zip(("loop", "ladder"), res["tracers"]):
        if tracer is not None:
            tracer.write(OUT_DIR / f"{stem}-{k}-spans.json")
    print("record: " + json.dumps({"meta": meta, "digest": res["digest"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
