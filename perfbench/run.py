"""The repository benchmark: the grammar service, end to end and per layer.

    python3 perfbench/run.py --workload parse-short --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The system under test is the real
server, ``repro serve --format bin``, started as its own process on an
ephemeral port with a fresh artifact store.  This process generates the
workload from ``--seed``, sets the server up (spawn, compile the
grammars, open the sessions) several times and keeps the median set-up
time, then drives the last server over one keep-alive connection in a
closed loop for ``--seconds`` and checks every response against an
independent reference (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates served passes with in-process replays of the
same requests, layer by layer (``layers.py``), and reports the
per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the run writes goes under ``.perfbench_run/``
in the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

import served

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The loop is cut into windows of whole passes at least this long.
#: Rates are medians over windows, which keeps short stalls of a shared
#: machine from moving them.
WINDOW_SECONDS = 0.5
#: Latency percentiles are medians over blocks of whole windows holding at
#: least this many samples each (a run with fewer makes one block).
BLOCK_SAMPLES = 1000
#: A shared virtual machine's speed drifts by a third over minutes, and
#: its hypervisor now and then holds its CPUs back for whole seconds
#: (steal time).  So after each window the calibration loop (the median
#: of three runs of this many iterations) times how fast the machine runs
#: just then, and /proc/stat tells how long the CPUs were held back
#: during the window.  A window's timings leave the held-back time out
#: and are scaled by ``calibration / REFERENCE_MS``: they read as they
#: would on a machine where the loop takes REFERENCE_MS (an otherwise
#: idle 2.1 GHz Xeon vCPU under CPython 3.11).  Units of such timings
#: carry ``ref_``.
CALIBRATION_ITERATIONS = 40000
REFERENCE_MS = 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.NAMES)})", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    print("environment " + json.dumps(_environment(args.seed), sort_keys=True))
    begin = time.perf_counter()
    workload = workloads.build(args.workload, args.seed)
    print(f"inputs: {len(workload.warmup)} set-up and {len(workload.requests)} loop "
          f"requests, generated in {time.perf_counter() - begin:.1f}s")

    run_dir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.trace:
            values, attempted, failed = _traced(workload, run_dir, args.seconds)
        else:
            values, attempted, failed = _untraced(workload, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    for name, unit in units.items():
        print(f"  {name:30s} {values[name]:16.4f} {unit}")
    print(f"  {'failed_share':30s} {failed / attempted:16.4f} share "
          f"({failed} of {attempted} requests)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


# -- set-up and the served loop ---------------------------------------------


def _start(workload, run_dir: str, label: str):
    """Spawn a server on a fresh store and send the warm-up requests;
    returns ``(server, connection, store, seconds, failed warm-ups)``."""
    store = os.path.join(run_dir, f"store-{label}")
    begin = time.perf_counter()
    server = served.Server(ROOT, store, os.path.join(run_dir, "server.log"))
    try:
        connection = served.Connection(server.port)
        failed = 0
        for request in workload.warmup:
            status, body = connection.exchange(served.Connection.wire(request.path, request.body))
            failed += not request.check(status, body)
    except BaseException:
        server.stop()
        raise
    return server, connection, store, time.perf_counter() - begin, failed


def _serve(workload, connection, seconds: float, first_pass: int = 0, **windows):
    requests = workload.requests
    fixed = [None if r.renamed else served.Connection.wire(r.path, r.body) for r in requests]

    def wires(number: int, index: int) -> bytes:
        request = requests[index]
        return fixed[index] or served.Connection.wire(request.path, request.body_for_pass(number))

    return served.closed_loop(connection, wires, len(requests), seconds, first_pass, **windows)


def _failures(workload, loop) -> int:
    verdicts = {}
    failed = 0
    for index, status, body, *_ in loop.records:
        key = (index, status, body)
        if key not in verdicts:
            verdicts[key] = workload.requests[index].check(status, body)
        failed += not verdicts[key]
    return failed


def _untraced(workload, run_dir: str, seconds: float):
    setup_times = []
    failed = 0
    for attempt in range(SETUPS):
        server, connection, store, took, warm_failed = _start(workload, run_dir, str(attempt))
        setup_times.append(took)
        failed += warm_failed
        if attempt < SETUPS - 1:
            connection.close()
            server.stop()
    try:
        # One untimed pass first, so the loop is measured warm.  After it
        # the store holds every artifact the workload writes: compile-cold
        # writes one per request, the others write only during set-up.
        warm = _serve(workload, connection, 0.0)
        artifact_bytes = served.store_bytes(store)
        loop = _serve(workload, connection, seconds, first_pass=1,
                      window=WINDOW_SECONDS, calibrate=_Gauge())
        rss = server.peak_rss_mb()
    finally:
        connection.close()
        server.stop()
    failed += _failures(workload, warm) + _failures(workload, loop)
    rates, token_rates, blocks = [], [], [_Block()]
    for window in loop.windows:
        calibration, stolen = window.gauge
        speed = calibration / REFERENCE_MS
        # Held-back time stalls some requests, not all: it counts against
        # the rates, while latencies are scaled by the machine's speed alone.
        running = max(window.seconds - stolen, window.seconds / 2)
        slowdown = speed * window.seconds / running
        records = loop.records[window.first:window.end]
        rates.append(len(records) / window.seconds * slowdown)
        tokens = sum(workload.requests[r[0]].tokens for r in records)
        token_rates.append(tokens / window.seconds * slowdown)
        if len(blocks[-1].latencies) >= BLOCK_SAMPLES:
            blocks.append(_Block())
        blocks[-1].add([r[3] / speed for r in records], stolen, window.seconds)
    if len(blocks) > 1 and len(blocks[-1].latencies) < BLOCK_SAMPLES:
        last = blocks.pop()
        blocks[-1].add(last.latencies, last.stolen, last.seconds)
    # Stalls while the CPUs are held back would set the tail; the quieter
    # half of the blocks gives the tail the program makes.
    quiet = sorted(blocks, key=lambda block: block.stolen / block.seconds)
    quiet = quiet[:(len(quiet) + 1) // 2]
    values = {
        "throughput_rps": statistics.median(rates),
        "latency_p50_ms": statistics.median(statistics.median(b.latencies) for b in quiet),
        "latency_p95_ms": statistics.median(
            statistics.quantiles(b.latencies, n=20, method="inclusive")[18] for b in quiet
        ),
        "tokens_per_s": statistics.median(token_rates),
        "server_rss_mb": rss,
        "artifact_bytes": artifact_bytes,
        "setup_s": statistics.median(setup_times),
    }
    calibrations = sorted(window.gauge[0] for window in loop.windows)
    stolen = sum(window.gauge[1] for window in loop.windows)
    print(f"workload {workload.name}, seed {workload.seed}: closed loop, 1 keep-alive "
          f"connection, {len(loop.records)} requests in {loop.seconds:.2f}s of serving, "
          f"{len(loop.windows)} windows of whole passes; latency percentiles are medians "
          f"over the quieter {len(quiet)} of {len(blocks)} blocks of "
          f"{min(len(b.latencies) for b in blocks)} or more samples each")
    print(f"calibration per window: {calibrations[0]:.2f} to {calibrations[-1]:.2f} ms, "
          f"median {statistics.median(calibrations):.2f} ms (reference {REFERENCE_MS} ms); "
          f"CPUs held back {stolen:.2f}s")
    print(f"set-up times: {', '.join(f'{t:.3f}s' for t in setup_times)}")
    return values, len(warm.records) + len(loop.records), failed


def _traced(workload, run_dir: str, seconds: float):
    """Served, untraced and traced passes interleaved, so a slow spell of
    the machine hits all three alike."""
    import layers

    replay = layers.Replay(workload, os.path.join(run_dir, "replay-store"))
    replay.prepare()
    server, connection, _, _, failed = _start(workload, run_dir, "traced")
    served_ms = {index: [] for index in range(len(workload.requests))}
    attempted = 0
    try:
        started = time.perf_counter()
        number = 0
        while number < 2 or time.perf_counter() - started < seconds:
            loop = _serve(workload, connection, 0.0, first_pass=number)
            failed += _failures(workload, loop)
            attempted += len(loop.records)
            if number:  # the first pass only warms the server up
                for record in loop.records:
                    served_ms[record[0]].append(record[3])
                replay.step(number)
            number += 1
    finally:
        connection.close()
        server.stop()
    values = replay.metrics(served_ms)
    print(f"workload {workload.name}, seed {workload.seed}: per-layer medians over "
          f"{number - 1} rounds of one served, one untraced and one traced pass")
    print(f"coverage {values['coverage']:.3f}, service.residual_us "
          f"{values['service.residual_us']:.1f}, tracing overhead "
          f"{values['trace.overhead_us']:.1f} us per request")
    print(f"reason: {_reason(workload.name, values)}")
    return values, attempted, failed


def _reason(name: str, v) -> str:
    """Whether the traced run bears out why the workload was chosen."""
    if name == "parse-short":
        holds = v["grammar.resolve_us"] > v["parser.engine_us"]
        claim = "grammar resolution exceeds the LR engine"
    elif name == "parse-long":
        holds = max(v["parser.engine_us"], v["parser.glr_us"]) > v["grammar.resolve_us"]
        claim = "engine time exceeds grammar resolution"
    elif name == "compile-cold":
        build = sum(v[k] for k in ("automaton.lr0_ms", "core.lalr_ms",
                                   "tables.build.fill_ms", "tables.binfmt.encode_ms"))
        holds = build * 1e3 > v["service.protocol.decode_us"] + v["service.render_us"]
        claim = "build layers plus encode exceed protocol decode plus render"
    else:
        holds = v["pipeline.session.splice_share"] == 1.0
        claim = "every edit is served by a splice"
    return f"{claim}: {'holds' if holds else 'DOES NOT HOLD'}"


# -- environment -------------------------------------------------------------


def _environment(seed: int) -> dict:
    """Where the run happened; reported only, never gated."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": seed,
        "calibration_ms": _calibration_ms(),
    }


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _calibration_ms() -> float:
    """The calibration loop at start-up: the machine-speed yardstick for
    comparing runs across machines."""
    return statistics.median(_loop_ms(200000) for _ in range(5))


class _Block:
    """Latencies of consecutive windows and how long the CPUs were held
    back while they were served."""

    def __init__(self):
        self.latencies = []
        self.stolen = 0.0
        self.seconds = 0.0

    def add(self, latencies, stolen: float, seconds: float) -> None:
        self.latencies.extend(latencies)
        self.stolen += stolen
        self.seconds += seconds


class _Gauge:
    """Called after each window: the calibration loop's time just then, in
    ms, and the seconds the CPUs were held back since the last call."""

    def __init__(self):
        self.mark = _steal_seconds()

    def __call__(self):
        stolen = _steal_seconds() - self.mark
        calibration = statistics.median(_loop_ms(CALIBRATION_ITERATIONS) for _ in range(3))
        self.mark = _steal_seconds()
        return calibration, stolen


def _steal_seconds() -> float:
    """Steal time of all CPUs so far: the hypervisor ran something else
    while they had work (0 where the kernel does not count it)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _loop_ms(iterations: int) -> float:
    """CPU time of a fixed pure-Python loop, in ms.  CPU time leaves out
    steal time, which the gauge counts on its own."""
    begin = time.thread_time()
    value = 0
    for i in range(iterations):
        value = (value * 31 + i) % 1000003
    return (time.thread_time() - begin) * 1e3


if __name__ == "__main__":
    sys.exit(main())
