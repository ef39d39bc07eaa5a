"""Latency ledger: one end-to-end benchmark of the diff service.

Run from the repository root::

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out results.json]
        [--spans spans.jsonl]

For each workload (default: all four) the benchmark

1. sets up a real ``python -m repro.cli serve --port 0`` subprocess three
   times (spawn to ``/healthz`` ready, plus the workload's warm-up pass)
   and keeps the last one; ``setup_s`` is the median;
2. drives it for ``--seconds`` from this one process with closed-loop
   client threads (at most ``nproc``), each holding one keep-alive
   connection and sending with ``request_once`` (no retries);
3. checks every response: status, expected source, replay of the script
   on its old tree (isomorphic to the new tree) and the conservation law
   #INS - #DEL = |new| - |old|; then requires a clean SIGTERM drain;
4. with ``--trace 1``, replays the workload in-process through the
   server's public functions (``replay.py``) for the per-layer numbers.

Times are speed-adjusted: each is scaled by how fast a fixed probe loop
ran on the machine during the same phase (see :class:`SpeedProbe`); the
unscaled values go to ``--out`` as ``raw``.

Every metric is printed as ``workload metric value unit``. The last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``; keys are ``workload/metric`` when several
workloads ran). A failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.core.errors import ReproError  # noqa: E402
from repro.core.isomorphism import trees_isomorphic  # noqa: E402
from repro.core.serialization import tree_from_dict  # noqa: E402
from repro.editscript.script import EditScript  # noqa: E402
from repro.serve.client import DiffServiceClient  # noqa: E402
from repro.serve.protocol import PROTOCOL  # noqa: E402
from repro.service.engine import JobResult  # noqa: E402

import replay  # noqa: E402
import workloads  # noqa: E402

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: End-to-end metrics and their units (the ``end_to_end`` of BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "server_rss_mb": "MB",
}
#: Per-layer metrics and their units (the ``per_layer`` of BENCHMARK.json).
PER_LAYER = {
    **{f"{layer}.ms": "ms" for layer in replay.LAYERS + ("other",)},
    **{f"{layer}.share": "fraction" for layer in replay.LAYERS + ("other",)},
    "match.leaf_compare.ms": "ms",
    "match.leaf_compare.share": "fraction",
    "match.leaf_compare.accept_ratio": "fraction",
    "match.us_per_node": "us/node",
    "protocol.build.us_per_node": "us/node",
    "match.r1": "count",
    "match.r2": "count",
    "match.lcs_calls": "count",
    "postprocess.repairs": "count",
    "editscript.ops": "count",
    "engine.wall_ms": "ms",
    "engine.stage_other_ms": "ms",
    "serve.overhead_ms": "ms",
    "cache.hit_ratio": "fraction",
    "digest.short_circuit_ratio": "fraction",
    "router.affinity_hit_ratio": "fraction",
    "router.worker_max_share": "fraction",
    "trace.overhead_ratio": "ratio",
}
#: Units that are times, scaled by the speed probe.
TIME_UNITS = ("s", "ms", "us/node")

#: The speed probe: PROBE_ITERATIONS of a fixed loop every PROBE_INTERVAL_S.
PROBE_ITERATIONS = 20_000
PROBE_INTERVAL_S = 0.1
#: Median CPU time of one probe on the machine the bounds were measured on
#: (2-vCPU x86-64 VM, CPython 3.11).
REFERENCE_PROBE_S = 0.0019
#: The service's times move as the probe's to this power: part of a request
#: waits on memory and the kernel, which the host's slowdowns touch less
#: than a register-bound loop. Of 0, 0.5, 0.75 and 1, it left the least
#: run-to-run spread over 150 runs in four rounds (see README.md).
PROBE_EXPONENT = 0.75


class SpeedProbe:
    """Tracks how fast the machine runs Python while the benchmark runs.

    On the 2-vCPU VM the bounds were measured on, a fixed loop runs up to
    twice as slowly for a minute at a time, with no steal time: the host
    slows the vCPUs down. Every PROBE_INTERVAL_S a thread times a fixed loop by
    its own CPU time (``time.thread_time``, so waiting for a core or the
    GIL does not count). :meth:`scale` over a phase is REFERENCE_PROBE_S
    over the median probe time in it, to the power PROBE_EXPONENT; a time
    multiplied by it is the time the phase would have taken at the
    reference speed.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  #: (perf_counter, probe CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            started = time.thread_time()
            total = 0
            for i in range(PROBE_ITERATIONS):
                total += i * i % 7
            self.samples.append((time.perf_counter(), time.thread_time() - started))
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def scale(self, start: float, end: float) -> float:
        costs = [cost for at, cost in self.samples if start <= at <= end]
        if not costs:  # a phase shorter than one probe interval
            middle = (start + end) / 2.0
            costs = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return (REFERENCE_PROBE_S / statistics.median(costs)) ** PROBE_EXPONENT


# ---------------------------------------------------------------------------
# The server under test
# ---------------------------------------------------------------------------
class ServerProcess:
    """One ``repro-diff serve`` subprocess, in its own process group so
    that cluster workers can be stopped with it."""

    def __init__(self, processes: int, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--workers", str(processes)]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
            banner = self.proc.stdout.readline() if ready else ""
            if "listening on" not in banner:
                raise RuntimeError(f"server did not start: {banner!r}")
            self.port = int(banner.rsplit(":", 1)[1])
            with DiffServiceClient(port=self.port, retries=0) as client:
                if not client.wait_ready(timeout=timeout, interval=0.005):
                    raise RuntimeError("server bound its port but /healthz never answered")
        except BaseException:
            self.kill()
            raise

    def counters(self) -> Dict[str, int]:
        with DiffServiceClient(port=self.port, retries=0) as client:
            return client.request_once("GET", "/metrics")[1]["counters"]

    def pids(self) -> List[int]:
        """Live processes of this server's group: the server, and in
        cluster mode its router-supervised workers."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # the process ended while we looked
            if fields[0] != "Z" and int(fields[2]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def rss_mb(self) -> float:
        """Peak resident memory (``VmHWM``) summed over the process group."""
        total_kb = 0
        for pid in self.pids():
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                total_kb += sum(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGTERM and wait; True on a clean drain (exit 0, final METRICS)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            stdout, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stdout = ""
        clean = self.proc.returncode == 0 and any(
            line.startswith("METRICS ") for line in stdout.splitlines()
        )
        if not clean:
            self.kill()
        return clean

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until it is gone."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.communicate()
        deadline = time.monotonic() + 10.0
        while self.pids() and time.monotonic() < deadline:
            time.sleep(0.05)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    seq: int  #: position in the phase's send order
    index: int  #: request body index
    latency_ms: float
    status: int
    body: Dict[str, Any]
    worker: Optional[str]  #: X-Worker-Id (cluster only)


@dataclass
class Phase:
    samples: List[Sample] = field(default_factory=list)
    start: float = 0.0  #: perf_counter when the first request went out
    end: float = 0.0  #: perf_counter when the last response came back


def drive(port: int, workload: workloads.Workload, order: Sequence[int],
          seconds: Optional[float], wrap: bool) -> Phase:
    """Closed loop: each client sends its next request when the last returns.

    Clients take the next position of *order* until it runs out (or,
    with *wrap*, until *seconds* have passed).
    """
    lock = threading.Lock()
    position = [0]
    phase = Phase(start=time.perf_counter())
    phase.end = phase.start
    deadline = phase.start + seconds if seconds is not None else None

    def client_loop() -> None:
        with DiffServiceClient(port=port, retries=0, timeout=300.0) as client:
            while True:
                with lock:
                    seq = position[0]
                    if (deadline is not None and time.perf_counter() >= deadline) or (
                        seq >= len(order) and not wrap
                    ):
                        return
                    position[0] += 1
                index = order[seq % len(order)]
                sent = time.perf_counter()
                try:
                    status, body, headers = client.request_once(
                        "POST", "/v1/diff", workload.bodies[index]
                    )
                except (OSError, http.client.HTTPException) as exc:
                    status, body, headers = 0, {"error": repr(exc)}, {}
                done = time.perf_counter()
                with lock:
                    phase.end = max(phase.end, done)
                    phase.samples.append(Sample(
                        seq, index, (done - sent) * 1000.0, status, body, headers.get("X-Worker-Id")
                    ))

    threads = [
        threading.Thread(target=client_loop)
        for _ in range(min(workload.clients, len(os.sched_getaffinity(0))))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.samples.sort(key=lambda sample: sample.seq)
    return phase


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def script_replays(body: Dict[str, Any], script: Dict[str, Any]) -> bool:
    """Replay a returned script on its old tree: conservation law, then
    isomorphism with the new tree."""
    old = tree_from_dict(body["old"])
    new = tree_from_dict(body["new"])
    records = script["records"]
    edit = EditScript.from_dicts(records)
    if len(edit.inserts) - len(edit.deletes) != len(new) - len(old):
        return False
    dummy_id = None
    if script["wrapped"]:
        # The dummy root is the one parent neither tree nor script created.
        known = set(old.node_ids()) | {r["node_id"] for r in records if r["op"] == "insert"}
        parents = {r.get("parent_id") for r in records} - known - {None}
        dummy_id = parents.pop() if parents else "svc:d"
    result = JobResult(job_id="check", script=edit, wrapped=script["wrapped"], dummy_id=dummy_id)
    try:
        return trees_isomorphic(result.apply_to(old), new)
    except (ReproError, LookupError, ValueError, TypeError):
        return False


def failed_samples(workload: workloads.Workload, phase: Phase, warmed: bool) -> int:
    """Responses that are not a correct answer from the expected source."""
    failures = 0
    replayed: Dict[Any, bool] = {}
    for sample in phase.samples:
        body = sample.body
        ok = (
            sample.status == 200
            and body.get("status") == "ok"
            and body.get("protocol") == PROTOCOL
            and body.get("source") == workload.expected_source(sample.index, warmed)
            and isinstance(body.get("script"), dict)
        )
        if ok:
            key = (sample.index, json.dumps(body["script"], sort_keys=True))
            if key not in replayed:
                replayed[key] = script_replays(workload.bodies[sample.index], body["script"])
            ok = replayed[key]
        failures += not ok
    return failures


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------
def http_layers(warm: Phase, timed: Phase, before: Dict[str, int],
                after: Dict[str, int]) -> Dict[str, float]:
    """Layer numbers of the untraced run, from response fields and /metrics."""
    ok = [s for s in timed.samples if s.status == 200 and "wall_ms" in s.body]
    jobs = after["jobs_submitted"] - before["jobs_submitted"]
    warm_worker = {s.index: s.worker for s in warm.samples}
    repeats = [s for s in timed.samples if s.index in warm_worker]
    workers = Counter(s.worker for s in timed.samples)
    return {
        "engine.wall_ms": statistics.median(s.body["wall_ms"] for s in ok),
        "engine.stage_other_ms": statistics.fmean(
            s.body["wall_ms"] - sum(s.body["stage_ms"].values()) for s in ok
        ),
        "serve.overhead_ms": statistics.median(s.latency_ms - s.body["wall_ms"] for s in ok),
        "cache.hit_ratio": (after["cache_hits"] - before["cache_hits"]) / jobs,
        "digest.short_circuit_ratio":
            (after["digest_short_circuits"] - before["digest_short_circuits"]) / jobs,
        # One process holds every entry, so single-process runs score 1.
        "router.affinity_hit_ratio": (
            sum(s.worker == warm_worker[s.index] for s in repeats) / len(repeats)
            if repeats else 1.0
        ),
        "router.worker_max_share": max(workers.values()) / len(timed.samples),
    }


def scaled(metrics: Dict[str, float], units: Dict[str, str], scale: float) -> Dict[str, float]:
    """*metrics* with times multiplied and rates divided by *scale*."""
    out = {}
    for name, value in metrics.items():
        if units[name] in TIME_UNITS:
            value *= scale
        elif units[name] == "req/s":
            value /= scale
        out[name] = value
    return out


def run_workload(name: str, args: argparse.Namespace, probe: SpeedProbe) -> Dict[str, Any]:
    workload = workloads.build(name, args.seed, smoke=args.smoke)
    sha = workload.inputs_sha256()
    print(f"{name} inputs_sha256 {sha} sha256", flush=True)
    failures = 0
    setups: List[float] = []
    server: Optional[ServerProcess] = None
    setup_start = time.perf_counter()
    try:
        for _ in range(SETUPS):
            if server is not None:
                failures += not server.stop()
                server = None
            started = time.perf_counter()
            server = ServerProcess(workload.processes)
            warm = drive(server.port, workload, workload.warmup, None, wrap=False)
            setups.append(time.perf_counter() - started)
        setup_scale = probe.scale(setup_start, time.perf_counter())
        before = server.counters()
        timed = drive(server.port, workload, workload.timed, args.seconds,
                      wrap=workload.cycle and not args.smoke)
        after = server.counters()
        rss = server.rss_mb()
    finally:
        if server is not None:
            failures += not server.stop()
    failures += failed_samples(workload, warm, warmed=False)
    failures += failed_samples(workload, timed, warmed=True)
    timed_scale = probe.scale(timed.start, timed.end)
    latencies = [s.latency_ms for s in timed.samples]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    completed = sum(s.status == 200 for s in timed.samples)
    raw: Dict[str, float] = {
        "setup_s": statistics.median(setups),
        "throughput_rps": completed / (timed.end - timed.start),
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "server_rss_mb": rss,
    }
    metrics = scaled({"setup_s": raw["setup_s"]}, END_TO_END, setup_scale)
    metrics.update(scaled({k: v for k, v in raw.items() if k != "setup_s"}, END_TO_END, timed_scale))
    result = {"workload": name, "inputs_sha256": sha, "attempted": len(latencies),
              "failed": failures, "samples": len(latencies),
              "failed_frac": failures / len(latencies), "cpu_scale": timed_scale}
    print(f"{name} samples {len(latencies)} count")
    print(f"{name} cpu_scale {timed_scale:.6g} ratio")
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {END_TO_END[metric]}")
    print(f"{name} failed_frac {result['failed_frac']:.6g} fraction", flush=True)
    if args.trace:
        replay_start = time.perf_counter()
        replayer, mismatches = replay.replay(workload, workload.replay)
        replay_scale = probe.scale(replay_start, time.perf_counter())
        result["failed"] += mismatches
        layers = replay.layer_metrics(replayer.spans)
        http = http_layers(warm, timed, before, after)
        http_wall_ms = statistics.fmean(
            s.body["wall_ms"] for s in timed.samples if s.seq < workload.replay and "wall_ms" in s.body
        )
        http["trace.overhead_ratio"] = layers.pop("engine.replay_ms") / http_wall_ms
        raw.update(layers)
        raw.update(http)
        layers = scaled(layers, PER_LAYER, replay_scale)
        layers.update(scaled(http, PER_LAYER, timed_scale))
        # The replay and the HTTP phase ran at different machine speeds.
        layers["trace.overhead_ratio"] *= replay_scale / timed_scale
        for metric, unit in PER_LAYER.items():
            print(f"{name} {metric} {layers[metric]:.6g} {unit}")
        metrics.update(layers)
        result["spans"] = replayer.spans
    result["metrics"] = metrics
    result["raw"] = raw
    return result


# ---------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of each timed phase (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 (default): also replay in-process for per-layer numbers")
    parser.add_argument("--smoke", action="store_true",
                        help="cut each workload to a few dozen requests")
    parser.add_argument("--out", help="write every metric of every workload to this JSON file")
    parser.add_argument("--spans", help="write the traced replay's spans to this JSONL file")
    args = parser.parse_args(argv)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    with SpeedProbe() as probe:
        results = [run_workload(name, args, probe) for name in names]
    reported = PER_LAYER if args.trace else END_TO_END
    units = {**END_TO_END, **PER_LAYER}
    line_metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for metric in reported:
            line_metrics[prefix + metric] = {"value": result["metrics"][metric], "unit": units[metric]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            for result in results:
                for span in result.get("spans", ()):
                    handle.write(json.dumps({"workload": result["workload"], **span}, sort_keys=True) + "\n")
    if args.out:
        payload = {
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "trace": args.trace,
            "workloads": {
                r["workload"]: {
                    **{k: v for k, v in r.items() if k not in ("spans", "metrics", "workload")},
                    "metrics": {m: {"value": v, "unit": units[m]} for m, v in r["metrics"].items()},
                }
                for r in results
            },
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": line_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
