"""The served workload: a real ``repro serve`` process driven over HTTP.

The load process (this one) drives the server with closed-loop clients: each
client sends its next request only after the previous response arrived.

``serve-cold`` measures two clients POSTing one single-panel spec (NF search
curve on HAPA, m=2, scale ``small``) with a distinct seed per request, so
every request computes and writes the result store.  ``small`` has two
realizations, so each request fans two tasks into the server's ``--jobs 2``
worker pool.  After the measured phase one client replays ``WARM_REPLAYS``
of the computed (spec, seed) pairs in a seed-shuffled order: each answer must
come from the store's read path and equal its cold answer, and the traced
run reports that phase's numbers per layer.

Set-up is spawn to the first 200 from ``/healthz`` plus one untimed warm-up
cold request that starts the lazy worker pool, repeated ``SETUP_REPEATS``
times (a fresh server and store each time); the last server is the one
measured.  Peak memory is read when the measured phase has its minimum
number of responses, so it does not grow with throughput.  With ``trace``
the server and its pool workers run under the benchmark's layer wrappers
(``perfbench/traced_serve.py``) and ``/metrics`` is scraped before and after
each phase.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.common import (
    ROOT,
    TMP_ROOT,
    child_pids,
    digest,
    median,
    metric,
    percentile,
    program_env,
    vm_hwm_mb,
)

SPEC: Dict[str, Any] = {
    "id": "perfbench-nf-hapa",
    "title": "Normalized flooding on HAPA",
    "topology": {"model": "hapa", "stubs": 2},
    "label": "hapa m={m}",
    "measurement": {"kind": "search-curve", "algorithm": "nf"},
}
#: The preset with more than one realization, the smallest that reaches the
#: worker pool.  HAPA with a hard cutoff costs seconds per request at this
#: size, so the served spec has none; the batch workloads measure the cutoff.
SCALE = "small"
#: Closed-loop clients of the measured cold phase.
CLIENTS = 2
SETUP_REPEATS = 3
MIN_COLD = 100
WARM_REPLAYS = 1000
#: The client latency percentile reported as the tail.  p90 has ten samples
#: beyond it at the 100-request minimum; the warm p99 is dominated by
#: scheduling stalls on a busy 2-core host and varied 2.6x between runs.
TAIL_PERCENTILE = 90
#: Cold requests re-run in this process and compared with the served result.
VERIFIED_COLD = 4
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0

_BODY = json.dumps(SPEC).encode("utf-8")


class Server:
    """One ``repro serve`` child process on an ephemeral port with a fresh store."""

    def __init__(self, name: str, trace: bool) -> None:
        self.workdir = TMP_ROOT / name
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.log_path = self.workdir / "server.log"
        self.report_dir = self.workdir / "layers"
        command = [
            "serve", "--port", "0", "--jobs", "2", "--scale", SCALE,
            "--cache", str(self.workdir / "cache"), "--quiet",
        ]
        if trace:
            prefix = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"),
                      str(self.report_dir)]
        else:
            prefix = [sys.executable, "-m", "repro"]
        self._log = open(self.log_path, "wb")
        try:
            self.process = subprocess.Popen(
                prefix + command, cwd=ROOT, env=program_env(),
                stdout=subprocess.DEVNULL, stderr=self._log,
            )
        except OSError:
            self._log.close()
            raise
        self.port = 0

    def wait_ready(self) -> None:
        """Block until the port is announced and ``/healthz`` answers 200."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not self.port:
            self._check_alive(deadline)
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.005)
        while True:
            self._check_alive(deadline)
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.process.returncode}: "
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        if time.perf_counter() > deadline:
            raise RuntimeError("server did not become ready in time")

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def submit(self, seed: int) -> Tuple[int, bytes]:
        return self.request("POST", f"/scenarios?scale={SCALE}&seed={seed}", _BODY)

    def metrics(self) -> Dict[str, Any]:
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(payload)

    def peak_rss_mb(self) -> float:
        pid = self.process.pid
        return vm_hwm_mb(pid) + sum(vm_hwm_mb(child) for child in child_pids(pid))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()

    def layer_reports(self) -> List[Dict[str, Any]]:
        """The wrapper tables of the server and each of its pool workers."""
        return [json.loads(path.read_text()) for path in sorted(self.report_dir.glob("*.json"))]


def closed_loop(
    server: Server,
    seeds: Iterator[int],
    seconds: float,
    minimum: int,
    record: Callable[[int, int, bytes, float], None],
    clients: int = CLIENTS,
) -> Tuple[float, float]:
    """Drive ``clients`` closed-loop clients until ``seconds`` pass and ``minimum`` ran.

    Returns the phase's wall time and the server's peak memory when the
    ``minimum``-th response arrived.
    """
    lock = threading.Lock()
    sent = [0]
    done = [0]
    peak_rss: List[float] = []
    errors: List[BaseException] = []
    started = time.perf_counter()

    def client() -> None:
        try:
            while True:
                with lock:
                    if sent[0] >= minimum and time.perf_counter() - started >= seconds:
                        return
                    sent[0] += 1
                    seed = next(seeds)
                begun = time.perf_counter()
                try:
                    status, body = server.submit(seed)
                except (OSError, http.client.HTTPException) as error:
                    # A refused or dropped request is a failed operation.
                    status, body = 0, repr(error).encode()
                record(seed, status, body, time.perf_counter() - begun)
                with lock:
                    done[0] += 1
                    reached = done[0] == minimum
                if reached:
                    peak_rss.append(server.peak_rss_mb())
        except BaseException as error:  # re-raised by the caller
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - started, peak_rss[0]


class Outcomes:
    """Latencies, result digests and failures of one phase."""

    def __init__(self, expect_cached: bool, cold: Optional[Dict[int, str]] = None) -> None:
        self.expect_cached = expect_cached
        self.cold = cold
        self.latencies: List[float] = []
        self.digests: Dict[int, str] = {}
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def record(self, seed: int, status: int, body: bytes, seconds: float) -> None:
        value, failure = self._check(seed, status, body)
        with self._lock:
            self.latencies.append(seconds)
            if value is not None:
                self.digests.setdefault(seed, value)
            if failure is not None:
                self.failures.append(failure)

    def _check(self, seed: int, status: int, body: bytes) -> Tuple[Optional[str], Optional[str]]:
        """(result digest, failure) of one response."""
        if status != 200:
            return None, f"seed {seed}: HTTP {status} {body[:200]!r}"
        try:
            payload = json.loads(body)
        except ValueError:
            return None, f"seed {seed}: malformed response {body[:200]!r}"
        if payload.get("status") != "done" or "result" not in payload:
            return None, f"seed {seed}: job {payload.get('status')}"
        value = digest(payload["result"])
        if payload.get("from_cache") is not self.expect_cached:
            return value, f"seed {seed}: from_cache={payload.get('from_cache')}"
        if self.cold is not None and self.cold.get(seed) != value:
            return value, f"seed {seed}: warm result differs from its cold result"
        return value, None


def verify_in_process(seeds: List[int], served: Dict[int, str]) -> List[str]:
    """Re-run a fixed subset of cold requests through ``run_scenario`` and compare."""
    from repro.experiments.runner import ExperimentScale
    from repro.scenarios import ScenarioSpec, run_scenario

    spec = ScenarioSpec.from_dict(SPEC)
    failures = []
    for seed in seeds:
        expected = digest(run_scenario(spec, scale=ExperimentScale.from_name(SCALE, seed)).as_dict())
        if served.get(seed) != expected:
            failures.append(f"seed {seed}: served result differs from run_scenario")
    return failures


def _delta(after: Dict[str, Any], before: Dict[str, Any], name: str) -> float:
    return float(after["counters"].get(name, 0)) - float(before["counters"].get(name, 0))


def _service_mean(after: Dict[str, Any], before: Dict[str, Any]) -> float:
    """Mean of the server's request-latency histogram over one phase (exact, not bucketed)."""
    name = "serve.request_seconds"
    late = after["histograms"][name]
    early = before["histograms"].get(name, {"total": 0.0, "count": 0})
    return (late["total"] - early["total"]) / (late["count"] - early["count"])


def start_servers(run_id: str, trace: bool, warm_up_seed: int) -> Tuple[Server, List[float]]:
    """Set up ``SETUP_REPEATS`` times; keep the last server running.

    Server directories live under ``TMP_ROOT``, which ``run.py`` removes.
    """
    samples = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = Server(f"{run_id}-{index}", trace)
        try:
            server.wait_ready()
            status, body = server.submit(warm_up_seed - index)
        except BaseException:
            server.stop()
            raise
        samples.append(time.perf_counter() - started)
        if status != 200:
            server.stop()
            raise RuntimeError(f"warm-up request failed: HTTP {status} {body[:200]!r}")
    assert server is not None
    return server, samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    # Seeds of this run: base + i for the measured requests, the top of the
    # block for the set-up warm-ups.
    base = seed * 1_000_000
    server, setup = start_servers(f"{workload}-{seed}", trace, base + 999_999)
    cold = Outcomes(expect_cached=False)
    warm = Outcomes(expect_cached=True, cold=cold.digests)
    try:
        scrapes = [server.metrics()]
        wall, peak_rss = closed_loop(
            server, itertools.count(base), seconds, MIN_COLD, cold.record
        )
        scrapes.append(server.metrics())
        if cold.digests:
            pairs = _shuffled_forever(sorted(cold.digests), random.Random(seed))
            closed_loop(server, pairs, 0.0, WARM_REPLAYS, warm.record, clients=1)
        scrapes.append(server.metrics())
    finally:
        server.stop()

    failures = cold.failures + warm.failures
    failures += verify_in_process(sorted(cold.digests)[:VERIFIED_COLD], cold.digests)
    latencies = cold.latencies
    outcome: Dict[str, Any] = {
        "attempted": len(cold.latencies) + len(warm.latencies),
        "failures": failures,
        "samples": latencies,
    }
    if trace:
        outcome["layers"] = serve_layers(scrapes, warm.latencies, server.layer_reports())
        return outcome
    outcome["metrics"] = {
        "time_to_result_s": metric(median(latencies), "s"),
        "tail_time_to_result_s": metric(percentile(latencies, TAIL_PERCENTILE), "s"),
        "results_per_s": metric(len(latencies) / wall, "1/s"),
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    return outcome


def _shuffled_forever(pairs: List[int], shuffler: random.Random) -> Iterator[int]:
    """Every pair once per round, each round in a new shuffled order."""
    while True:
        order = list(pairs)
        shuffler.shuffle(order)
        yield from order


def serve_layers(
    scrapes: List[Dict[str, Any]],
    warm_latencies: List[float],
    reports: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Per-layer numbers of a traced serve run: ``/metrics`` deltas and wrapper totals."""
    from perfbench.layers import LayerTracer

    first, last = scrapes[0], scrapes[-1]
    values: Dict[str, float] = {}
    cold_mean = _service_mean(scrapes[1], first)
    values["serve.cold.service_mean_s"] = cold_mean
    service_ms = _service_mean(last, scrapes[1]) * 1e3
    values["serve.warm.service_mean_ms"] = service_ms
    values["serve.warm.http_overhead_ms"] = statistics.fmean(warm_latencies) * 1e3 - service_ms
    values["serve.cold_misses"] = _delta(last, first, "serve.cold_misses")
    values["serve.warm_hits"] = _delta(last, first, "serve.warm_hits")
    values["serve.errors"] = _delta(last, first, "serve.errors")
    values["engine.store.hits"] = float(last["store"]["hits"] - first["store"]["hits"])
    values["engine.store.misses"] = float(last["store"]["misses"] - first["store"]["misses"])
    values["engine.store.put_count"] = float(last["store"]["entries"] - first["store"]["entries"])
    # The wrappers ran in the server and its pool workers for their whole
    # life, the warm-up request included, so per cold computation.  The two
    # realizations of one request run side by side in the pool, so their sum
    # can exceed the request's service time and the remainder read below 0.
    computations = float(last["counters"].get("serve.computations", 0))
    tracer = LayerTracer.from_exports(reports)
    values.update(tracer.layer_metrics(computations))
    values["engine.unattributed_s"] = cold_mean - tracer.attributed_s() / computations
    return values
