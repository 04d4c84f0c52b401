"""Serve-mode equivalence: fingerprints, plan cache, engine, HTTP layer.

The acceptance-critical property lives in
``TestEngineEquivalence.test_warm_hit_does_zero_compile_and_capture``:
a second structurally identical request is a plan-cache hit whose
per-request metrics contain *no* ``compiler_pass_*`` samples and whose
counter deltas show zero capture (``replay_misses``), zero window JIT
(``window_compiles``), and zero intersection work.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.runtime import procs_available
from repro.serve import (
    AdmissionError,
    PlanCache,
    ServeEngine,
    ServeJobError,
    ServeRequest,
    build_problem,
    create_server,
)

# Small, fast request bodies reused across tests.
STENCIL = {"app": "stencil", "tiles": 4, "steps": 6, "shards": 4,
           "backend": "threaded"}
CIRCUIT = {"app": "circuit", "tiles": 4, "steps": 4, "shards": 2,
           "backend": "stepped"}
PENNANT = {"app": "pennant", "tiles": 4, "steps": 4, "size": 8, "shards": 2,
           "backend": "stepped"}


@pytest.fixture
def engine():
    # queue_depth must cover the concurrency test's 9-deep burst.
    eng = ServeEngine(workers=2, cache_size=4, queue_depth=16, max_shards=8)
    try:
        yield eng
    finally:
        eng.shutdown()


def sequential_state(body):
    problem = build_problem(ServeRequest.from_dict(body))
    state, _, _ = problem.run_sequential()
    return state


class TestFingerprint:
    def test_defaults_and_explicit_defaults_agree(self):
        implicit = ServeRequest.from_dict({"app": "stencil"})
        explicit = ServeRequest.from_dict(
            {"app": "stencil", "tiles": 4, "steps": 3, "shards": 4,
             "backend": "threaded", "sync": "p2p", "seed": 0})
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_every_structural_field_perturbs_the_key(self):
        base = ServeRequest.from_dict(dict(STENCIL))
        variants = [
            {"app": "circuit"}, {"tiles": 8}, {"steps": 7}, {"size": 32},
            {"shape": "square"}, {"shards": 2}, {"backend": "stepped"},
            {"sync": "barrier"}, {"seed": 7},
        ]
        seen = {base.fingerprint()}
        for change in variants:
            fp = ServeRequest.from_dict({**STENCIL, **change}).fingerprint()
            assert fp not in seen, f"{change} did not change the fingerprint"
            seen.add(fp)

    @pytest.mark.parametrize("payload, match", [
        ({}, "app"),
        ({"app": "fluidsim"}, "unknown app"),
        ({"app": "stencil", "bogus": 1}, "unknown request field"),
        ({"app": "stencil", "backend": "gpu"}, "bad backend"),
        ({"app": "stencil", "shards": 0}, ">= 1"),
        ({"app": "stencil", "shards": True}, "integer"),
        ({"app": "stencil", "size": -3}, "size"),
        ([], "JSON object"),
    ])
    def test_bad_requests_rejected(self, payload, match):
        with pytest.raises(ValueError, match=match):
            ServeRequest.from_dict(payload)


class TestPlanCache:
    @staticmethod
    def _touch(cache, body):
        req = ServeRequest.from_dict(body)
        entry, hit = cache.checkout(req.fingerprint(), req)
        entry.ready = True  # stand-in for the build; no executor needed
        cache.checkin(entry)
        return hit

    def test_miss_then_hit(self):
        cache = PlanCache(capacity=2)
        assert self._touch(cache, STENCIL) is False
        assert self._touch(cache, STENCIL) is True
        assert self._touch(cache, CIRCUIT) is False
        assert (cache.hit_count, cache.miss_count) == (1, 2)

    def test_lru_eviction_closes_oldest_idle_entry(self):
        cache = PlanCache(capacity=2)
        for body in (STENCIL, CIRCUIT):
            self._touch(cache, body)
        self._touch(cache, STENCIL)  # stencil is now most recently used
        self._touch(cache, PENNANT)  # overflows: circuit is the LRU victim
        stats = cache.stats()
        assert stats["evictions"] == 1
        apps = {row["app"] for row in stats["resident"]}
        assert apps == {"stencil", "pennant"}
        # The evicted entry's fingerprint misses again.
        assert self._touch(cache, CIRCUIT) is False

    def test_in_use_entries_survive_overflow(self):
        cache = PlanCache(capacity=1)
        req = ServeRequest.from_dict(dict(STENCIL))
        held, _ = cache.checkout(req.fingerprint(), req)
        held.ready = True
        self._touch(cache, CIRCUIT)  # over capacity, but stencil is held
        assert {row["app"] for row in cache.stats()["resident"]} >= {"stencil"}
        cache.checkin(held)  # releasing it lets the LRU sweep collect
        assert cache.stats()["entries"] == 1


class TestEngineEquivalence:
    def test_warm_hit_does_zero_compile_and_capture(self, engine):
        cold = engine.run_sync(STENCIL, timeout=120)
        warm = engine.run_sync(STENCIL, timeout=120)
        assert cold["cache"]["hit"] is False
        assert warm["cache"]["hit"] is True
        assert cold["fingerprint"] == warm["fingerprint"]

        # The cold request paid for compilation and capture...
        assert any(k.startswith("compiler_pass_") for k in cold["metrics"])
        assert cold["counters"]["replay_misses"] > 0
        assert cold["counters"]["window_compiles"] > 0
        assert cold["counters"]["intersections_computed"] > 0
        # ...the warm request did zero compiler-pass and zero capture work.
        assert not any(k.startswith("compiler_pass_") for k in warm["metrics"])
        assert warm["counters"]["replay_misses"] == 0
        assert warm["counters"]["window_compiles"] == 0
        assert warm["counters"]["intersections_computed"] == 0
        assert warm["counters"]["replay_hits"] > 0

        # Same work, same answer: bit-identical state both to the cold run
        # and to a fresh sequential execution.
        assert warm["state_sha256"] == cold["state_sha256"]
        state = engine.run_sync(STENCIL, timeout=120, with_state=True)["state"]
        for key, arr in sequential_state(STENCIL).items():
            assert np.array_equal(state[key], arr)

    @pytest.mark.parametrize("body", [CIRCUIT, PENNANT])
    def test_reduction_apps_replay_equivalently(self, engine, body):
        cold = engine.run_sync(body, timeout=120, with_state=True)
        warm = engine.run_sync(body, timeout=120, with_state=True)
        assert warm["cache"]["hit"] is True
        # The stepped driver is fully deterministic, so hit and miss
        # produce bit-identical region state.
        assert warm["state_sha256"] == cold["state_sha256"]
        for key, arr in sequential_state(body).items():
            assert np.allclose(warm["state"][key], arr,
                               rtol=1e-11, atol=1e-13)

    def test_concurrent_mixed_requests_match_fresh_sequential(self, engine):
        bodies = [STENCIL, CIRCUIT, PENNANT]
        references = [sequential_state(b) for b in bodies]
        for body in bodies:  # warm every plan first
            engine.run_sync(body, timeout=120)
        results: dict[int, dict] = {}
        errors: list[BaseException] = []

        def worker(i):
            try:
                results[i] = engine.run_sync(bodies[i % 3], timeout=120,
                                             with_state=True)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(180)
        assert not errors
        assert len(results) == 9
        for i, result in results.items():
            assert result["cache"]["hit"] is True
            for key, arr in references[i % 3].items():
                assert np.allclose(result["state"][key], arr,
                                   rtol=1e-11, atol=1e-13)
        stats = engine.cache.stats()
        assert stats["hits"] >= 9 and stats["misses"] == 3

    def test_failed_job_discards_entry_and_leaks_nothing(self, engine):
        from repro.regions.shm import live_segment_count
        body = dict(CIRCUIT, backend="procs") if procs_available() else CIRCUIT
        segs0 = live_segment_count()
        cold = engine.run_sync(body, timeout=120)
        fp = cold["fingerprint"]
        # Sabotage the resident entry so the next run fails mid-request.
        entry = engine.cache._entries[fp]
        entry.program = object()
        with pytest.raises(ServeJobError):
            engine.run_sync(body, timeout=120)
        # The entry is gone, its arena is released, and the next request
        # recompiles cleanly.
        assert fp not in engine.cache._entries
        assert live_segment_count() == segs0
        again = engine.run_sync(body, timeout=120)
        assert again["cache"]["hit"] is False
        assert again["state_sha256"] == cold["state_sha256"]
        flat = engine.metrics.flat()
        app = body["app"]
        assert flat[f'serve_requests_total{{app="{app}",outcome="error"}}'] == 1

    def test_admission_control_rejects_when_full(self, engine_small=None):
        eng = ServeEngine(workers=1, cache_size=2, queue_depth=1,
                          max_shards=4)
        try:
            cold = eng.run_sync(STENCIL | {"shards": 2}, timeout=120)
            entry = eng.cache._entries[cold["fingerprint"]]
            with entry.lock:  # stall the only worker on the entry lock
                blocked = eng.submit(STENCIL | {"shards": 2})
                time.sleep(0.2)  # let the worker pick it up and block
                queued = eng.submit(STENCIL | {"shards": 2})
                with pytest.raises(AdmissionError, match="queue full"):
                    eng.submit(STENCIL | {"shards": 2})
            assert blocked.done.wait(60) and queued.done.wait(60)
            assert blocked.status == "done" and queued.status == "done"
            with pytest.raises(AdmissionError, match="at most 4"):
                eng.submit(STENCIL | {"shards": 8})
            flat = eng.metrics.flat()
            assert flat['serve_requests_total{app="stencil",'
                        'outcome="rejected"}'] == 1
        finally:
            eng.shutdown()

    def test_shutdown_releases_every_resident_arena(self):
        if not procs_available():
            pytest.skip("no usable shared memory on this host")
        from repro.regions.shm import live_segment_count
        segs0 = live_segment_count()
        eng = ServeEngine(workers=1, cache_size=4, queue_depth=4,
                          max_shards=4)
        eng.run_sync(dict(CIRCUIT, backend="procs"), timeout=120)
        assert live_segment_count() > segs0  # warm arena resident
        eng.shutdown()
        assert live_segment_count() == segs0


class TestHTTPServer:
    @pytest.fixture
    def server(self):
        eng = ServeEngine(workers=2, cache_size=4, queue_depth=8,
                          max_shards=4)
        srv = create_server(eng, port=0, request_timeout=120)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{srv.server_port}", eng
        finally:
            srv.shutdown()
            srv.server_close()
            eng.shutdown()

    @staticmethod
    def _post(base, path, payload):
        req = urllib.request.Request(base + path,
                                     data=json.dumps(payload).encode())
        try:
            with urllib.request.urlopen(req, timeout=120) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    @staticmethod
    def _get(base, path):
        try:
            with urllib.request.urlopen(base + path, timeout=30) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as err:
            return err.code, err.read()

    def test_run_cold_then_warm_over_http(self, server):
        base, _ = server
        body = dict(CIRCUIT)
        status, cold = self._post(base, "/run", body)
        assert status == 200 and cold["cache"]["hit"] is False
        status, warm = self._post(base, "/run", body)
        assert status == 200 and warm["cache"]["hit"] is True
        assert warm["state_sha256"] == cold["state_sha256"]
        assert "state" not in warm  # raw arrays never cross the wire
        assert not any(k.startswith("compiler_pass_") for k in warm["metrics"])

    def test_async_job_lifecycle(self, server):
        base, _ = server
        status, job = self._post(base, "/jobs", dict(CIRCUIT))
        assert status == 202 and job["status"] == "queued"
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, raw = self._get(base, f"/jobs/{job['job']}")
            polled = json.loads(raw)
            if polled["status"] in ("done", "error"):
                break
            time.sleep(0.05)
        assert polled["status"] == "done"
        assert "state_sha256" in polled["result"]
        status, _ = self._get(base, "/jobs/nope")
        assert status == 404

    def test_error_statuses(self, server):
        base, _ = server
        assert self._post(base, "/run", {"app": "nope"})[0] == 400
        assert self._post(base, "/run", {"app": "stencil", "x": 1})[0] == 400
        # The tier switches are gone, not defaulted: a body that still
        # carries one is an unknown field, by name.
        status, body = self._post(base, "/run",
                                  {"app": "stencil", "jit": "off"})
        assert status == 400
        assert body["error"] == "unknown request field(s): jit"
        assert self._post(base, "/run",
                          {"app": "stencil", "shards": 64})[0] == 429
        assert self._post(base, "/frob", {})[0] == 404
        assert self._get(base, "/frob")[0] == 404

    def test_metrics_healthz_stats(self, server):
        base, eng = server
        self._post(base, "/run", dict(CIRCUIT))
        self._post(base, "/run", dict(CIRCUIT))
        status, body = self._get(base, "/metrics")
        assert status == 200
        flat = parse_prometheus_text(body.decode())
        assert flat["serve_plan_cache_hits_total"] >= 1
        assert flat["serve_plan_cache_misses_total"] >= 1
        assert flat['serve_requests_total{app="circuit",outcome="ok"}'] >= 2
        assert flat["serve_plan_cache_entries"] >= 1
        status, body = self._get(base, "/healthz")
        assert status == 200 and json.loads(body) == {"ok": True}
        status, body = self._get(base, "/stats")
        stats = json.loads(body)
        assert status == 200
        assert stats["plan_cache"]["hits"] >= 1
        assert stats["workers"] == 2

    def test_stats_hit_ratio_and_endpoint_percentiles(self, server):
        base, _ = server
        self._post(base, "/run", dict(CIRCUIT))
        self._post(base, "/run", dict(CIRCUIT))
        stats = json.loads(self._get(base, "/stats")[1])
        assert stats["plan_cache"]["hit_ratio"] == pytest.approx(0.5)
        run_row = stats["endpoints"]["POST /run"]
        assert run_row["count"] == 2
        assert 0.0 < run_row["p50_s"] <= run_row["p95_s"] <= run_row["p99_s"]
        # The scrape exposes the same histogram in Prometheus form.
        flat = parse_prometheus_text(self._get(base, "/metrics")[1].decode())
        assert flat['serve_http_request_seconds_count'
                    '{endpoint="POST /run"}'] == 2

    def test_concurrent_metrics_scrapes_while_runs_in_flight(self, server):
        """Satellite: /metrics under concurrent scrape + run traffic
        stays parseable and internally consistent on every sample."""
        base, _ = server
        self._post(base, "/run", dict(CIRCUIT))  # warm the plan first
        stop = threading.Event()
        failures: list[str] = []

        def scraper():
            while not stop.is_set():
                status, body = self._get(base, "/metrics")
                if status != 200:
                    failures.append(f"scrape returned {status}")
                    return
                flat = parse_prometheus_text(body.decode())
                if not any(k.startswith("serve_requests_total")
                           for k in flat):
                    failures.append("scrape missing serve_requests_total")

        scrapers = [threading.Thread(target=scraper) for _ in range(3)]
        for t in scrapers:
            t.start()
        try:
            results = []
            runners = [threading.Thread(
                target=lambda: results.append(
                    self._post(base, "/run", dict(CIRCUIT))))
                for _ in range(4)]
            for t in runners:
                t.start()
            for t in runners:
                t.join(120)
        finally:
            stop.set()
            for t in scrapers:
                t.join(30)
        assert not failures
        assert [status for status, _ in results] == [200] * 4
        flat = parse_prometheus_text(self._get(base, "/metrics")[1].decode())
        assert flat['serve_requests_total{app="circuit",outcome="ok"}'] >= 5

    def test_trace_id_header_rides_job_and_debug_requests(self, server):
        base, _ = server
        req = urllib.request.Request(
            base + "/run", data=json.dumps(dict(CIRCUIT)).encode(),
            headers={"X-Trace-Id": "req-abc123"})
        with urllib.request.urlopen(req, timeout=120) as resp:
            result = json.loads(resp.read())
        assert result["trace_id"] == "req-abc123"
        status, body = self._get(base, "/debug/requests")
        assert status == 200
        rows = json.loads(body)["requests"]
        assert rows[0]["trace_id"] == "req-abc123"
        assert rows[0]["status"] == "done"
        assert rows[0]["elapsed_s"] > 0
        # Without a header, the job id doubles as the trace id.
        status, result = self._post(base, "/run", dict(CIRCUIT))
        assert status == 200 and result["trace_id"] == result["job"]

    def test_debug_flight_returns_parseable_chrome_trace(self, server):
        base, _ = server
        self._post(base, "/run", dict(CIRCUIT))
        status, body = self._get(base, "/debug/flight")
        assert status == 200
        trace = json.loads(body)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        assert "request" in names          # the engine's REQUEST row
        # The executor's shard rings, under the tracer's row names.
        assert names & {"replay:iteration", "replay:capture"}
        rows = {e["args"]["name"] for e in trace["traceEvents"]
                if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert "serve" in rows
        # ?last clips the window; a bad value is a 400, not a crash.
        status, body = self._get(base, "/debug/flight?last=60")
        assert status == 200 and json.loads(body)["traceEvents"]
        assert self._get(base, "/debug/flight?last=bogus")[0] == 400

    def test_failed_job_dumps_flight_trace(self, server, tmp_path):
        base, eng = server
        eng.flight_dir = str(tmp_path)
        status, cold = self._post(base, "/run", dict(CIRCUIT))
        assert status == 200
        # Sabotage the resident entry so the next run fails mid-request.
        eng.cache._entries[cold["fingerprint"]].program = object()
        status, err = self._post(base, "/run", dict(CIRCUIT))
        assert status == 500
        path = err["flight_path"]
        assert path.startswith(str(tmp_path))
        with open(path) as fh:
            trace = json.load(fh)
        assert any(e.get("cat") in ("jit", "replay")
                   for e in trace["traceEvents"])
        # The dump also shows up on the /debug/requests row for the job.
        rows = json.loads(self._get(base, "/debug/requests")[1])["requests"]
        failed = [r for r in rows if r["status"] == "error"]
        assert failed and failed[0]["flight_path"] == path
