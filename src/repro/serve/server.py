"""The ``repro serve`` HTTP front-end (stdlib only).

A thin :class:`~http.server.ThreadingHTTPServer` over a
:class:`~repro.serve.engine.ServeEngine`:

* ``POST /run``       — run a request synchronously, return its result;
* ``POST /jobs``      — enqueue a request, return a job id (202);
* ``GET  /jobs/<id>`` — poll a job's status/result;
* ``GET  /metrics``   — Prometheus text exposition of the engine registry;
* ``GET  /healthz``   — liveness;
* ``GET  /stats``     — queue/cache/job introspection as JSON;
* ``GET  /debug/requests``        — the recent-request ring, newest first;
* ``GET  /debug/flight?last=<s>`` — merged Chrome trace of the engine's
  REQUEST spans plus every resident executor's flight rings, optionally
  clipped to the trailing ``last`` seconds.

Every request is timed into the per-endpoint latency histogram
(``serve_http_request_seconds{endpoint=...}``) regardless of outcome
and before its reply is written, so a client that has its answer finds
the request in ``/stats``; a client may tag a run with ``X-Trace-Id``
(or a ``trace_id`` body field) — the id rides on the job, the response,
and ``/debug/requests``.

Status mapping: malformed request → 400, admission rejection (full
queue, shard cap) → 429, job failure → 500, synchronous timeout → 504.
Results are JSON; region state travels as per-array SHA-256 checksums
(``state_sha256``), never as raw arrays.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .engine import AdmissionError, ServeEngine, ServeJobError

__all__ = ["create_server", "ServeHandler"]

_MAX_BODY = 1 << 20  # a request is a small JSON object; refuse more


class ServeHandler(BaseHTTPRequestHandler):
    engine: ServeEngine  # installed by create_server on the subclass
    request_timeout: float = 300.0
    quiet = True

    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------
    def log_message(self, fmt, *args):  # pragma: no cover - log noise
        if not self.quiet:
            super().log_message(fmt, *args)

    def _reply_json(self, code: int, payload: dict) -> None:
        self._reply = (code, "application/json",
                       json.dumps(payload).encode("utf-8"))

    def _timed(self, endpoint: str, route, *args) -> None:
        """Run a route, observe its latency, then write the reply it set.

        In that order: a client holding its answer must already find the
        request in ``/stats`` and ``/metrics``.
        """
        t0 = time.perf_counter()
        try:
            route(*args)
        finally:
            self.engine.observe_http(endpoint, time.perf_counter() - t0)
        code, ctype, body = self._reply
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise ValueError(f"request body over {_MAX_BODY} bytes")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"bad JSON body: {exc}") from None

    @staticmethod
    def _endpoint_label(method: str, path: str) -> str:
        # Bounded-cardinality endpoint label: job polls collapse to one
        # series, junk paths to "other".
        if path.startswith("/jobs/"):
            return "GET /jobs/<id>"
        known = {"/healthz", "/metrics", "/stats", "/run", "/jobs",
                 "/debug/requests", "/debug/flight"}
        return f"{method} {path}" if path in known else f"{method} other"

    # -- routes ------------------------------------------------------------
    def do_GET(self) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        self._timed(self._endpoint_label("GET", path),
                    self._route_get, path, split.query)

    def _route_get(self, path: str, query: str) -> None:
        if path == "/healthz":
            self._reply_json(200, {"ok": True})
        elif path == "/metrics":
            self._reply = (200, *self.engine.scrape())
        elif path == "/stats":
            self._reply_json(200, self.engine.stats())
        elif path == "/debug/requests":
            self._reply_json(200, {"requests": self.engine.recent_requests()})
        elif path == "/debug/flight":
            try:
                last = parse_qs(query).get("last")
                last_s = float(last[0]) if last else None
            except ValueError:
                self._reply_json(400, {"error": "last must be a number"})
                return
            self._reply_json(200, self.engine.flight_trace(last_s=last_s))
        elif path.startswith("/jobs/"):
            job = self.engine.get_job(path[len("/jobs/"):])
            if job is None:
                self._reply_json(404, {"error": "unknown job"})
            else:
                self._reply_json(200, job.to_dict())
        else:
            self._reply_json(404, {"error": f"no such endpoint {path!r}"})

    def do_POST(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        self._timed(self._endpoint_label("POST", path),
                    self._route_post, path)

    def _route_post(self, path: str) -> None:
        try:
            payload = self._read_json()
            header_trace = self.headers.get("X-Trace-Id")
            if header_trace and "trace_id" not in payload:
                payload["trace_id"] = header_trace
            if path == "/run":
                result = self.engine.run_sync(payload,
                                              timeout=self.request_timeout)
                self._reply_json(200, result)
            elif path == "/jobs":
                job = self.engine.submit(payload)
                self._reply_json(202, job.to_dict())
            else:
                self._reply_json(404, {"error": f"no such endpoint {path!r}"})
        except ValueError as exc:
            self._reply_json(400, {"error": str(exc)})
        except AdmissionError as exc:
            self._reply_json(429, {"error": str(exc)})
        except TimeoutError as exc:
            self._reply_json(504, {"error": str(exc)})
        except ServeJobError as exc:
            out = {"error": str(exc)}
            if getattr(exc, "trace_id", None):
                out["trace_id"] = exc.trace_id
            if getattr(exc, "flight_path", None):
                out["flight_path"] = exc.flight_path
            self._reply_json(500, out)


def create_server(engine: ServeEngine, host: str = "127.0.0.1",
                  port: int = 8349, request_timeout: float = 300.0,
                  quiet: bool = True) -> ThreadingHTTPServer:
    """Bind (but do not start) the serve HTTP server.

    Call ``serve_forever()`` on the result; ``server_port`` holds the
    bound port (useful with ``port=0`` in tests).
    """
    handler = type("BoundServeHandler", (ServeHandler,),
                   {"engine": engine, "request_timeout": request_timeout,
                    "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
