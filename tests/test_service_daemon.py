"""Daemon lifecycle tests: serve/shutdown, concurrent submission,
admission control (429 + retry hint), and disk-store fault tolerance."""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.spec import OptimizeSpec
from repro.graph.serialize import pipeline_to_dict
from repro.service import daemon as daemon_module
from repro.service import (
    AdmissionController,
    BatchOptimizer,
    DiskStore,
    OptimizationDaemon,
    job_lane,
)
from tests.test_service import small_pipeline

#: analytic backend keeps daemon tests sub-second per batch
FAST_SPEC = OptimizeSpec(iterations=1, backend="analytic",
                         trace_duration=1.0, trace_warmup=0.25)
SIM_SPEC = FAST_SPEC.replace(backend="simulate")


# ----------------------------------------------------------------------
# Tiny HTTP client helpers (stdlib only, mirroring daemon transport).
# ----------------------------------------------------------------------
def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc), dict(exc.headers)


def _post(url, body):
    data = json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc), dict(exc.headers)


def _wait_done(base, batch_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload, _ = _get(f"{base}/jobs/{batch_id}")
        assert status == 200
        if payload["status"] in ("done", "failed"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"batch {batch_id} did not finish in {timeout}s")


def _job_body(name, pipeline, machine, spec=None):
    body = {"name": name, "pipeline": pipeline_to_dict(pipeline),
            "machine": machine.to_dict()}
    if spec is not None:
        body["spec"] = spec.to_dict()
    return body


@pytest.fixture
def daemon(test_machine):
    dm = OptimizationDaemon(
        BatchOptimizer(machine=test_machine, executor="serial",
                       spec=FAST_SPEC),
    )
    with dm:
        yield dm


class TestLifecycle:
    def test_start_serve_shutdown(self, test_machine, small_catalog):
        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC)
        )
        dm.start()
        assert dm.port > 0
        status, payload, _ = _get(f"{dm.url}/stats")
        assert status == 200 and payload["queue_depth"] == 0
        url = dm.url
        dm.close()
        with pytest.raises(Exception):
            urllib.request.urlopen(f"{url}/stats", timeout=2)

    def test_start_is_idempotent(self, daemon):
        port = daemon.port
        daemon.start()
        assert daemon.port == port

    def test_port_requires_running_server(self, test_machine):
        dm = OptimizationDaemon(BatchOptimizer(machine=test_machine))
        with pytest.raises(RuntimeError, match="not running"):
            dm.port

    def test_submit_poll_report(self, daemon, small_catalog, test_machine):
        pipe = small_pipeline(small_catalog)
        status, accepted, _ = _post(
            f"{daemon.url}/optimize",
            {"jobs": [_job_body("a", pipe, test_machine),
                      _job_body("b", pipe, test_machine)]},
        )
        assert status == 202
        final = _wait_done(daemon.url, accepted["id"])
        assert final["status"] == "done" and final["jobs"] == 2
        # A finished record keeps its report, not the jobs' pipelines.
        assert daemon._batches[accepted["id"]].jobs == []
        status, report, _ = _get(f"{daemon.url}/report/{accepted['id']}")
        assert status == 200
        assert [j["name"] for j in report["jobs"]] == ["a", "b"]
        # Structurally identical jobs share one optimization.
        assert report["cache_misses"] == 1 and report["cache_hits"] == 1
        assert report["jobs"][1]["cache_hit"]
        assert report["jobs"][0]["provenance"]["producer"] == "analytic"
        # The rewritten program travels in the report (§4.1: traces and
        # results are programs).
        assert report["jobs"][0]["pipeline"]["nodes"]

    def test_single_job_form(self, daemon, small_catalog, test_machine):
        body = _job_body("solo", small_pipeline(small_catalog), test_machine)
        status, accepted, _ = _post(f"{daemon.url}/optimize", body)
        assert status == 202 and accepted["jobs"] == 1
        assert _wait_done(daemon.url, accepted["id"])["status"] == "done"

    def test_report_for_unknown_batch_404(self, daemon):
        status, payload, _ = _get(f"{daemon.url}/report/batch-9999")
        assert status == 404 and "unknown batch" in payload["error"]

    def test_unknown_endpoint_404(self, daemon):
        assert _get(f"{daemon.url}/nope")[0] == 404
        assert _post(f"{daemon.url}/nope", {})[0] == 404

    def test_malformed_bodies_400(self, daemon, small_catalog, test_machine):
        pipe = small_pipeline(small_catalog)
        cases = [
            {},                                        # no jobs/pipeline
            {"jobs": []},                              # empty batch
            {"jobs": [{"pipeline": pipeline_to_dict(pipe)}]},  # no name
            {"jobs": [{"name": "x", "pipeline": {"bad": 1}}]},  # bad program
            {"jobs": [_job_body("d", pipe, test_machine),
                      _job_body("d", pipe, test_machine)]},     # dup name
            {"name": "x", "pipeline": pipeline_to_dict(pipe),
             "spec": {"nonsense": True}},              # bad spec
        ]
        for body in cases:
            status, payload, _ = _post(f"{daemon.url}/optimize", body)
            assert status == 400, body
            assert "error" in payload

    def test_spec_key_mismatch_400(self, daemon, small_catalog,
                                   test_machine):
        """An unknown or missing spec key answers 400 naming the key, in
        the batch spec and in a per-job spec alike."""
        job = _job_body("x", small_pipeline(small_catalog), test_machine)
        stale = dict(FAST_SPEC.to_dict(), allocate_remaining=False)
        partial = FAST_SPEC.to_dict()
        del partial["iterations"]
        for spec, key in ((stale, "allocate_remaining"),
                          (partial, "iterations")):
            for body in ({"jobs": [job], "spec": spec},
                         {"jobs": [dict(job, spec=spec)]}):
                status, payload, _ = _post(f"{daemon.url}/optimize", body)
                assert status == 400, body
                assert key in payload["error"]

    def test_malformed_program_400_is_not_missing_pipeline(
            self, daemon, small_catalog, test_machine):
        """A program that is present but malformed (here a node without
        a ``kind``) is a bad program, not a missing one."""
        job = _job_body("j", small_pipeline(small_catalog), test_machine)
        del job["pipeline"]["nodes"][-1]["kind"]
        status, payload, _ = _post(f"{daemon.url}/optimize", {"jobs": [job]})
        assert status == 400
        assert "needs a 'pipeline'" not in payload["error"]
        assert "bad pipeline program" in payload["error"]
        root = job["pipeline"]["nodes"][-1]["name"]
        assert repr(root) in payload["error"]

    def test_program_with_dropped_node_400(self, daemon, small_catalog,
                                          test_machine):
        """A node off the path to the root is refused by name, not
        dropped from the program the daemon optimizes."""
        job = _job_body("j", small_pipeline(small_catalog), test_machine)
        nodes = job["pipeline"]["nodes"]
        nodes.insert(1, dict(nodes[1], name="orphan"))
        status, payload, _ = _post(f"{daemon.url}/optimize", {"jobs": [job]})
        assert status == 400
        assert "'orphan'" in payload["error"]
        assert daemon._batches == {}

    def test_unknown_backend_or_pass_400(self, daemon, small_catalog,
                                         test_machine):
        """A spec naming an unknown backend or pass is refused at submit,
        in the batch spec and in a per-job spec alike, and no batch is
        admitted."""
        job = _job_body("a", small_pipeline(small_catalog), test_machine)
        for key, value, name in (("backend", "nope", "nope"),
                                 ("passes", ["nope_pass"], "nope_pass")):
            spec = dict(FAST_SPEC.to_dict(), **{key: value})
            for body in ({"jobs": [job], "spec": spec},
                         {"jobs": [dict(job, spec=spec)]}):
                status, payload, _ = _post(f"{daemon.url}/optimize", body)
                assert status == 400, body
                assert repr(name) in payload["error"]
        assert daemon._batches == {}
        assert daemon.admission.in_flight() == {"simulate": 0, "analytic": 0}

    def test_invalid_json_400(self, daemon):
        req = urllib.request.Request(
            f"{daemon.url}/optimize", data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_malformed_content_length_400(self, daemon):
        """A bad Content-Length header answers 400, not a dropped
        connection."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/optimize")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.load(resp)["error"]
        finally:
            conn.close()

    def test_restart_after_close(self, test_machine, small_catalog):
        """close() then start() yields a fully working daemon again —
        the dispatcher pool is recreated, not left shut down."""
        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC))
        dm.start()
        dm.close()
        dm.start()
        try:
            body = _job_body("again", small_pipeline(small_catalog),
                             test_machine)
            status, accepted, _ = _post(f"{dm.url}/optimize", body)
            assert status == 202
            assert _wait_done(dm.url, accepted["id"])["status"] == "done"
            assert dm.admission.in_flight() == {"simulate": 0,
                                                "analytic": 0}
        finally:
            dm.close()

    def test_submit_on_closed_daemon_releases_slots(self, test_machine,
                                                    small_catalog):
        """A submit that cannot enqueue (daemon closed) must answer 503
        and give back its reserved admission slots."""
        from repro.service.daemon import _RequestError

        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC))
        body = _job_body("late", small_pipeline(small_catalog),
                         test_machine)  # daemon never started: no pool
        with pytest.raises(_RequestError) as err:
            dm.submit(body)
        assert err.value.status == 503
        assert dm.admission.in_flight() == {"simulate": 0, "analytic": 0}
        with pytest.raises(_RequestError, match="unknown batch"):
            dm.job_status("batch-0001")

    def test_finished_batches_evicted_beyond_bound(self, test_machine,
                                                   small_catalog):
        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC),
            max_finished_batches=2,
        )
        with dm:
            pipe = small_pipeline(small_catalog)
            ids = []
            for i in range(3):
                _, accepted, _ = _post(f"{dm.url}/optimize",
                                       _job_body(f"j{i}", pipe, test_machine))
                ids.append(accepted["id"])
                _wait_done(dm.url, accepted["id"])
            # Oldest finished record evicted; latest two retained.
            assert _get(f"{dm.url}/report/{ids[0]}")[0] == 404
            assert _get(f"{dm.url}/report/{ids[1]}")[0] == 200
            assert _get(f"{dm.url}/report/{ids[2]}")[0] == 200

    def test_missing_machine_400_when_no_default(self, small_catalog):
        dm = OptimizationDaemon(
            BatchOptimizer(executor="serial", spec=FAST_SPEC))
        with dm:
            body = {"name": "x",
                    "pipeline": pipeline_to_dict(small_pipeline(small_catalog))}
            status, payload, _ = _post(f"{dm.url}/optimize", body)
            assert status == 400 and "no machine" in payload["error"]

    def test_failed_batch_reported_not_fatal(self, daemon, small_catalog,
                                             test_machine):
        def boom(jobs):
            raise RuntimeError("worker exploded")

        daemon.optimizer.optimize_fleet = boom
        body = _job_body("x", small_pipeline(small_catalog), test_machine)
        _, accepted, _ = _post(f"{daemon.url}/optimize", body)
        final = _wait_done(daemon.url, accepted["id"])
        assert final["status"] == "failed"
        assert "worker exploded" in final["error"]
        status, payload, _ = _get(f"{daemon.url}/report/{accepted['id']}")
        assert status == 500
        # The daemon survives and admission slots were released.
        assert daemon.admission.in_flight() == {"simulate": 0, "analytic": 0}


class TestConcurrentSubmission:
    def test_concurrent_posts_all_served(self, small_catalog, test_machine):
        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC),
            workers=4,
        )
        with dm:
            pipe = small_pipeline(small_catalog)
            results = []
            lock = threading.Lock()

            def submit(i):
                status, accepted, _ = _post(
                    f"{dm.url}/optimize",
                    _job_body(f"job{i}", pipe, test_machine),
                )
                with lock:
                    results.append((status, accepted))

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert [s for s, _ in results] == [202] * 8
            ids = [a["id"] for _, a in results]
            assert len(set(ids)) == 8
            for batch_id in ids:
                assert _wait_done(dm.url, batch_id)["status"] == "done"
            _, stats, _ = _get(f"{dm.url}/stats")
            assert stats["queue_depth"] == 0
            assert stats["batches"]["done"] == 8
            # 8 structurally identical jobs; at least one optimization
            # ran, the rest were served from the shared store. (Batches
            # racing on an unpopulated store may each compute the key.)
            assert stats["cache"]["cache_hits"] >= 1
            # Counter updates are locked: no increment is lost even
            # with dispatcher threads finishing batches concurrently.
            assert stats["cache"]["cache_hits"] + \
                stats["cache"]["cache_misses"] == 8
            assert stats["cache"]["store_entries"] == 1


class TestAdmissionControl:
    def test_job_lane_classification(self):
        assert job_lane(FAST_SPEC) == "analytic"
        assert job_lane(SIM_SPEC) == "simulate"
        assert job_lane(FAST_SPEC.replace(backend="replay")) == "simulate"

    def test_controller_admits_and_releases(self):
        ctl = AdmissionController(max_simulate_jobs=2)
        ok, _ = ctl.try_admit({"simulate": 2})
        assert ok
        ok, hint = ctl.try_admit({"simulate": 1})
        assert not ok and "simulate lane is full" in hint
        ctl.release({"simulate": 2})
        assert ctl.try_admit({"simulate": 1})[0]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_simulate_jobs=-1)

    def test_simulate_lane_rejection_is_429_with_hint(self, small_catalog,
                                                      test_machine):
        """While the simulate lane is occupied by in-flight work, a new
        simulate batch answers 429 + retry hint; the analytic lane stays
        open; once the lane drains, the retry succeeds."""
        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC),
            max_simulate_jobs=1,
        )
        with dm:
            gate = threading.Event()
            original = dm.optimizer.optimize_fleet

            def gated(jobs):
                assert gate.wait(timeout=60)
                return original(jobs)

            dm.optimizer.optimize_fleet = gated
            pipe = small_pipeline(small_catalog)
            body = _job_body("sim1", pipe, test_machine, spec=SIM_SPEC)
            status, first, _ = _post(f"{dm.url}/optimize", body)
            assert status == 202  # occupies the whole simulate lane
            body = _job_body("sim2", pipe, test_machine, spec=SIM_SPEC)
            status, payload, headers = _post(f"{dm.url}/optimize", body)
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert payload["retry_after_seconds"] == 1
            assert "simulate lane is full" in payload["error"]
            assert "retry" in payload["error"]
            # The analytic lane is bounded separately: same pipeline,
            # analytic spec, admitted while simulate is saturated.
            ok_body = _job_body("ana", pipe, test_machine, spec=FAST_SPEC)
            status, accepted, _ = _post(f"{dm.url}/optimize", ok_body)
            assert status == 202
            gate.set()  # drain the lane
            assert _wait_done(dm.url, first["id"])["status"] == "done"
            assert _wait_done(dm.url, accepted["id"])["status"] == "done"
            # The rejected batch fits now.
            body = _job_body("sim3", pipe, test_machine, spec=SIM_SPEC)
            status, retried, _ = _post(f"{dm.url}/optimize", body)
            assert status == 202
            assert _wait_done(dm.url, retried["id"])["status"] == "done"
            _, stats, _ = _get(f"{dm.url}/stats")
            assert stats["rejected_batches"] == 1

    def test_oversized_batch_rejected_permanently_not_429(self,
                                                          small_catalog,
                                                          test_machine):
        """A batch larger than a lane's whole bound can never fit; the
        daemon must say so (400 + remedy), not ask the client to retry
        forever."""
        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC),
            max_analytic_jobs=2,
        )
        with dm:
            pipe = small_pipeline(small_catalog)
            body = {"jobs": [_job_body(f"j{i}", pipe, test_machine)
                             for i in range(3)]}
            status, payload, _ = _post(f"{dm.url}/optimize", body)
            assert status == 400
            assert "split the batch" in payload["error"]
            # An idle daemon still has all its slots.
            assert dm.admission.in_flight() == {"simulate": 0,
                                                "analytic": 0}

    def test_admission_recovers_after_drain(self, small_catalog,
                                            test_machine):
        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC),
            max_analytic_jobs=2,
        )
        with dm:
            pipe = small_pipeline(small_catalog)
            body = {"jobs": [_job_body("a", pipe, test_machine),
                             _job_body("b", pipe, test_machine)]}
            status, accepted, _ = _post(f"{dm.url}/optimize", body)
            assert status == 202
            _wait_done(dm.url, accepted["id"])
            # Slots released on completion: the same batch fits again.
            body = {"jobs": [_job_body("c", pipe, test_machine),
                             _job_body("d", pipe, test_machine)]}
            assert _post(f"{dm.url}/optimize", body)[0] == 202


class TestBugfixRegressions:
    """Pinned fixes: catch-all 500s, finished_at eviction order, and
    query-string routing. Each of these fails on the pre-fix daemon."""

    def test_unexpected_get_error_answers_500_json(self, daemon):
        """A bug anywhere under do_GET (here: a stats serializer that
        raises) must answer 500 with a JSON error body — previously the
        exception propagated into BaseHTTPRequestHandler and the client
        saw a dropped connection."""
        original = daemon.stats
        daemon.stats = lambda: 1 / 0
        try:
            status, payload, _ = _get(f"{daemon.url}/stats")
            assert status == 500
            assert "internal error" in payload["error"]
            assert "ZeroDivisionError" in payload["error"]
        finally:
            daemon.stats = original
        # The daemon survives its own bug and keeps serving.
        assert _get(f"{daemon.url}/stats")[0] == 200

    def test_unexpected_post_error_answers_500_json(self, daemon,
                                                    small_catalog,
                                                    test_machine):
        original = daemon.submit

        def broken_submit(body):
            raise RuntimeError("bug in submit")

        daemon.submit = broken_submit
        try:
            status, payload, _ = _post(
                f"{daemon.url}/optimize",
                _job_body("x", small_pipeline(small_catalog), test_machine))
            assert status == 500
            assert "bug in submit" in payload["error"]
        finally:
            daemon.submit = original
        assert _get(f"{daemon.url}/stats")[0] == 200

    def test_eviction_orders_by_finished_at_not_submission(self,
                                                           test_machine):
        """Regression: finished batches were evicted in submission
        order, so a batch that finished *seconds ago* could be dropped
        (done -> 404 for its polling client) while much older finishes
        survived. Eviction must order by finished_at."""
        from repro.service.daemon import _Batch

        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC),
            max_finished_batches=2,
        )
        # Submission order A, B, C; finish order B (t=10), C (t=20),
        # A (t=30) — A ran long and finished last.
        for batch_id, finished_at in (("batch-A", 30.0), ("batch-B", 10.0),
                                      ("batch-C", 20.0)):
            dm._batches[batch_id] = _Batch(
                id=batch_id, jobs=[], lanes={}, status="done",
                submitted_at=0.0, finished_at=finished_at)
        dm._evict_finished()
        # The earliest *finish* (B) is evicted; A — submitted first but
        # freshly finished — must survive.
        assert set(dm._batches) == {"batch-A", "batch-C"}

    def test_eviction_never_drops_batch_without_finished_at(self,
                                                            test_machine):
        """A done batch whose finally-block hasn't stamped finished_at
        yet counts as newest, never as evictable."""
        from repro.service.daemon import _Batch

        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC),
            max_finished_batches=1,
        )
        dm._batches["batch-X"] = _Batch(
            id="batch-X", jobs=[], lanes={}, status="done",
            submitted_at=0.0, finished_at=None)
        dm._batches["batch-Y"] = _Batch(
            id="batch-Y", jobs=[], lanes={}, status="done",
            submitted_at=0.0, finished_at=5.0)
        dm._evict_finished()
        assert set(dm._batches) == {"batch-X"}

    def test_query_strings_do_not_break_routing(self, daemon,
                                                small_catalog,
                                                test_machine):
        """Regression: `POST /optimize?x=1` routed to 404 because the
        path matcher compared the query string too. Both verbs must
        split on `?` before routing."""
        body = _job_body("qs", small_pipeline(small_catalog), test_machine)
        status, accepted, _ = _post(f"{daemon.url}/optimize?source=ci",
                                    body)
        assert status == 202
        status, payload, _ = _get(
            f"{daemon.url}/jobs/{accepted['id']}?poll=1")
        assert status == 200 and payload["id"] == accepted["id"]
        assert _get(f"{daemon.url}/stats?verbose=1")[0] == 200
        final = _wait_done(daemon.url, accepted["id"])
        assert final["status"] == "done"
        assert _get(f"{daemon.url}/report/{accepted['id']}?fmt=json")[0] \
            == 200
        # Unknown endpoints still 404 with or without a query string.
        assert _get(f"{daemon.url}/nope?x=1")[0] == 404
        assert _post(f"{daemon.url}/nope?x=1", {})[0] == 404


class TestLongPoll:
    """``GET /jobs/<id>?wait=``: the answer comes when the batch
    finishes or the wait runs out, not on the client's next poll."""

    @pytest.fixture
    def held(self, daemon, small_catalog, test_machine):
        """A submitted batch held inside the optimizer until the
        returned gate is set; yields ``(daemon, batch_id, gate)``."""
        gate = threading.Event()
        original = daemon.optimizer.optimize_fleet

        def gated(jobs):
            assert gate.wait(timeout=60)
            return original(jobs)

        daemon.optimizer.optimize_fleet = gated
        body = _job_body("held", small_pipeline(small_catalog), test_machine)
        status, accepted, _ = _post(f"{daemon.url}/optimize", body)
        assert status == 202
        try:
            yield daemon, accepted["id"], gate
        finally:
            gate.set()

    @staticmethod
    def _long_poll(url):
        """Run ``_get(url)`` in a thread; the result list gets
        ``(monotonic time answered, status, payload)``."""
        answers = []

        def run():
            status, payload, _ = _get(url)
            answers.append((time.monotonic(), status, payload))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, answers

    def test_answers_when_the_gate_opens_not_before(self, held):
        daemon, batch_id, gate = held
        thread, answers = self._long_poll(
            f"{daemon.url}/jobs/{batch_id}?wait=15")
        time.sleep(0.3)
        assert answers == []  # still held: the batch has not finished
        opened = time.monotonic()
        gate.set()
        thread.join(timeout=10)
        answered, status, payload = answers[0]
        assert status == 200 and payload["status"] == "done"
        assert opened <= answered < opened + 2.0

    def test_finished_batch_answers_at_once(self, daemon, small_catalog,
                                            test_machine):
        body = _job_body("a", small_pipeline(small_catalog), test_machine)
        _, accepted, _ = _post(f"{daemon.url}/optimize", body)
        _wait_done(daemon.url, accepted["id"])
        start = time.monotonic()
        status, payload, _ = _get(
            f"{daemon.url}/jobs/{accepted['id']}?wait=15")
        assert status == 200 and payload["status"] == "done"
        assert time.monotonic() - start < 1.0

    def test_pending_batch_answers_running_when_wait_runs_out(self, held):
        daemon, batch_id, _ = held
        start = time.monotonic()
        status, payload, _ = _get(f"{daemon.url}/jobs/{batch_id}?wait=0.3")
        elapsed = time.monotonic() - start
        assert status == 200 and payload["status"] == "running"
        assert 0.3 <= elapsed < 5.0

    def test_wait_is_capped_by_the_daemon(self, held, monkeypatch):
        daemon, batch_id, _ = held
        monkeypatch.setattr(daemon_module, "MAX_STATUS_WAIT_SECONDS", 0.2)
        start = time.monotonic()
        status, payload, _ = _get(f"{daemon.url}/jobs/{batch_id}?wait=60")
        assert status == 200 and payload["status"] == "running"
        assert time.monotonic() - start < 5.0

    @pytest.mark.parametrize("bad", ["-1", "nan", "abc", "inf", ""])
    def test_bad_wait_is_400(self, held, bad):
        daemon, batch_id, _ = held
        status, payload, _ = _get(f"{daemon.url}/jobs/{batch_id}?wait={bad}")
        assert status == 400
        assert "'wait'" in payload["error"]

    def test_wait_on_unknown_batch_is_404(self, daemon):
        status, _, _ = _get(f"{daemon.url}/jobs/batch-9999?wait=5")
        assert status == 404

    def test_close_answers_an_inflight_long_poll(self, held):
        """The drain ends the wait: close() returns within its budget
        and the long-poll answers then, not when its 15 s run out."""
        daemon, batch_id, _ = held
        thread, answers = self._long_poll(
            f"{daemon.url}/jobs/{batch_id}?wait=15")
        time.sleep(0.2)
        start = time.monotonic()
        daemon.close(wait=True, drain_timeout=0.3)
        assert time.monotonic() - start < 3.0
        thread.join(timeout=5)
        answered, status, payload = answers[0]
        assert status == 200 and payload["status"] == "running"
        assert answered - start < 3.0


class TestHealthEndpoints:
    def test_healthz_is_pure_liveness(self, daemon):
        status, payload, _ = _get(f"{daemon.url}/healthz")
        assert status == 200
        assert payload == {"status": "ok"}

    def test_ready_on_running_daemon(self, daemon):
        status, payload, _ = _get(f"{daemon.url}/ready")
        assert status == 200
        assert payload["ready"] is True
        assert payload["store_entries"] == 0

    def test_ready_503_when_dispatcher_down(self, daemon):
        """Liveness and readiness must diverge: an HTTP thread serving
        over a dead dispatcher pool is alive but not ready."""
        daemon._pool.shutdown(wait=True)
        daemon._pool = None
        assert _get(f"{daemon.url}/healthz")[0] == 200
        status, payload, _ = _get(f"{daemon.url}/ready")
        assert status == 503
        assert payload["ready"] is False
        assert "dispatcher pool" in payload["reason"]

    def test_ready_503_when_store_unreachable(self, daemon):
        class BrokenStore:
            def __len__(self):
                raise OSError("backing directory gone")

        daemon.optimizer.store = BrokenStore()
        status, payload, _ = _get(f"{daemon.url}/ready")
        assert status == 503
        assert payload["ready"] is False
        assert "store unreachable" in payload["reason"]
        assert "backing directory gone" in payload["reason"]

    def test_readiness_before_start(self, test_machine):
        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC),
        )
        ready, payload = dm.readiness()
        assert not ready and payload["ready"] is False


class TestCompactEndpointRouting:
    def test_compact_rejects_non_object_body(self, daemon):
        status, payload, _ = _post(f"{daemon.url}/compact", [1, 2])
        assert status == 400 and "JSON object" in payload["error"]

    def test_compact_roundtrip(self, daemon, small_catalog, test_machine):
        body = _job_body("gc", small_pipeline(small_catalog), test_machine)
        _, accepted, _ = _post(f"{daemon.url}/optimize", body)
        _wait_done(daemon.url, accepted["id"])
        # Horizon of an hour: nothing is stale yet.
        status, payload, _ = _post(f"{daemon.url}/compact",
                                   {"max_age_seconds": 3600})
        assert status == 200
        assert payload == {"removed": 0, "store_entries": 1}
        # Horizon zero: every dated entry is at/over it.
        status, payload, _ = _post(f"{daemon.url}/compact",
                                   {"max_age_seconds": 0})
        assert status == 200
        assert payload == {"removed": 1, "store_entries": 0}


class TestDiskStoreFaultTolerance:
    def test_killed_mid_write_entry_skipped_not_fatal(self, tmp_path,
                                                      small_catalog,
                                                      test_machine):
        """A daemon restarted onto a store with a torn entry (killed
        mid-write) recomputes that key and serves the rest from disk."""
        pipe_a = small_pipeline(small_catalog, name="a")
        pipe_b = small_pipeline(small_catalog, parallelism=4, name="b")
        first = BatchOptimizer(machine=test_machine, executor="serial",
                               spec=FAST_SPEC, store=DiskStore(tmp_path))
        first.optimize_fleet({"a": pipe_a, "b": pipe_b})
        store = DiskStore(tmp_path)
        assert len(store) == 2
        # Tear one final entry file and leave a mid-write temp orphan —
        # the two crash artifacts a kill -9 can leave behind. The torn
        # copy replaces the name: writing through it would truncate the
        # inode both keys of the batch share.
        victim = store.keys()[0]
        path = tmp_path / f"{victim}.json"
        torn = tmp_path / "torn"
        torn.write_text(path.read_text()[: 25])
        os.replace(torn, path)
        (tmp_path / f"{victim}.json.tmp-777-cafe").write_text('{"sch')

        dm = OptimizationDaemon(
            BatchOptimizer(machine=test_machine, executor="serial",
                           spec=FAST_SPEC, store=DiskStore(tmp_path)),
        )
        with dm:
            body = {"jobs": [_job_body("a", pipe_a, test_machine),
                             _job_body("b", pipe_b, test_machine)]}
            _, accepted, _ = _post(f"{dm.url}/optimize", body)
            assert _wait_done(dm.url, accepted["id"])["status"] == "done"
            _, report, _ = _get(f"{dm.url}/report/{accepted['id']}")
            # Exactly the torn key was recomputed.
            assert report["cache_misses"] == 1
            assert report["cache_hits"] == 1
        # The recompute repaired the torn entry on disk.
        assert DiskStore(tmp_path).get(victim) is not None


# ----------------------------------------------------------------------
# GET /metrics: live text exposition + mergeable JSON snapshot.
# ----------------------------------------------------------------------
def _get_text(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, resp.read().decode("utf-8"), dict(resp.headers)


class TestMetricsEndpoint:
    def _run_one_batch(self, daemon, small_catalog, test_machine):
        body = {"jobs": [_job_body(
            "job", small_pipeline(small_catalog), test_machine)]}
        _, accepted, _ = _post(f"{daemon.url}/optimize", body)
        assert _wait_done(daemon.url, accepted["id"])["status"] == "done"

    def test_text_exposition_on_live_daemon(
        self, daemon, small_catalog, test_machine
    ):
        self._run_one_batch(daemon, small_catalog, test_machine)
        status, text, headers = _get_text(f"{daemon.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        # Route latency histograms surface p50 and p99 per route.
        assert ('repro_daemon_request_seconds{quantile="0.5",'
                'route="optimize"}') in text
        assert ('repro_daemon_request_seconds{quantile="0.99",'
                'route="jobs"}') in text
        # Admission lane occupancy gauges exist per lane (idle = 0).
        assert 'repro_daemon_lane_in_flight{lane="analytic"} 0.0' in text
        assert 'repro_daemon_lane_in_flight{lane="simulate"} 0.0' in text
        # Hit-rate counters from the optimizer's registry merged in.
        assert 'repro_service_jobs_total{result="miss"} 1.0' in text
        # And the engine's process-global counters rode along too.
        assert "repro_sim_events_total" in text or \
            "repro_trace_total" in text

    def test_json_snapshot_is_mergeable_form(
        self, daemon, small_catalog, test_machine
    ):
        from repro.obs import merge_snapshots, summarize_snapshot

        self._run_one_batch(daemon, small_catalog, test_machine)
        status, snap, _ = _get(f"{daemon.url}/metrics?format=json")
        assert status == 200
        family = snap["repro_daemon_request_seconds"]
        assert family["kind"] == "histogram"
        routes = {s["labels"]["route"] for s in family["samples"]}
        assert {"optimize", "jobs"} <= routes
        for sample in family["samples"]:
            value = sample["value"]
            assert value["count"] >= 1
            assert value["p50"] <= value["p99"]
        # The snapshot is the mergeable wire form: merging it with
        # itself doubles counts instead of raising.
        doubled = merge_snapshots([snap, snap])
        summary = summarize_snapshot(doubled)
        assert summary[
            'repro_daemon_batches_total{status="done"}'] == 2.0

    def test_unknown_routes_collapse_to_other(self, daemon):
        status, _, _ = _get(f"{daemon.url}/nope")
        assert status == 404
        _, snap, _ = _get(f"{daemon.url}/metrics?format=json")
        counts = snap["repro_daemon_requests_total"]["samples"]
        labels = [s["labels"] for s in counts]
        assert any(l["route"] == "other" and l["status"] == "404"
                   for l in labels)
        # Bounded cardinality: every route label is from the known set.
        known = {"optimize", "compact", "healthz", "ready", "stats",
                 "jobs", "report", "metrics", "other"}
        assert {l["route"] for l in labels} <= known

    def test_stats_carries_metrics_summary(
        self, daemon, small_catalog, test_machine
    ):
        self._run_one_batch(daemon, small_catalog, test_machine)
        status, payload, _ = _get(f"{daemon.url}/stats")
        assert status == 200
        summary = payload["metrics"]
        assert summary['repro_daemon_batches_total{status="done"}'] == 1.0
        route = summary[
            'repro_daemon_request_seconds{route="optimize"}']
        assert route["count"] >= 1 and "p99" in route
