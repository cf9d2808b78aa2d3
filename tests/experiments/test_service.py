"""End-to-end tests for the ``repro serve`` results service.

The service runs in a background thread on an ephemeral port; the tests are
real HTTP clients (urllib), so the minimal request parser, the routing table
and the drain loop are all exercised exactly as a deployment would.
"""

import json
import pickle
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.metrics import RunMetrics
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, SweepExecutor
from repro.experiments.serialization import scenario_to_dict
from repro.experiments.service import CampaignService


@pytest.fixture(scope="module")
def tiny_config():
    return ScenarioConfig(
        duration_s=1200.0,
        area_km2=12.0,
        num_gateways=2,
        num_routes=3,
        trips_per_route=2,
        stops_per_route=4,
        min_block_repeats=1,
        max_block_repeats=2,
        device_range_m=1000.0,
        seed=23,
    )


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    executor = SweepExecutor(workers=1, cache_dir=tmp_path_factory.mktemp("store"))
    svc = CampaignService(executor, host="127.0.0.1", port=0)
    thread = threading.Thread(target=svc.run_blocking, daemon=True)
    thread.start()
    assert svc.ready.wait(timeout=10), "service did not come up"
    yield svc
    svc.stop()
    thread.join(timeout=10)


def _request(service, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{service.bound_port}{path}", data=body, method=method
    )
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def _poll_until_done(service, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, payload = _request(service, "GET", f"/jobs/{job_id}")
        assert status == 200
        if payload["status"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout_s}s")


class TestService:
    def test_health(self, service):
        status, payload = _request(service, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["backend"] == "serial"

    def test_submit_compute_poll_then_cache_hit(self, service, tiny_config):
        body = {"scenario": scenario_to_dict(tiny_config)}

        status, payload = _request(service, "POST", "/runs", body)
        assert status == 202
        job_id = payload["job_id"]
        assert payload["poll"] == f"/jobs/{job_id}"
        assert job_id == RunSpec(config=tiny_config).cache_key()

        finished = _poll_until_done(service, job_id)
        assert finished["status"] == "done"
        assert finished["error"] is None
        assert finished["metrics"]["messages_generated"] > 0

        # Resubmitting the identical scenario is a pure store lookup.
        status, payload = _request(service, "POST", "/runs", body)
        assert status == 200
        assert payload["cached"] is True
        assert payload["metrics"] == finished["metrics"]

        # The digest alone is enough once the result exists.
        status, payload = _request(
            service, "POST", "/runs", {"cache_key": job_id}
        )
        assert status == 200
        status, payload = _request(service, "GET", f"/results/{job_id}")
        assert status == 200
        assert payload["metrics"]["scheme"] == tiny_config.scheme

    def test_summary_aggregates_the_store(self, service, tiny_config):
        body = {"scenario": scenario_to_dict(tiny_config)}
        status, payload = _request(service, "POST", "/runs", body)
        if status == 202:
            _poll_until_done(service, payload["job_id"])
        status, payload = _request(service, "GET", "/summary")
        assert status == 200
        assert payload["runs"] >= 1
        assert 0.0 <= payload["delivery_ratio"] <= 1.0

    def test_undelivered_run_serves_null_not_nan(self, service):
        # No deliveries: the mean delay and hop count are NaN, which JSON
        # cannot carry; the response must still be strict JSON.
        metrics = RunMetrics(
            scheme="robc", num_gateways=1, device_range_m=500.0, duration_s=600.0,
            messages_generated=4, messages_delivered=0,
        )
        key = f"v1-{'a' * 64}-n-0"
        service.executor.store.store(key, metrics)
        url = f"http://127.0.0.1:{service.bound_port}/results/{key}"
        with urllib.request.urlopen(url, timeout=30) as response:
            body = response.read().decode("utf-8")

        def reject(literal):
            raise AssertionError(f"non-JSON literal {literal} in {body}")

        payload = json.loads(body, parse_constant=reject)
        assert payload["metrics"]["mean_delay_s"] is None
        assert payload["metrics"]["mean_hop_count"] is None

    def test_unknown_cache_key_is_a_404_not_a_job(self, service):
        absent = f"v1-{'0' * 64}-n-0"
        status, payload = _request(service, "POST", "/runs", {"cache_key": absent})
        assert status == 404
        status, _ = _request(service, "GET", f"/results/{absent}")
        assert status == 404
        status, _ = _request(service, "GET", f"/jobs/{absent}")
        assert status == 404

    def test_traversal_key_is_a_400_and_touches_no_file(self, service):
        """A client key naming a file outside the store is rejected before
        the store unpickles — or, for a non-RunMetrics pickle, deletes — it."""
        planted = service.executor.store.root.parent / "planted.pkl"
        planted.write_bytes(pickle.dumps({"not": "RunMetrics"}))
        status, payload = _request(
            service, "POST", "/runs", {"cache_key": "../planted"}
        )
        assert status == 400
        assert "malformed cache key" in payload["error"]
        status, payload = _request(service, "GET", "/results/../planted")
        assert status == 400
        assert "malformed cache key" in payload["error"]
        assert planted.exists()

    def test_bad_requests(self, service):
        status, payload = _request(service, "POST", "/runs", {"preset": "no-such"})
        assert status == 400
        assert "no-such" in payload["error"]
        status, _ = _request(service, "POST", "/runs", {})
        assert status == 400
        status, _ = _request(service, "GET", "/no-such-route")
        assert status == 404
        status, _ = _request(service, "POST", "/health")
        assert status == 405

    @pytest.mark.parametrize(
        "extra",
        [
            {"nominal_gateways": "x"},
            {"nominal_gateways": -5},
            {"nominal_gateways": True},
            {"replicate": [1]},
            {"replicate": -1},
        ],
    )
    def test_malformed_spec_fields_are_a_400_and_queue_nothing(self, service, extra):
        jobs_before = dict(service.jobs)
        status, payload = _request(
            service, "POST", "/runs", {"preset": "urban-smoke", **extra}
        )
        assert status == 400, payload
        assert "bad run request" in payload["error"]
        assert service.jobs == jobs_before

    def test_malformed_wire_spec_is_a_400(self, service, tiny_config):
        spec = {"scenario": scenario_to_dict(tiny_config), "replicate": -1}
        status, payload = _request(service, "POST", "/runs", {"spec": spec})
        assert status == 400, payload
        status, payload = _request(service, "POST", "/runs", {"spec": 5})
        assert status == 400, payload

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scenario_float_is_a_400(self, service, tiny_config, value):
        scenario = {**scenario_to_dict(tiny_config), "duration_s": value}
        # json.dumps writes the NaN/Infinity literals the service's parser accepts.
        status, payload = _request(service, "POST", "/runs", {"scenario": scenario})
        assert status == 400, payload
        assert "duration_s" in payload["error"]

    def test_non_finite_message_interval_is_a_400(self, service, tiny_config):
        # A NaN interval once ran as one message per device under its own
        # cache key.
        scenario = scenario_to_dict(tiny_config)
        scenario["device"] = {**scenario["device"], "message_interval_s": float("nan")}
        jobs_before = dict(service.jobs)
        status, payload = _request(service, "POST", "/runs", {"scenario": scenario})
        assert status == 400, payload
        assert "message_interval_s" in payload["error"]
        assert service.jobs == jobs_before

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_engine_tick_is_a_400(self, service, tiny_config, value):
        scenario = scenario_to_dict(tiny_config)
        scenario["engine"] = {**scenario["engine"], "tick_s": value}
        jobs_before = dict(service.jobs)
        status, payload = _request(
            service, "POST", "/runs", {"spec": {"scenario": scenario}}
        )
        assert status == 400, payload
        assert "tick_s" in payload["error"]
        assert service.jobs == jobs_before

    @pytest.mark.parametrize("field", ["scheme", "device_class"])
    @pytest.mark.parametrize("wrap", ["scenario", "spec"])
    def test_unknown_registry_name_is_a_400_and_queues_nothing(
        self, service, tiny_config, field, wrap
    ):
        # `repro run` refuses these names; the service once queued a job for
        # them that could only fail in the worker.
        scenario = {**scenario_to_dict(tiny_config), field: "nope"}
        body = {"scenario": scenario} if wrap == "scenario" else {"spec": {"scenario": scenario}}
        jobs_before = dict(service.jobs)
        status, payload = _request(service, "POST", "/runs", body)
        assert status == 400, payload
        assert "'nope'" in payload["error"]
        assert service.jobs == jobs_before

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_a_400_and_queues_nothing(self, service, length):
        # urllib always sends the true length, so the header goes over a raw
        # socket.  A negative length once reached readexactly() and was a 500.
        jobs_before = dict(service.jobs)
        request = (
            "POST /runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(("127.0.0.1", service.bound_port), timeout=30) as conn:
            conn.sendall(request)
            response = b""
            while chunk := conn.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400", response
        assert "Content-Length" in json.loads(body)["error"]
        assert service.jobs == jobs_before

    def test_body_shorter_than_content_length_is_a_400(self, service):
        # The client shuts its side after 2 of 10 promised bytes; readexactly()
        # raised IncompleteReadError, which was a 500.
        jobs_before = dict(service.jobs)
        request = (
            "POST /runs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Length: 10\r\nConnection: close\r\n\r\n{}"
        ).encode("latin-1")
        with socket.create_connection(("127.0.0.1", service.bound_port), timeout=30) as conn:
            conn.sendall(request)
            conn.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := conn.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400", response
        assert "2 of 10" in json.loads(body)["error"]
        assert service.jobs == jobs_before

    def test_executor_without_store_is_rejected(self):
        with pytest.raises(ValueError, match="store"):
            CampaignService(SweepExecutor(workers=1))
