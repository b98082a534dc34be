"""Self-tests of the benchmark's own checks (``run.py --selftest``).

Each test runs a tiny federation through the same code paths as a real
benchmark run and shows that a check fails when it should: a wrong
``History`` digest, live or recorded; a short-counted served run; a
server killed mid-run; refused and non-2xx HTTP attempts.  They are not
collected by pytest, so they add nothing to the test suite.
"""

from __future__ import annotations

import copy
import io
import json
import os
import socket
import threading
from contextlib import contextmanager, redirect_stdout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import run
from loadgen import RETRIES, LoadGenerator
from metrics import END_TO_END, PER_LAYER, SPEC
from workloads import ECHO_ACCURACY, WORKLOADS, Workload

TINY_INPROC = {
    "dataset": "cifar10", "algorithm": "sub-fedavg-hy", "num_clients": 4,
    "rounds": 1, "sample_fraction": 0.5, "seed": 7, "backend": "serial",
    "data": {"partition": "shard", "n_train": 80, "n_test": 40},
    "local": {"epochs": 1},
}


def tiny_served(clients: int, rounds: int) -> dict:
    config = copy.deepcopy(WORKLOADS["served-fleet"].config(7))
    config.update(num_clients=clients, rounds=rounds)
    config["data"] = {"partition": "iid", "n_train": 256, "n_test": 128}
    return config


def test_every_listed_workload_is_defined() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_list_metrics_names_every_metric() -> None:
    out = io.StringIO()
    with redirect_stdout(out):
        run.list_metrics()
    listed = {line.split()[1] for line in out.getvalue().splitlines()}
    names = {row["name"] for row in END_TO_END + PER_LAYER} | {"failed_share"}
    assert names <= listed, names - listed


def test_traced_runs_produce_every_layer_metric() -> None:
    names = {row["name"] for row in PER_LAYER}
    plain = run.inproc_rep(TINY_INPROC, trace=False)
    traced = run.inproc_rep(TINY_INPROC, trace=True)
    missing = names - set(run.per_layer([traced], [plain], "inproc"))
    assert not missing, f"in-process run lacks {sorted(missing)}"
    config = tiny_served(clients=8, rounds=1)
    plain = run.served_rep(config, trace=False)
    traced = run.served_rep(config, trace=True)
    missing = names - set(run.per_layer([traced], [plain], "served"))
    assert not missing, f"served run lacks {sorted(missing)}"


def test_wrong_digest_fails_the_check() -> None:
    plain = run.inproc_rep(TINY_INPROC, trace=False)
    traced = run.inproc_rep(TINY_INPROC, trace=True)
    assert plain["ok"] and traced["ok"], (plain, traced)
    # Tracing must not change the result, so both match one reference.
    for rep in (plain, traced):
        assert run.check_inproc(rep, plain["digest"]) == [], rep
    wrong = "0" * 64
    assert run.check_inproc(plain, wrong), "a wrong digest passed"
    corrupted = dict(plain, digest=plain["digest"][::-1])
    assert run.check_inproc(corrupted, plain["digest"])


def test_short_counted_served_run_fails_the_check() -> None:
    config = tiny_served(clients=8, rounds=1)
    rep = run.served_rep(config, trace=False)
    assert run.check_served(rep, config) == [], run.check_served(rep, config)
    short = copy.deepcopy(rep)
    short["load"]["tasks_accepted"] -= 1
    assert run.check_served(short, config), "a short count passed"
    short = copy.deepcopy(rep)
    short["tasks_completed"] -= 1
    assert run.check_served(short, config), "a short server count passed"
    wrong = dict(rep, final_accuracy=0.25)
    assert run.check_served(wrong, config), "a wrong final accuracy passed"


@contextmanager
def recorded(seed: int, digest: str, environment: dict):
    """Point ``run`` at a baseline holding one digest of a tiny workload."""
    path = os.path.join(run.OUT_DIR, "selftest-baseline.json")
    with open(path, "w") as handle:
        json.dump([{"environment": environment,
                    "workloads": {"selftest": {"digests": {str(seed): digest}}}}], handle)
    saved = run.BASELINE_PATH, run.MIN_REPS
    run.BASELINE_PATH, run.MIN_REPS = path, 1
    run.WORKLOADS["selftest"] = Workload("selftest", "inproc", TINY_INPROC)
    try:
        yield
    finally:
        run.BASELINE_PATH, run.MIN_REPS = saved
        del run.WORKLOADS["selftest"]


def test_recorded_digest_is_enforced() -> None:
    env = run.environment()
    seed = TINY_INPROC["seed"]
    right = run.inproc_rep(TINY_INPROC, trace=False)["digest"]
    with recorded(seed, right, env):
        assert run.recorded_digest("selftest", seed, env) == right
        assert run.recorded_digest("selftest", seed + 1, env) is None
        assert run.recorded_digest("selftest", seed, dict(env, blas_core="x")) is None
        outcome = run.run_workload("selftest", seed, 0.0, False)
        assert outcome["correct"], outcome["problems"]
    with recorded(seed, "0" * 64, env):
        outcome = run.run_workload("selftest", seed, 0.0, False)
        assert not outcome["correct"], "a run that differs from its recorded digest passed"


def test_killed_server_counts_failures() -> None:
    config = tiny_served(clients=40, rounds=50)
    rep = run.served_rep(config, trace=False, kill_after_s=1.5)
    assert run.check_served(rep, config), "a killed server passed the check"
    # The generator's own count: the attempts the kill refused or reset.
    assert rep["load"]["failed"] > 0, counts(rep["load"])


def counts(load: dict) -> tuple:
    return load["attempts"], load["failed"], load["sessions_failed"]


def closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class _Unavailable(BaseHTTPRequestHandler):
    def _answer(self) -> None:
        self.send_response(503)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_POST = _answer

    def log_message(self, *args) -> None:
        pass


def test_every_failed_attempt_is_counted() -> None:
    clients = 2
    load = LoadGenerator(closed_port(), clients, ECHO_ACCURACY).run(timeout_s=20.0)
    # Refused: each attempt, retries included, is one failure.
    assert load["attempts"] == load["failed"] == clients * (RETRIES + 1), counts(load)
    assert load["sessions_failed"] == clients, counts(load)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Unavailable)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        load = LoadGenerator(server.server_port, clients, ECHO_ACCURACY).run(timeout_s=20.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    # Non-2xx: answered, so not retried, and still a failure.
    assert load["attempts"] == load["failed"] == clients, counts(load)
    assert load["sessions_failed"] == clients, counts(load)


TESTS = [
    test_every_listed_workload_is_defined,
    test_list_metrics_names_every_metric,
    test_traced_runs_produce_every_layer_metric,
    test_wrong_digest_fails_the_check,
    test_recorded_digest_is_enforced,
    test_short_counted_served_run_fails_the_check,
    test_killed_server_counts_failures,
    test_every_failed_attempt_is_counted,
]


def run_selftests() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    failures = 0
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(TESTS) - failures}/{len(TESTS)} self-tests passed")
    return 1 if failures else 0
