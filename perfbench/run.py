"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hybrid-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # the three workloads in turn
    python3 perfbench/run.py --list-metrics     # every metric name with its unit
    python3 perfbench/run.py --selftest         # the benchmark's own checks

Each repetition runs the federation in a fresh interpreter.  Untraced
runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) alternate untraced and traced repetitions and report the
per-layer metrics, the tracing overhead among them.  Every run checks the
program's output, prints one line per metric, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; it exits with 1 when a
correctness check fails.  Spans and per-repetition details go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional

from metrics import END_TO_END, PER_LAYER, UNITS, median, percentile
from workloads import ECHO_ACCURACY, WORKLOADS, nproc, serial_reference

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fewest untraced repetitions (traced runs: untraced/traced pairs).
MIN_REPS = 3
MIN_PAIRS = 2
#: A run stops starting repetitions after this long, whatever ``--seconds``.
MAX_RUN_S = 100.0
#: One repetition is killed after this long.
REP_TIMEOUT_S = 60.0
#: Every child is killed by this long after the run started.
RUN_DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"
BASELINE_PATH = os.path.join(HERE, "baseline.json")


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
class Child:
    """A benchmark child process with a kill-on-timeout watchdog."""

    def __init__(self, script: str, request: dict, timeout_s: float) -> None:
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._watchdog = threading.Timer(timeout_s, self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.send(json.dumps(request))

    def send(self, line: str) -> None:
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            pass

    def readline(self) -> str:
        return self.proc.stdout.readline().strip()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()

    def finish(self) -> Optional[dict]:
        """Read the final JSON line, reap the process, stop the watchdog."""
        line = self.readline()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdout.close()
        try:
            return json.loads(line) if line else None
        except json.JSONDecodeError:
            return None


def inproc_rep(config: dict, trace: bool, trace_path: Optional[str] = None,
               timeout_s: float = REP_TIMEOUT_S) -> dict:
    """One in-process run; ``setup_s`` spans interpreter start to built federation."""
    child = Child("inproc.py", {"config": config, "trace": trace,
                                "trace_path": trace_path}, timeout_s)
    built = child.readline()
    setup_s = perf_counter() - child.started
    result = child.finish()
    if built != "built" or result is None:
        return {"ok": False, "error": f"child exited with {child.proc.returncode}"}
    result["setup_s"] = setup_s
    return result


def served_rep(config: dict, trace: bool, trace_path: Optional[str] = None,
               kill_after_s: float = 0.0, timeout_s: float = REP_TIMEOUT_S) -> dict:
    """One served run: a server child and the in-process load generator."""
    from loadgen import LoadGenerator
    from tracer import Tracer

    child = Child("server.py", {"config": config, "trace": trace,
                                "trace_path": trace_path}, timeout_s)
    ready = child.readline()
    setup_s = perf_counter() - child.started
    if not ready.startswith("ready "):
        child.finish()
        return {"ok": False, "error": "server never became ready"}
    generator = LoadGenerator(
        int(ready.split()[1]), config["num_clients"], ECHO_ACCURACY,
        tracer=Tracer() if trace else None,
    )
    killer = threading.Timer(kill_after_s, child.kill)
    if kill_after_s:
        killer.start()

    def watch() -> None:  # a dead server ends the run instead of a retry storm
        while not generator.stop.wait(0.1):
            if child.proc.poll() is not None:
                generator.stop.set()

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        load = generator.run(timeout_s=max(1.0, timeout_s - 10.0))
    finally:
        child.send("stop")  # every session has seen ``done`` (or failed)
        server = child.finish() or {"ok": False, "error": "server died"}
        generator.stop.set()
        watcher.join()
        killer.cancel()
    if trace and trace_path and generator.tracer is not None:
        generator.tracer.write(trace_path.replace(".jsonl", "-loadgen.jsonl"),
                               {"process": "loadgen"})
    server["setup_s"] = setup_s
    server["load"] = load
    return server


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_inproc(rep: dict, reference: Optional[str]) -> List[str]:
    """The repetition ran and reproduced the serial backend's digest."""
    if not rep.get("ok"):
        return [rep.get("error", "failed")]
    if rep["digest"] != reference:
        return [f"history digest {rep['digest'][:12]} != serial {str(reference)[:12]}"]
    return []


def expected_tasks(config: dict) -> int:
    return config["num_clients"] * (config["rounds"] + 1)


def check_served(rep: dict, config: dict) -> List[str]:
    """Every task completed exactly once, the echo came back, no session failed."""
    if not rep.get("ok"):
        return [rep.get("error", "server failed")]
    problems = []
    load = rep["load"]
    expected = expected_tasks(config)
    if load["tasks_accepted"] != expected or rep["tasks_completed"] != expected:
        problems.append(f"{load['tasks_accepted']} tasks accepted, "
                        f"{rep['tasks_completed']} completed, expected {expected}")
    if rep["final_accuracy"] != ECHO_ACCURACY:
        problems.append(f"final accuracy {rep['final_accuracy']} != echo {ECHO_ACCURACY}")
    if load["sessions_failed"] or load["sessions_done"] != config["num_clients"]:
        problems.append(f"{load['sessions_failed']} sessions failed, "
                        f"{load['sessions_done']} saw done")
    return problems


def operations(reps: List[dict], kind: str, config: dict, passed: List[bool]):
    """``(attempted, failed)`` over the measured repetitions.

    Served operations are HTTP attempts, as the generator counted them;
    in-process operations are client tasks.  Every task of a repetition
    that fails its check counts as failed.
    """
    attempted = failed = 0
    for rep, ok in zip(reps, passed):
        if kind == "served":
            load = rep.get("load", {})
            attempted += load.get("attempts", 0)
            failed += load.get("failed", 0)
            if not ok:
                attempted += expected_tasks(config)
                failed += expected_tasks(config)
        else:
            tasks = rep.get("tasks") or 1
            attempted += tasks
            failed += 0 if ok else tasks
    return max(attempted, 1), failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(reps: List[dict], kind: str) -> Dict[str, tuple]:
    """``name -> (value, samples)`` from untraced repetitions."""
    good = [rep for rep in reps if rep.get("ok") and rep.get("run_s")]
    if not good:
        return {}
    rounds = [s for rep in good for s in rep["rounds_s"]]
    if kind == "served":
        requests = [ms for rep in good for ms in rep["load"]["request_ms"]]
        tasks = [rep["load"]["tasks_accepted"] for rep in good]
        examples = [rep["load"]["train_examples"] for rep in good]
    else:
        requests = [ms for rep in good for ms in rep["train_ms"]]
        tasks = [rep["tasks"] for rep in good]
        examples = [rep["train_examples"] for rep in good]
    total_s = sum(rep["run_s"] for rep in good)
    n = len(good)
    # Means and whole-run totals, not medians, for the run-long timings: the
    # host's speed switches between a fast and a slow state for seconds to
    # minutes at a time, and a median of a few values jumps between the two.
    return {
        "setup_s": (median([rep["setup_s"] for rep in good]), n),
        "run_s": (total_s / n, n),
        "round_s_mean": (sum(rounds) / len(rounds), len(rounds)),
        "train_examples_per_s": (sum(examples) / total_s, n),
        "tasks_per_s": (sum(tasks) / total_s, n),
        "request_ms_p50": (percentile(requests, 50), len(requests)),
        "request_ms_p90": (percentile(requests, 90), len(requests)),
        "peak_rss_mb": (median([rep["peak_rss_mb"] for rep in good]), n),
    }


def per_layer(traced: List[dict], untraced: List[dict], kind: str) -> Dict[str, tuple]:
    """``name -> (median over traced repetitions, samples)``.

    A metric that some traced repetition did not produce is left out, so
    the run fails its completeness check.  The ``http.*`` metrics come from
    the load generator; in-process workloads have none and report 0.
    """
    good = [rep for rep in traced if rep.get("ok") and rep.get("layers")]
    plain = [rep["run_s"] for rep in untraced if rep.get("ok") and rep.get("run_s")]
    values: Dict[str, tuple] = {}
    for name in (row["name"] for row in PER_LAYER):
        if not name.startswith("http."):
            sources = [rep["layers"] for rep in good]
        elif kind == "served":
            sources = [rep["load"] for rep in good]
        else:
            sources = [{name: 0.0}] * len(good)
        samples = [float(source[name]) for source in sources if name in source]
        if good and len(samples) == len(good):
            values[name] = (median(samples), len(samples))
    if good and plain:
        traced_run = median([rep["run_s"] for rep in good])
        values["trace.overhead_share"] = (traced_run / median(plain) - 1.0, len(good))
    return values


def environment() -> Dict[str, object]:
    """The machine and numeric stack every result was measured on."""
    import ctypes
    import glob
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    found = {"get_num_threads": -1, "get_corename": b"unknown"}
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        library = ctypes.CDLL(path)
        for query, restype in (("get_num_threads", ctypes.c_int),
                               ("get_corename", ctypes.c_char_p)):
            for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                                   ("openblas_", "")):
                getter = getattr(library, prefix + query + suffix, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = restype
                    found[query] = getter()
                    break
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(found["get_num_threads"]),
        # The kernel set OpenBLAS chose for this CPU; it can change float results.
        "blas_core": found["get_corename"].decode(),
    }


def recorded_digest(workload: str, seed: int, env: Dict[str, object]) -> Optional[str]:
    """The ``History`` digest ``baseline.json`` holds for this seed, if any.

    The newest entry recorded in this same environment wins.  Digests are
    bit-exact, so one measured on other hardware or another numeric stack
    does not apply.
    """
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH) as handle:
        entries = json.load(handle)
    for entry in reversed(entries):
        if entry.get("environment") != env:
            continue
        digest = entry["workloads"].get(workload, {}).get("digests", {}).get(str(seed))
        if digest is not None:
            return digest
    return None


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    config = workload.config(seed)
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    started = perf_counter()

    def budget() -> float:
        remaining = started + RUN_DEADLINE_S - perf_counter()
        return max(5.0, min(REP_TIMEOUT_S, remaining))

    def rep(traced: bool, number: int) -> dict:
        path = os.path.join(OUT_DIR, f"{tag}-rep{number}.jsonl") if traced else None
        if workload.kind == "served":
            return served_rep(config, traced, path, timeout_s=budget())
        return inproc_rep(config, traced, path, timeout_s=budget())

    reference = None
    if workload.kind == "inproc" and config["backend"] != "serial":
        reference = inproc_rep(serial_reference(config), False,
                               timeout_s=budget()).get("digest")
    measure_start = perf_counter()
    untraced: List[dict] = []
    traced: List[dict] = []
    while True:
        elapsed = perf_counter() - measure_start
        enough = (len(traced) >= MIN_PAIRS) if trace else (len(untraced) >= MIN_REPS)
        if (enough and elapsed >= seconds) or perf_counter() - started > MAX_RUN_S:
            break
        untraced.append(rep(False, len(untraced)))
        if trace:
            traced.append(rep(True, len(traced)))
    reps = untraced + traced

    problems = []
    if workload.kind == "served":
        per_rep = [check_served(r, config) for r in reps]
    else:
        recorded = recorded_digest(name, seed, env)
        if reference is None:  # a serial workload: the recorded digest or its first run
            reference = recorded or next((r["digest"] for r in reps if r.get("ok")), None)
        elif recorded is not None and reference != recorded:
            problems.append(f"serial digest {str(reference)[:12]} != recorded {recorded[:12]}")
        per_rep = [check_inproc(r, reference) for r in reps]
    problems += [f"rep {n}: {p}" for n, found in enumerate(per_rep) for p in found]
    attempted, failed = operations(reps, workload.kind, config,
                                   [not found for found in per_rep])
    if trace:
        values = per_layer(traced, untraced, workload.kind)
        catalogue = PER_LAYER
    else:
        values = end_to_end(untraced, workload.kind)
        catalogue = END_TO_END
    problems += [f"metric {row['name']} not produced"
                 for row in catalogue if row["name"] not in values]
    correct = not problems
    summary = {
        "workload": name, "seed": seed, "trace": trace, "config": config,
        "environment": env, "problems": problems,
        "attempted": attempted, "failed": failed,
        "values": values, "reps": [
            {k: v for k, v in r.items() if k != "train_ms"} for r in reps
        ],
    }
    for r in summary["reps"]:
        r.get("load", {}).pop("request_ms", None)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "values": values, "problems": problems, "summary": summary}


def print_result(outcome: dict) -> None:
    env = outcome["summary"]["environment"]
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in outcome["problems"]:
        print("check failed: " + problem)
    for name, (value, samples) in outcome["values"].items():
        print(f"{name} {value:.6g} {UNITS[name]} (n={samples})")
    share = outcome["failed"] / outcome["attempted"]
    print(f"failed_share {share:.6g} fraction "
          f"(n={outcome['attempted']}, failed={outcome['failed']})")
    metrics = {
        name: {"value": value, "unit": UNITS[name]}
        for name, (value, _) in outcome["values"].items()
    }
    print(json.dumps({"correct": outcome["correct"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))


def list_metrics() -> None:
    for row in END_TO_END:
        print(f"end_to_end {row['name']} {row['unit']} {row['better']} bound={row['bound']}")
    print("end_to_end failed_share fraction lower (carried as attempted/failed)")
    for row in PER_LAYER:
        print(f"per_layer {row['name']} {row['unit']} {row['better']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if args.selftest:
        from selftest import run_selftests

        return run_selftests()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(f"== {name}")
        print_result(outcome)
        correct = correct and outcome["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
