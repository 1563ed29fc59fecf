"""The repository benchmark: one seeded workload, end to end.

    python3 flickbench/run.py --workload small_rpc --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics (taken
from timing wrappers the benchmark swaps in around each layer; traced
and untraced blocks alternate, and ``trace.overhead_us`` is their
difference).  Host facts go to standard output before that line, and
the full record (raw times, calibrations, host facts) to
``.flickbench_out/``.

Each run does a fixed amount of work scaled from ``--seconds``.  Client
and server are fresh interpreters: this script starts ``client.py``,
which starts ``server.py``; all traffic crosses the loopback interface.

The host's speed drifts by tens of percent within minutes, so times are
reported at a reference host speed:

* ``setup_s`` is the median over ``SETUP_TRIALS`` fresh set-ups and the
  measured run's own, each multiplied by ``REFERENCE_PROBE_S`` over the
  time of :data:`PROBE` (a fresh interpreter importing standard
  modules) measured next to it;
* the times of ``small_rpc``, ``bulk_rpc`` and ``compile`` are scaled
  per cycle of blocks by a pure-Python calibration unit (see
  ``client.Workload.end_cycle``); ``pipelined_rpc``'s are as measured,
  because its offered rate and its servant's wait set them.

Calls and set-ups during which the hypervisor took CPU time (the steal
counter of ``/proc/stat`` moved) are left out of latencies, rates and
``setup_s`` while enough others remain (see ``client.unstolen``).

Python's bytecode for ``src/`` is cached in ``.flickbench_cache/``
(filled by one discarded warm-up), so set-up times the program rather
than CPython's byte-compiler; the record says whether it was warm.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

import common

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".flickbench_cache")
OUT = os.path.join(ROOT, ".flickbench_out")
WORKLOADS = ("small_rpc", "bulk_rpc", "pipelined_rpc", "compile")

#: Fresh set-ups per run besides the measured one; set-up time is the
#: median of all of them.
SETUP_TRIALS = 8
#: A fresh interpreter importing these standard modules is the probe
#: that set-up times are scaled by; it starts like the clients do but
#: runs none of the program.
PROBE = "import asyncio, json, dataclasses, typing, argparse, email.parser, \
http.client"
#: The probe's time at the reference host speed, seconds.
REFERENCE_PROBE_S = 0.1

#: A run must end within 180 s; the first run in a checkout also
#: fills the bytecode cache, which may take longer.
RUN_TIMEOUT_S = 165
WARM_UP_TIMEOUT_S = 600


def child_env():
    """The clients' environment: ``src`` importable, bytecode cached in
    a directory the benchmark owns, writes enabled for it alone, and a
    fixed hash seed so that counted work repeats between runs."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(CACHE, "pycache")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A client process whose stdout lines arrive with receipt times."""

    def __init__(self, argv, env):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "client.py")] + argv,
            stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def expect(self, prefix, deadline):
        """(receipt time, rest of line) of the next line with *prefix*."""
        while True:
            remaining = deadline - time.perf_counter()
            try:
                when, line = self.lines.get(timeout=max(0.0, remaining))
            except queue.Empty:
                raise RuntimeError("client timed out waiting for %s"
                                   % prefix) from None
            if line is None:
                raise RuntimeError("client exited before %s" % prefix)
            if line.startswith(prefix):
                return when, line[len(prefix):].strip()

    def finish(self, deadline):
        try:
            self.proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError("client exited with %d" % self.proc.returncode)

    def stop(self):
        """Kill the client's whole session (it and its server child)."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def run_client(args, phase, env, deadline):
    """(set-up seconds, client RESULT, whether the hypervisor stole CPU
    time during set-up) of one client process, which must finish by
    *deadline* (a ``time.perf_counter`` value)."""
    steal = common.steal_ticks()
    out = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                   args.trace))
    os.makedirs(out, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--phase", phase, "--out", out]
    child = Child(argv, env)
    try:
        ready, _ = child.expect("READY", deadline)
        stolen = common.steal_ticks() != steal
        _, result = child.expect("RESULT", deadline)
        child.finish(deadline)
    finally:
        child.stop()
    return ready - child.started, json.loads(result), stolen


def probe_s(env):
    """Seconds a fresh interpreter takes to import :data:`PROBE`."""
    started = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", PROBE], env=env, check=True)
    return time.perf_counter() - started


def ensure_warm(args, env):
    """Fill the bytecode cache with one discarded set-up; True if it
    was already warm for this workload."""
    marker = os.path.join(CACHE, "warm-" + args.workload)
    if os.path.exists(marker):
        return True
    os.makedirs(CACHE, exist_ok=True)
    probe_s(env)
    run_client(args, "setup", env, time.perf_counter() + WARM_UP_TIMEOUT_S)
    with open(marker, "w") as handle:
        handle.write("warm\n")
    return False


def calibration_ns():
    """The median of a few calibration units: how fast the host runs."""
    return statistics.median(common.calibration_ns() for _ in range(5))


def read_text(path, default=""):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return default


def steal_ticks():
    fields = read_text("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else 0


def src_lines():
    total = 0
    for base, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def cpu_model():
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def host_facts():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "src_lines": src_lines(),
    }


def host_sample():
    return {
        "calibration_ns": calibration_ns(),
        "cpu_pressure": read_text("/proc/pressure/cpu").strip(),
        "steal_ticks": steal_ticks(),
        "loadavg": read_text("/proc/loadavg").strip(),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def assemble(spec, args, setup_times, stolen, result, trials):
    """The metrics of this run, named and with units as in the spec."""
    if args.trace:
        values = dict(result["layers"])
        for name in ("import_ms", "first_compile_ms", "server_ready_ms",
                     "first_reply_ms"):
            samples = [trial[name] for trial in trials if name in trial]
            if not samples and name in result["setup_ms"]:
                samples = [result["setup_ms"][name]]
            values["setup." + name] = (statistics.median(samples)
                                       if samples else 0.0)
        wanted = spec["per_layer"]
    else:
        values = dict(result["e2e"])
        # Set-ups during which the hypervisor took CPU time are left out
        # while at least three others remain.
        clean = [seconds for seconds, steal in zip(setup_times, stolen)
                 if not steal]
        values["setup_s"] = statistics.median(
            clean if len(clean) >= 3 else setup_times)
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            raise RuntimeError("metric %s was not measured" % entry["name"])
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("flickbench: no src/repro under %s; run from a full "
                 "checkout" % ROOT)
    spec = load_spec()
    env = child_env()
    facts = host_facts()
    facts["start"] = host_sample()
    facts["cache_warm"] = ensure_warm(args, env)
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    # Set-up is process start and imports more than computation, so it
    # is scaled to the reference host speed by the probe taken before
    # and after each set-up (before only for the measured run, whose
    # client is still busy afterwards).
    probes = [probe_s(env)]
    raw_setup = []
    setup_times = []
    stolen = []
    trials = []
    for _ in range(SETUP_TRIALS):
        seconds, trial, steal = run_client(args, "setup", env, deadline)
        probes.append(probe_s(env))
        raw_setup.append(seconds)
        setup_times.append(seconds * 2 * REFERENCE_PROBE_S
                           / (probes[-2] + probes[-1]))
        stolen.append(steal)
        trials.append(trial["setup_ms"])
    seconds, result, steal = run_client(args, "measure", env, deadline)
    raw_setup.append(seconds)
    setup_times.append(seconds * REFERENCE_PROBE_S / probes[-1])
    stolen.append(steal)
    facts["end"] = host_sample()

    failed = result["planned"] - result["completed"] + result["wrong"]
    correct = failed == 0
    metrics = {}
    if not result["stopped"]:
        metrics = assemble(spec, args, setup_times, stolen, result, trials)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": facts,
        "setup_s_samples": setup_times, "setup_s_raw": raw_setup,
        "setup_stolen": stolen, "probe_s": probes,
        "setup_ms_trials": trials,
        "client": result, "metrics": metrics,
    }
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print("host " + json.dumps(facts))
    if result["stopped"]:
        sys.exit("flickbench: run stopped after %d of %d operations (%s)"
                 % (result["completed"], result["planned"],
                    result["stopped"]))
    print(json.dumps({"correct": correct, "attempted": result["planned"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
