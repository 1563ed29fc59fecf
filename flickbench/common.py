"""Schemas, servants, seeded inputs and /proc readers shared by the
benchmark's client and server processes.

Nothing here imports :mod:`repro` at module level, so the orchestrator
(``run.py``) can read the constants without paying for the compiler.
"""

from __future__ import annotations

import glob
import os
import random
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-call deadline, seconds.  A missed deadline fails the call and
#: ends the run, so a stalled server cannot hang the benchmark.
DEADLINE_S = 5.0

#: The benchmark's own copy of the paper's Fig. 3 interface over ONC
#: RPC.  Each bulk op returns a checksum the client recomputes, so the
#: server's decode is checked; ``read_ints`` carries a bulk *reply*
#: (client decode); ``echo`` is the small op of ``pipelined_rpc``.
BULK_ONC = """
struct coord { int x; int y; };
struct rect { coord ul; coord lr; };
struct stat_info {
  int f00; int f01; int f02; int f03; int f04;
  int f05; int f06; int f07; int f08; int f09;
  int f10; int f11; int f12; int f13; int f14;
  int f15; int f16; int f17; int f18; int f19;
  int f20; int f21; int f22; int f23; int f24;
  int f25; int f26; int f27; int f28; int f29;
  opaque tag[16];
};
struct dirent { string name<>; stat_info st; };
struct read_args { int count; int seed; };
typedef int int_seq<>;
typedef rect rect_seq<>;
typedef dirent dir_seq<>;
program BULK {
  version BULKV {
    int ints(int_seq) = 1;
    int rects(rect_seq) = 2;
    int dirents(dir_seq) = 3;
    int_seq read_ints(read_args) = 4;
    int echo(int) = 5;
  } = 1;
} = 0x20000043;
"""

#: Bytes one element occupies on the wire (Fig. 3 sizes are payloads).
INT_BYTES, RECT_BYTES, DIRENT_BYTES = 4, 16, 256
DIR_NAME_LENGTH = 116  # 4 + 116 + 30*4 + 16 = 256 XDR bytes per entry
BULK_MIN_BYTES, BULK_MAX_BYTES = 16 * 1024, 256 * 1024
BULK_OPS = ("ints", "rects", "dirents", "read_ints")

#: Simulated backend wait of the pipelined servant, seconds.
BACKEND_WAIT_S = 0.002
MASK31 = 0x7FFFFFFF


def schema_source(name):
    """(source text, file name) of a schema the benchmark serves."""
    if name == "mail":
        path = os.path.join(ROOT, "examples", "idl", "mail.idl")
        with open(path) as handle:
            return handle.read(), "mail.idl"
    if name == "bulk":
        return BULK_ONC, "bulk.x"
    from repro import workloads

    if name == "bench_onc":
        return workloads.BENCH_IDL_ONC, "bench.x"
    if name == "bench_corba":
        return workloads.BENCH_IDL_CORBA, "bench.idl"
    raise ValueError("unknown schema %r" % name)


def compile_corpus():
    """Every ``(name, text)`` the ``compile`` workload compiles: the
    example schemas plus the four bench schemas of ``repro.workloads``."""
    from repro import workloads

    corpus = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "idl", "*"))):
        with open(path) as handle:
            corpus.append((os.path.basename(path), handle.read()))
    corpus += [
        ("bench.idl", workloads.BENCH_IDL_CORBA),
        ("bench.x", workloads.BENCH_IDL_ONC),
        ("bench.defs", workloads.MIG_BENCH_IDL),
        ("bench.py", workloads.BENCH_PYSCHEMA),
    ]
    return corpus


COMPILE_BACKENDS = ("iiop", "oncrpc-xdr", "mach3", "fluke")


# ----------------------------------------------------------------------
# Servants and the reply values the client expects from them
# ----------------------------------------------------------------------

class MailStore:
    """The Mail servant; the client runs its own copy as the model of
    the stored state, so every reply is checked against it."""

    SLOTS = 64

    def __init__(self):
        self.ring = [""] * self.SLOTS
        self.count = 0

    def send(self, msg, urgency):
        self.ring[self.count % self.SLOTS] = msg
        self.count += 1

    def check(self, user):
        return (self.count * 100 + len(user)) & MASK31

    def fetch(self, slot):
        return self.ring[slot % self.SLOTS]


def ints_checksum(values):
    return sum(values) & MASK31


def rects_checksum(values):
    return (len(values) + values[-1].lr.y) & MASK31


def dirents_checksum(values):
    last = values[-1]
    return (len(values) + last.st.f29 + len(last.name)) & MASK31


def read_ints_values(count, seed):
    return [(seed + index * 2654435761) & MASK31 for index in range(count)]


def echo_value(value):
    return (value * 2654435761 + 1) & MASK31


class BulkServant:
    def ints(self, values):
        return ints_checksum(values)

    def rects(self, values):
        return rects_checksum(values)

    def dirents(self, values):
        return dirents_checksum(values)

    def read_ints(self, args):
        return read_ints_values(args.count, args.seed)

    def echo(self, value):
        return echo_value(value)


class SlowBulkServant(BulkServant):
    """``echo`` waits on a simulated backend, as a database call would."""

    def echo(self, value):
        time.sleep(BACKEND_WAIT_S)
        return echo_value(value)


class BenchServant:
    """The ``repro.workloads`` Fig. 3 interface: void operations."""

    def ints(self, values):
        pass

    def rects(self, values):
        pass

    def dirents(self, values):
        pass


SERVANTS = {
    "mail": MailStore,
    "bulk": BulkServant,
    "slow": SlowBulkServant,
    "bench": BenchServant,
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

def seeded_text(rng, low, high):
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 .-"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, high)))


def stratified_sizes(rng, count, low, high):
    """*count* log-uniform sizes in [low, high], one in each of *count*
    equal strata: the seed jitters each size within its stratum and
    shuffles the order, so every seed sends nearly the same size mix."""
    ratio = (high / low) ** (1.0 / count)
    sizes = [int(low * ratio ** (index + rng.random()))
             for index in range(count)]
    rng.shuffle(sizes)
    return sizes


def bulk_bases(module, rng):
    """Seeded max-size arrays; each call sends a prefix slice of one."""
    ints = [rng.getrandbits(31) for _ in range(BULK_MAX_BYTES // INT_BYTES)]
    rects = [
        module.rect(module.coord(rng.getrandbits(31), rng.getrandbits(31)),
                    module.coord(rng.getrandbits(31), rng.getrandbits(31)))
        for _ in range(BULK_MAX_BYTES // RECT_BYTES)
    ]
    tag = bytes(rng.getrandbits(8) for _ in range(16))
    dirents = [
        module.dirent(
            seeded_text(rng, DIR_NAME_LENGTH, DIR_NAME_LENGTH),
            module.stat_info(*([rng.getrandbits(31) for _ in range(30)]
                               + [tag])),
        )
        for _ in range(BULK_MAX_BYTES // DIRENT_BYTES)
    ]
    return {"ints": ints, "rects": rects, "dirents": dirents}


# ----------------------------------------------------------------------
# Statistics and /proc readers
# ----------------------------------------------------------------------

def pct(values, fraction):
    """The *fraction* quantile (0.5 = median) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = fraction * (len(ordered) - 1)
    low = int(index)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (index - low)


def median(values):
    return statistics.median(values) if values else 0.0


def task_counters(pid):
    """(on-CPU ns, context switches) summed over the threads of *pid*."""
    cpu_ns = switches = 0
    base = "/proc/%d/task" % pid
    for tid in os.listdir(base):
        try:
            with open("%s/%s/schedstat" % (base, tid)) as handle:
                cpu_ns += int(handle.read().split()[0])
            with open("%s/%s/status" % (base, tid)) as handle:
                for line in handle:
                    if "ctxt_switches:" in line:
                        switches += int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread exited between listdir and open
    return cpu_ns, switches


def steal_ticks():
    """Clock ticks the hypervisor has taken from this machine's CPUs."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8])


def proc_status_kb(pid, field):
    """A ``/proc/<pid>/status`` size field (VmHWM, VmRSS) in KiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


#: Thread CPU time of :func:`calibration_ns` at the reference host
#: speed; times of CPU-bound workloads are reported at that speed.
REFERENCE_CALIBRATION_NS = 1_600_000


def calibration_ns():
    """Thread CPU time of a fixed pure-Python loop (no :mod:`repro`
    code), which tracks how fast the host currently runs Python."""
    start = time.thread_time_ns()
    total = 0
    for index in range(20000):
        total += index * index & 7
    return time.thread_time_ns() - start


def new_rng(seed, stream):
    """An independent seeded stream per purpose, so adding draws to one
    purpose does not shift the inputs of another."""
    return random.Random("%s/%s" % (seed, stream))
