"""End-to-end and per-layer benchmark of diaglab's verifier runs.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # all four, one process each
    python3 perfbench/run.py --workload all --record    # rewrite references.json

Every operation is one in-process call to ``diaglab.cli.main`` (exactly what
the ``diaglab`` command runs) with ``--out`` into ``perfbench/out``.  The
workload is a closed loop in a single process: its operations run one after
another, in passes over the list permuted by ``--seed``, each under a
deadline enforced by a SIGALRM timer.  The first pass is always whole; the
run then goes on while the next operation is expected to end within
``--seconds``.  ``wall_s`` is the time of one pass, summed from each
operation's median over the run; a missed deadline counts as the deadline.
Each time is scaled to a reference host speed by short probe loops run
before, during and after it (``HostTimer``); the raw pass time is kept in
the result file as ``raw_wall_s``.  Each completed operation is checked against
its recorded reference.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it runs the same untraced passes, then one more pass with every layer
function wrapped (layertrace.py), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with run metadata and every operation, is written to
``perfbench/out/result-<workload>-<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

import layertrace
from workloads import WORKLOADS, groups_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

DEADLINE_S = 30.0       # per operation
SETUP_RUNS = 11
PROBE_LOOPS = 20_000    # one host probe, about 2 ms
PROBE_EVERY_S = 0.1     # CPU time between probes inside a timed interval
EDGE_PROBES = 5         # probes just before and just after it
# About the median time of probe_host() on the 2-core Xeon host the
# benchmark was set up on, so that scaled times read as seconds there.
REFERENCE_PROBE_S = 0.002


class DeadlineMissed(BaseException):
    """Raised by the deadline timer inside the running operation.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def on_alarm(signum, frame):
    raise DeadlineMissed


def release_memory() -> None:
    """Collect garbage and hand free heap pages back to the OS (glibc), so
    that every operation starts from the same resident set, as it would in
    a fresh ``diaglab`` process, whatever ran before it."""
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):
        trim = ctypes.CDLL("libc.so.6").malloc_trim
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def probe_host() -> float:
    """Seconds taken now by a fixed pure-Python loop that shares no code
    with diaglab: a probe of how fast the host is running this process."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return perf_counter() - start


class HostTimer:
    """Times an interval and scales it to the reference host speed.

    The shared host this benchmark was set up on changes speed by up to a
    factor of two within seconds.  So the host is probed just before and
    just after the interval, and every ``PROBE_EVERY_S`` of CPU time inside
    it (from a SIGPROF timer).  ``seconds`` is the interval less the probes
    inside it; ``scale`` turns a time into seconds at the reference speed.
    """

    def __enter__(self) -> "HostTimer":
        self.probes = [probe_host() for _ in range(EDGE_PROBES)]
        self.inside = 0.0
        signal.signal(signal.SIGPROF, self._probe)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def _probe(self, signum, frame) -> None:
        self.probes.append(probe_host())
        self.inside += self.probes[-1]

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.seconds = perf_counter() - self.start - self.inside
        self.probes += [probe_host() for _ in range(EDGE_PROBES)]
        self.scale = REFERENCE_PROBE_S / statistics.fmean(self.probes)


def import_cli():
    """Import diaglab.cli from this checkout's ``src``, and nowhere else."""
    if not (SRC / "diaglab" / "cli.py").is_file():
        raise SystemExit(f"error: no diaglab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diaglab.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported diaglab from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(groups: list[str], runs: int) -> list[tuple[float, float]]:
    """Scaled and raw times, one pair per run, from a fresh interpreter to
    diaglab imported and ``groups`` parsed."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import diaglab.cli; "
            "from diaglab.groups import parse_group_spec; "
            "[parse_group_spec(s) for s in sys.argv[2:]]")
    times = []
    for _ in range(runs):
        with HostTimer() as timer:
            subprocess.run([sys.executable, "-c", code, str(SRC), *groups],
                           cwd=ROOT, check=True)
        times.append((timer.seconds * timer.scale, timer.seconds))
    return times


def observe(argv: tuple[str, ...], code: int, out_path: Path) -> dict:
    """What an operation produced, in the form its reference is stored."""
    if argv[0] != "check-all":
        data = out_path.read_bytes() if out_path.exists() else b""
        return {"exit": code, "sha256": hashlib.sha256(data).hexdigest()}
    try:
        report = json.loads(out_path.read_text())
        pairs = sorted({(c["claim"], c["passed"]) for c in report["claims"]})
        return {"exit": code, "n": report["n"], "ok": report["ok"],
                "claims": [list(p) for p in pairs]}
    except (OSError, ValueError, KeyError, TypeError):  # missing or malformed ledger
        return {"exit": code}


def judge(observed: dict, reference: dict | None) -> str | None:
    """Failure kind, or None if the operation passed."""
    if reference is None:
        return None if observed["exit"] == 0 else "exit"
    if observed["exit"] != reference["exit"]:
        return "exit"
    return None if observed == reference else "mismatch"


def run_op(cli, argv: tuple[str, ...], limit: float, references: dict) -> dict:
    """Run one operation under a deadline of ``limit`` seconds.  The record
    holds its raw ``seconds`` and its ``scaled_s``."""
    op = " ".join(argv)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / "op.out"
    out_path.unlink(missing_ok=True)
    release_memory()
    sink = io.StringIO()
    code, failure, detail = None, None, None
    with HostTimer() as timer:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main([*argv, "--out", str(out_path)])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineMissed:
            failure = "deadline"
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the operation failed; the workload goes on
            failure, detail = "exception", f"{type(exc).__name__}: {exc}"
    if failure == "deadline":  # charged the full time it was allowed, unscaled
        seconds = scaled_s = limit
    else:
        seconds, scaled_s = timer.seconds, timer.seconds * timer.scale
    record = {"op": op, "seconds": seconds, "scaled_s": scaled_s, "failure": failure}
    if failure is None:
        record["observed"] = observe(argv, code, out_path)
        record["failure"] = judge(record["observed"], references.get(op))
        if record["failure"]:
            detail = sink.getvalue()[-2000:]
    if detail:
        record["detail"] = detail
    return record


def run_pass(cli, ops, rng: Random, references: dict, deadline: float,
             trace: layertrace.LayerTrace | None = None) -> list[dict]:
    records = []
    for argv in rng.sample(ops, len(ops)):
        records.append(run_op(cli, argv, deadline, references))
        if trace is not None:
            trace.end_operation()
    return records


def metadata(workload: str, seed: int) -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or revision
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    import numpy
    return {
        "workload": workload, "seed": seed, "deadline_s": DEADLINE_S,
        "git_revision": revision, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def pass_time(records: list[dict], key: str) -> float:
    """One pass's time, from each operation's median over the run."""
    times: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(r["op"], []).append(r[key])
    return sum(statistics.median(t) for t in times.values())


def run_workload(cli, ops, seed: int, seconds: float, trace: bool,
                 references: dict, deadline: float = DEADLINE_S) -> dict:
    """Run one workload; returns the result without metadata."""
    rng = Random(seed)
    groups = groups_of(ops)
    # The set-up runs are split between the start and the end of the run,
    # so that their median spans the host's drift over the run.
    setup = [] if trace else measure_setup(groups, SETUP_RUNS // 2 + 1)
    start = perf_counter()
    # One whole pass, then further permuted passes, operation by operation,
    # up to the first operation not expected (from its last time) to end
    # within `seconds`.  So a run lasts at most `seconds` unless its first
    # pass is longer, and the workload's long operations, which carry most
    # of its time, are sampled as often as the run's length allows.
    records = run_pass(cli, ops, rng, references, deadline)
    last = {r["op"]: r["seconds"] for r in records}
    more = itertools.chain.from_iterable(rng.sample(ops, len(ops)) for _ in itertools.count())
    for argv in more:
        if perf_counter() + last[" ".join(argv)] > start + seconds:
            break
        records.append(run_op(cli, argv, deadline, references))
        last[records[-1]["op"]] = records[-1]["seconds"]
    passes = len(records) / len(ops)
    wall_s, raw_wall_s = pass_time(records, "scaled_s"), pass_time(records, "seconds")
    ok = sum(r["failure"] is None for r in records)
    if trace:
        with layertrace.LayerTrace() as tracer:
            traced = run_pass(cli, ops, rng, references, deadline, tracer)
        metrics = tracer.metrics()
        traced_s = sum(r["scaled_s"] for r in traced)
        metrics["trace_overhead_s"] = (traced_s - wall_s, "s")
        records += traced
        raw_setup_s = None
    else:
        setup += measure_setup(groups, SETUP_RUNS // 2)
        setup_s, raw_setup_s = (statistics.median(t) for t in zip(*setup))
        metrics = {
            "wall_s": (wall_s, "s"),
            "ok_ratio": (ok / len(records), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    failures = [r for r in records if r["failure"]]
    return {
        # A missed deadline is slow, not wrong; every other failure is.
        "correct": all(r["failure"] == "deadline" for r in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": passes,
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": raw_setup_s,
        "operations": records,
    }


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def record_references(cli, workload: str) -> None:
    """Run each operation once and store what every completed one produced."""
    references = load_references()
    for argv in WORKLOADS[workload]:
        record = run_op(cli, argv, DEADLINE_S, {})
        if "observed" in record:
            references[record["op"]] = record["observed"]
        print(f"{record['op']}: {record['failure'] or 'recorded'} "
              f"({record['seconds']:.2f} s)", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; prints every metric per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd.append("--record")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        if args.record:
            print(proc.stdout, end="")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:6s} {name:48s} {metric['value']:14.6g} {metric['unit']}")
    if not args.record:
        print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record reference outputs instead of measuring")
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    # diaglab runs on one thread.  Keeping the workload, the set-up
    # interpreters and the host probes on one CPU makes the probes track
    # the speed the operations see, and spares the set-up runs migrations.
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = import_cli()
    signal.signal(signal.SIGALRM, on_alarm)
    if args.record:
        record_references(cli, args.workload)
        return 0

    ops = WORKLOADS[args.workload]
    references = load_references()
    result = run_workload(cli, ops, args.seed, args.seconds, bool(args.trace), references)
    meta = metadata(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"metadata": meta, **result}, indent=1) + "\n")

    print(json.dumps(meta))
    for r in result["operations"]:
        if r["failure"]:
            print(f"FAILED ({r['failure']}): {r['op']}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
