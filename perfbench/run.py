"""ckpolylog benchmark: CLI certificate time, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one client: every command of a workload runs as its own
``python -m ckpolylog`` process with ``PYTHONPATH=src``, one at a time, and a
pass runs every command once in an order drawn from the seed.  Passes repeat
until ``--seconds`` have gone by, and at least three times; each metric is
the median over passes.
Every certificate is checked (see ``workloads.py``); a failed check counts
the command as failed.

With ``--trace 1`` one more pass runs each command under ``tracer.py`` and
the per-layer metrics of that pass are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (every metric with its unit, per-pass figures and
provenance).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # a run leaves nothing behind in the checkout
import tracer  # noqa: E402
from workloads import WORKLOADS, CertificateLedger, pass_order  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PER_PASS = 5
SETUP_MIN_SAMPLES = 30
MIN_PASSES = 3
MIN_COVERAGE = 0.9

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "max_cmd_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


@dataclass
class CommandRun:
    argv: tuple
    wall: float
    cpu: float
    maxrss_mb: float
    stdout: bytes
    failure: str | None = None


def child_env():
    """The environment of every child: this checkout's src, no bytecode
    written, and no CKPOLYLOG_CACHE, so a user's shell cannot make a cold
    run warm."""
    env = dict(os.environ)
    env.pop("CKPOLYLOG_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(cmd, env, work):
    """Run one child to completion; wall, rusage, exit code and stdout."""
    out_path = work / "stdout"
    err_path = work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def run_command(argv, env, work, ledger, spans_file=None, cmd_id=0):
    if spans_file is None:
        cmd = [sys.executable, "-m", "ckpolylog", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_file), str(cmd_id),
               "--", *argv]
    wall, cpu, rss, code, out, err = spawn(cmd, env, work)
    run = CommandRun(tuple(argv), wall, cpu, rss, out)
    run.failure = ledger.check(argv, code, out)
    if run.failure and err.strip():
        run.failure += " | " + err.strip().splitlines()[-1].decode(errors="replace")
    return run


def pass_metrics(runs, wall):
    return {
        "wall_s": wall,
        "cpu_s": sum(r.cpu for r in runs),
        "max_cmd_s": max(r.wall for r in runs),
        "peak_rss_mb": max(r.maxrss_mb for r in runs),
    }


def run_pass(order, env, work, ledger, traced=False):
    runs, records = [], []
    t0 = perf_counter()
    for i, argv in enumerate(order):
        spans_file = work / ("spans-%d.json" % i) if traced else None
        if traced:
            spans_file.unlink(missing_ok=True)
        runs.append(run_command(argv, env, work, ledger, spans_file, i))
        if traced:
            if not spans_file.exists():
                raise BenchError("traced '%s' wrote no spans: %s"
                                 % (" ".join(argv), runs[-1].failure))
            with open(spans_file) as fh:
                records.append(json.load(fh))
    return runs, pass_metrics(runs, perf_counter() - t0), records


def time_import(env, work):
    """Wall time of a fresh interpreter importing ckpolylog."""
    wall, _, _, code, _, err = spawn([sys.executable, "-c", "import ckpolylog"], env, work)
    if code != 0:
        raise BenchError("import ckpolylog failed: %s" % err.decode(errors="replace"))
    return wall


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ckpolylog").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(workload, seed, seconds, trace, work):
    rng = random.Random(seed)
    ledger = CertificateLedger()
    all_runs = []
    env = child_env()

    # import time is sampled before every pass, not in one burst, so that
    # its median spans the same stretch of the run as the passes do
    setup_samples = []
    passes = []
    t_end = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < t_end:
        setup_samples += [time_import(env, work) for _ in range(SETUP_PER_PASS)]
        runs, metrics, _ = run_pass(pass_order(workload.commands, rng), env, work, ledger)
        all_runs += runs
        passes.append(metrics)
    while len(setup_samples) < SETUP_MIN_SAMPLES:
        setup_samples.append(time_import(env, work))

    end_to_end = {name: statistics.median(p[name] for p in passes)
                  for name in END_TO_END if name != "setup_s"}
    end_to_end["setup_s"] = statistics.median(setup_samples)

    layers = None
    if trace:
        runs, traced, records = run_pass(pass_order(workload.commands, rng), env, work,
                                         ledger, traced=True)
        all_runs += runs
        layers, fired = tracer.layer_metrics(records)
        layers["trace.overhead_s"] = traced["wall_s"] - end_to_end["wall_s"]
        missing = sorted(set(workload.expected_spans) - fired)
        if missing:
            raise BenchError("expected spans never fired on %s: %s (renamed or moved?)"
                             % (workload.name, ", ".join(missing)))
        if layers["trace.coverage"] < MIN_COVERAGE:
            raise BenchError("trace.coverage %.3f < %.2f on %s: wrap the new entry points"
                             % (layers["trace.coverage"], MIN_COVERAGE, workload.name))

    failures = [(" ".join(r.argv), r.failure) for r in all_runs if r.failure]
    certs = {}
    for r in all_runs:
        certs.setdefault(" ".join(r.argv), hashlib.sha256(r.stdout).hexdigest())
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "passes": len(passes),
        "end_to_end": {name: {"value": end_to_end[name], "unit": unit}
                       for name, unit in END_TO_END.items()},
        "failed_frac": len(failures) / len(all_runs),
        "quartiles": {name: statistics.quantiles([p[name] for p in passes], n=4,
                                                 method="inclusive")
                      for name in END_TO_END if name != "setup_s"},
        "per_pass": passes,
        "setup_samples_s": setup_samples,
        "failures": failures,
        "certificate_sha256": certs,
    }
    if layers is not None:
        report["per_layer"] = {name: {"value": layers[name], "unit": unit}
                               for name, unit in tracer.PER_LAYER.items()}
    result = {
        "correct": not failures,
        "attempted": len(all_runs),
        "failed": len(failures),
        "metrics": report["per_layer"] if trace else report["end_to_end"],
    }
    return report, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "ckpolylog" / "__init__.py").is_file():
        print("perfbench: no ckpolylog sources under %s" % SRC, file=sys.stderr)
        return 2

    provenance = {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        report, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                      args.trace, work)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    provenance["loadavg_end"] = os.getloadavg()
    report["provenance"] = provenance
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
