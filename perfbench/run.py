"""The qglrtt benchmark.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/qglrtt`` must exist).  The
workloads are ``scan``, ``straighten`` and ``cli``; see README.md beside
this file.  Every round starts fresh interpreters, so memo caches start
empty and a round does the same work each time.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced round with ``--trace 1``.  Full results, with every job's
time and check errors, go to ``perfbench/results/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import controls
import oracles
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

ROUND_SECONDS = 30      # nominal length of one round of any workload
SETUP_SAMPLES = 9       # set-up measurements per run, reported as a median
TAIL_BEYOND = 10        # job_tail_s has this many jobs above it
WORKER_TIMEOUT = 170
CLI_TIMEOUT = 60


class BenchError(RuntimeError):
    pass


def child_env():
    """Every child imports qglrtt from source, compiled afresh each time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn_ready(cmd, env):
    """Start cmd; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    return proc, time.perf_counter() - t0, line.strip() == "READY"


def _finish(proc, timeout):
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a worker ran past %d s" % timeout)
    return out, err


def run_worker(workload, seed, env, flags=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)] + list(flags)
    proc, setup, ready = _spawn_ready(cmd, env)
    out, err = _finish(proc, WORKER_TIMEOUT)
    if not ready or proc.returncode != 0:
        raise BenchError("worker failed (exit %s): %s"
                         % (proc.returncode, err.strip()[-2000:]))
    return setup, (json.loads(out.strip().splitlines()[-1])
                   if "--setup-only" not in flags else None)


def setup_probe(workload, seed, env):
    """One set-up measurement: fresh interpreter to first job ready."""
    if workload == "cli":
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import qglrtt.cli"],
                              env=env, cwd=ROOT, capture_output=True,
                              timeout=CLI_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError("cannot import qglrtt.cli: %s"
                             % proc.stderr.decode()[-2000:])
        return time.perf_counter() - t0
    return run_worker(workload, seed, env, ["--setup-only"])[0]


# ---------------------------------------------------------------------------
# rounds: each returns a dict with the round's wall time, job times, check
# results, peak RSS and, when traced, the raw per-layer counters


def library_round(workload, seed, env, traced):
    setup, rep = run_worker(workload, seed, env, ["--trace"] if traced else [])
    return {"wall": rep["wall"], "times": rep["times"],
            "results": rep["results"], "rss_mb": rep["rss_mb"],
            "setup": setup, "raw": rep["trace"],
            "controls": rep["controls_failed"]}


def cli_round(seed, env, traced, scratch):
    factors = os.path.join(scratch, "factors.json")
    jobs = workloads.cli_jobs(seed, os.path.relpath(factors, ROOT))
    with open(factors, "w", encoding="utf-8") as fh:
        json.dump(workloads.README_FACTORS, fh)
    times, results, raw = [], [], {}
    startup = stdout_bytes = 0.0
    start = time.perf_counter()
    for n, job in enumerate(jobs):
        trace_path = os.path.join(scratch, "trace-%d.json" % n)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
                   "--out", trace_path, "--"] + job["argv"]
        else:
            cmd = [sys.executable, "-m", "qglrtt.cli"] + job["argv"]
        spawned = time.monotonic()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  timeout=CLI_TIMEOUT)
            rc, stdout = proc.returncode, proc.stdout.decode()
        except subprocess.TimeoutExpired:
            rc, stdout = None, ""
        times.append(time.perf_counter() - t0)
        if rc is None:
            errors = ["timed out after %d s" % CLI_TIMEOUT]
        else:
            errors = oracles.check_cli_job(job, rc, stdout)
        results.append({"errors": errors, "known_fault": job.get("known_fault"),
                        "argv": job["argv"]})
        stdout_bytes += len(stdout.encode())
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                child = json.load(fh)
            startup += child["cli.main"].pop("started") - spawned
            tracing.merge(raw, child)
    wall = time.perf_counter() - start
    return {"wall": wall, "times": times, "results": results,
            "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            / 1024.0, "raw": raw if traced else None, "controls": [],
            "extra": {"startup_s": startup, "stdout_bytes": stdout_bytes}}


def run_rounds(workload, seed, rounds, env, traced, scratch):
    out = []
    for _ in range(rounds):
        if workload == "cli":
            out.append(cli_round(seed, env, traced, scratch))
        else:
            out.append(library_round(workload, seed, env, traced))
    return out


# ---------------------------------------------------------------------------


def tally(rounds):
    attempted = failed = 0
    unexpected = []
    for r in rounds:
        for res in r["results"]:
            attempted += 1
            if res["errors"]:
                failed += 1
                if not res["known_fault"]:
                    unexpected.append(res)
    return attempted, failed, unexpected


def end_to_end(rounds, setups):
    times = [t for r in rounds for t in r["times"]]
    attempted, failed, _ = tally(rounds)
    wall = sum(r["wall"] for r in rounds)
    metric = lambda v, unit: {"value": v, "unit": unit}
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "jobs_per_s": metric((attempted - failed) / wall, "1/s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(sorted(times)[-TAIL_BEYOND - 1], "s"),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in rounds), "MB"),
    }


def per_layer(plain, traced):
    raw = {}
    for r in traced:
        tracing.merge(raw, r["raw"])
    extra = {"startup_s": 0.0, "stdout_bytes": 0.0}
    for r in traced:
        for k, v in r.get("extra", {}).items():
            extra[k] += v
    extra["overhead_ratio"] = (sum(r["wall"] for r in traced)
                               / sum(r["wall"] for r in plain))
    return tracing.derive(raw, extra), raw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("scan", "straighten", "cli"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qglrtt", "__init__.py")):
        sys.stderr.write("no qglrtt source under %s\n" % SRC)
        return 2
    env = child_env()
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    scratch = os.path.join(RESULTS, "tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        control_failures = controls.run_all()
        plain = run_rounds(args.workload, args.seed, rounds, env, False,
                           scratch)
        if args.trace:
            traced = run_rounds(args.workload, args.seed, rounds, env, True,
                                scratch)
            metrics, raw = per_layer(plain, traced)
            measured = plain + traced
        else:
            setups = [r["setup"] for r in plain if "setup" in r]
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup_probe(args.workload, args.seed, env))
            metrics, raw = end_to_end(plain, setups), None
            measured = plain
    except BenchError as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, unexpected = tally(measured)
    control_failures += [c for r in measured for c in r["controls"]]
    result = {"correct": not unexpected and not control_failures,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    for res in unexpected:
        sys.stderr.write("unexpected failure: %s\n" % res["errors"][:3])
    for c in control_failures:
        sys.stderr.write("negative control did not fire: %s\n" % c)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  rounds=[{k: r[k] for k in ("wall", "times", "results")}
                          for r in measured],
                  raw=raw, controls_failed=control_failures)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
