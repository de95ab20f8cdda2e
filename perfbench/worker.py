"""One round of a library workload (``scan`` or ``straighten``).

    python3 perfbench/worker.py --workload scan --seed 1 [--trace] [--setup-only]

Runs in a fresh interpreter with qglrtt on ``PYTHONPATH``.  It imports
qglrtt, builds the job list from the seed and prints ``READY``; the time
from process start to that line is the set-up time.  It then runs every job
in turn, timing each, and afterwards checks every output; checking is not
timed.  The last line of its output is one JSON object with the timings,
the check results and, with ``--trace``, the raw per-layer counters.
"""

import argparse
import json
import resource
import sys
import time
from fractions import Fraction

import oracles
import workloads


def _letters(letters):
    return [((k, i, j), e) for k, i, j, e in letters]


def _word_of(key):
    return [[g[0], g[1], g[2], e] for g, e in key]


class Scan:
    def __init__(self):
        from qglrtt import weights
        self.w = weights

    def jobs(self, seed):
        return workloads.scan_jobs(seed)

    def run(self, job):
        w = self.w
        weight = w.parse_weight(job["s"], job["weights"])
        verdict = w.classify(job["s"], weight)
        return verdict, w.build_irreducible(job["s"], weight, job["cap"])

    def summary(self, out):
        verdict, rep = out
        stabilised = rep != self.w.DID_NOT_STABILIZE
        eigen = {}
        if stabilised:
            z = rep.maximal_index
            for (kind, i, j), m in rep.matrices.items():
                if i == j:
                    eigen["%s[%d,%d]" % (kind, i, j)] = \
                        oracles.scalar_monomial(m[z, z])
        return {
            "finite": verdict["finite"],
            "typical": verdict["typical"],
            "kac_dimension": verdict["kac_dimension"],
            "stabilised": stabilised,
            "dim": rep.dim if stabilised else None,
            "eigen": eigen,
        }

    def check(self, job, out):
        return oracles.check_scan(job, self.summary(out))

    def controls(self, jobs, outputs):
        """A typical module reported one dimension too large must be caught."""
        for job, (out, err) in zip(jobs, outputs):
            exps = [Fraction(e) for e in job["exps"]]
            if (err is None and out[1] != self.w.DID_NOT_STABILIZE
                    and oracles.is_typical(job["s"], exps)):
                wrong = dict(self.summary(out), dim=out[1].dim + 1)
                return [] if oracles.check_scan(job, wrong) else [
                    "scan: dimension off by one"]
        return ["scan: no typical module to perturb"]


class Straighten:
    def __init__(self):
        from qglrtt import reflections, rtt, scalars
        self.rtt, self.refl, self.scalars = rtt, reflections, scalars

    def jobs(self, seed):
        return workloads.straighten_jobs(seed)

    def _element(self, s, factor):
        coeff = self.scalars.QScalar.from_int(factor["coeff"])
        return self.rtt.AlgebraElement.from_word(
            s, _letters(factor["letters"]), coeff)

    def run(self, job):
        kind = job["kind"]
        if kind == "triple":
            out = []
            for triple in job["triples"]:
                x, y, z = (self._element(triple["s"], f)
                           for f in triple["factors"])
                out.append(((x * y) * z, x * (y * z)))
            return out
        s = job["s"]
        if kind == "word":
            return self.rtt.AlgebraElement.from_word(s, _letters(job["letters"]))
        if kind == "relations":
            return self.rtt.check_defining_relations(s)
        if kind == "dj":
            return self.rtt.check_dj_relations(s)
        return self.refl.verify_odd_reflection(s, job["i"])

    def _fold(self, s, letters):
        gen = self.rtt.AlgebraElement.generator
        out = self.rtt.AlgebraElement.one(s)
        for kind, i, j, e in letters:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                out = out * gen(s, kind, i, j, step)
        return out

    def check(self, job, out):
        kind = job["kind"]
        if kind in ("triple", "word"):
            if kind == "triple":
                cases = [(t["s"], lhs, rhs)
                         for t, (lhs, rhs) in zip(job["triples"], out)]
            else:
                cases = [(job["s"], out, out)]
            errors = []
            for s, lhs, rhs in cases:
                for key in lhs.terms:
                    errors += oracles.check_normal_word(s, _word_of(key))
                if lhs != rhs:
                    errors.append("(xy)z != x(yz)")
            if kind == "word" and out != self._fold(job["s"], job["letters"]):
                errors.append("from_word differs from the fold of its letters")
            return errors
        errors = oracles.check_flags(out)
        if not out.get("checked", out.get("relations_checked")):
            errors.append("no relation instance was checked")
        if kind == "reflection" and (out["relation_failures"]
                                     or out["roundtrip_ok"] is not True):
            errors.append("reflection failures or roundtrip mismatch")
        return errors

    def controls(self, jobs, outputs):
        """Unequal triple products and a wrong word must be caught."""
        silent, seen = [], set()
        for job, (out, err) in zip(jobs, outputs):
            kind = job["kind"]
            if err or kind in seen or job.get("known_fault"):
                continue
            if kind == "triple":
                wrong = [(lhs, rhs.scale(2)) for lhs, rhs in out]
                if all(lhs.is_zero() for lhs, _ in out):
                    continue
            elif kind == "word":
                wrong = out + self.rtt.AlgebraElement.one(job["s"])
            elif kind == "reflection":
                wrong = dict(out, roundtrip_ok=False)
            else:
                wrong = dict(out, **{"pass": False})
            seen.add(kind)
            if not self.check(job, wrong):
                silent.append("straighten: perturbed %s output" % kind)
        return silent + ["straighten: no %s output to perturb" % kind
                         for kind in ("triple", "word", "relations", "dj",
                                      "reflection") if kind not in seen]


WORKLOADS = {"scan": Scan, "straighten": Straighten}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    jobs = workload.jobs(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer().install()
    outputs, times = [], []
    clock = time.perf_counter
    start = clock()
    for job in jobs:
        t0 = clock()
        try:
            out, err = workload.run(job), None
        except Exception as exc:  # a job that raises is a failed job
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        times.append(clock() - t0)
        outputs.append((out, err))
    wall = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = tracer.raw() if tracer else None

    results = []
    for job, (out, err) in zip(jobs, outputs):
        errors = [err] if err else workload.check(job, out)
        results.append({"errors": errors,
                        "known_fault": job.get("known_fault")})
    print(json.dumps({"wall": wall, "times": times, "rss_mb": rss_mb,
                      "results": results, "trace": raw,
                      "controls_failed": workload.controls(jobs, outputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
