"""Per-layer counts and times, taken by wrapping qglrtt's entry points.

The wrappers are installed from the benchmark's own code: module
functions are replaced in every qglrtt module that imported them, methods
on their classes.  A span is timed only at its outermost call, so recursion
is not counted twice; counts cover every call.  Memo statistics are read
through ``cache_info()``.  A metric whose function is gone from qglrtt is
left out of the output, not reported as zero.

Run as a script it wraps one CLI invocation, the way a user runs it:

    python3 perfbench/tracer.py --out FILE -- evalrep --s 01 --weights ...

and writes the raw counters of that process to FILE.
"""

import importlib
import json
import sys
import time

MODULES = ("scalars", "linalg", "tensor", "rtt", "reflections", "weights",
           "affine", "cli")

# (module, attribute, counter key, mode)
TARGETS = [
    ("scalars", "QScalar.__init__", "scalars.canon", "count"),
    ("scalars", "poly_gcd", "scalars.gcd", "gcd"),
    ("rtt", "AlgebraElement.__mul__", "rtt.straighten", "straighten"),
    ("rtt", "AlgebraElement.from_word", "rtt.straighten", "straighten"),
    ("weights", "classify", "weights.classify", "span"),
    ("weights", "build_irreducible", "weights.build", "span"),
    ("weights", "verify_module", "weights.verify", "span"),
    ("linalg", "kernel_basis", "linalg.kernel", "kernel"),
    ("linalg", "RowSpace.add", "linalg.add", "add"),
    ("tensor", "Mat.__matmul__", "tensor.matmul", "span"),
    ("tensor", "SeriesMat.__matmul__", "tensor.series_matmul", "span"),
    ("tensor", "graded_kron", "tensor.kron", "span"),
    ("affine", "evaluation_rep", "affine.eval_rep", "span"),
    ("affine", "tensor", "affine.tensor", "span"),
    ("affine", "verify_affine_relations", "affine.verify", "verify"),
    ("affine", "highest_weight_series", "affine.hw_series", "span"),
    ("affine", "cyclic_span", "affine.span", "span"),
    ("affine", "check_T1", "affine.cert", "span"),
    ("affine", "check_T2", "affine.cert", "span"),
    ("affine", "check_T3", "affine.cert", "span"),
    ("reflections", "verify_odd_reflection", "reflections.verify", "span"),
    ("cli", "main", "cli.main", "span"),
]

# memoised functions read through cache_info()
MEMOS = {"rtt.pair_rule": ("rtt", "_pair_rule"),
         "weights.word_product": ("weights", "_word_product_terms")}


class Tracer:
    """Counters for one process; install once, read with ``raw()``."""

    def __init__(self):
        self.counters = {}
        self.active = {}
        self.stack = []
        self.child_s = {}
        self.memo_start = {}
        self.modules = {}

    def install(self):
        for name in MODULES:
            self.modules[name] = importlib.import_module("qglrtt." + name)
        for key, (mod, attr) in MEMOS.items():
            info = self._cache_info(mod, attr)
            if info is not None:
                self.memo_start[key] = info
        for mod, attr, key, mode in TARGETS:
            self._patch(mod, attr, key, mode)
        return self

    def _cache_info(self, mod, attr):
        fn = getattr(self.modules[mod], attr, None)
        if fn is None or not hasattr(fn, "cache_info"):
            return None
        info = fn.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    def _patch(self, mod, attr, key, mode):
        owner = self.modules[mod]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if raw is None:
                return
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = self._wrap(key, mode, fn)
            setattr(cls, meth, staticmethod(wrapped) if static else wrapped)
        else:
            fn = getattr(owner, attr, None)
            if fn is None:
                return
            wrapped = self._wrap(key, mode, fn)
            for m in self.modules.values():
                for name, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, name, wrapped)
        self.counters.setdefault(key, {"calls": 0, "s": 0.0})
        self.active.setdefault(key, 0)

    def _wrap(self, key, mode, fn):
        counters = self.counters.setdefault(key, {"calls": 0, "s": 0.0})
        clock = time.perf_counter

        if mode == "count":
            def wrapper(*args, **kwargs):
                counters["calls"] += 1
                return fn(*args, **kwargs)
            return wrapper

        if mode == "add":
            counters.setdefault("useful", 0)

            def wrapper(*args, **kwargs):
                counters["calls"] += 1
                out = fn(*args, **kwargs)
                if out:
                    counters["useful"] += 1
                return out
            return wrapper

        if mode == "gcd":
            counters.setdefault("trivial", 0)

            def wrapper(a, b):
                counters["calls"] += 1
                if len(a.coeffs) <= 1 or len(b.coeffs) <= 1:
                    counters["trivial"] += 1
                t0 = clock()
                try:
                    return fn(a, b)
                finally:
                    counters["s"] += clock() - t0
            return wrapper

        if mode == "straighten":
            counters.setdefault("terms", 0)
        elif mode == "kernel":
            counters.setdefault("candidates", 0)
            counters.setdefault("kept", 0)
        elif mode == "verify":
            counters.setdefault("checked", 0)
        active, stack, child_s = self.active, self.stack, self.child_s

        def wrapper(*args, **kwargs):
            counters["calls"] += 1
            if active.get(key):
                out = fn(*args, **kwargs)
            else:
                parent = stack[-1] if stack else None
                active[key] = 1
                stack.append(key)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    active[key] = 0
                    counters["s"] += dt
                    if parent is not None:
                        child_s[parent] = child_s.get(parent, 0.0) + dt
            if mode == "straighten":
                counters["terms"] += len(out.terms)
            elif mode == "kernel" and active.get("weights.build"):
                ncols = args[1] if len(args) > 1 else kwargs["ncols"]
                counters["candidates"] += ncols
                counters["kept"] += ncols - len(out)
            elif mode == "verify":
                counters["checked"] += out["checked"]
            return out
        return wrapper

    def raw(self):
        """Counters plus memo deltas, as plain JSON-able numbers."""
        out = {k: dict(v) for k, v in self.counters.items()}
        for key, start in self.memo_start.items():
            info = self._cache_info(*MEMOS[key])
            if info is not None:
                out[key] = {"hits": info["hits"] - start["hits"],
                            "misses": info["misses"] - start["misses"]}
        out["cli.main"] = dict(out.get("cli.main", {"calls": 0, "s": 0.0}))
        out["cli.main"]["child_s"] = self.child_s.get("cli.main", 0.0)
        return out


def merge(into, raw):
    """Add one process's raw counters into a running total."""
    for key, fields in raw.items():
        tgt = into.setdefault(key, {})
        for f, v in fields.items():
            tgt[f] = tgt.get(f, 0) + v
    return into


def _ratio(num, den):
    return num / den if den else 0.0


def derive(raw, extra):
    """Per-layer metrics from summed raw counters.

    ``extra`` carries what the runner measures around the processes:
    ``startup_s``, ``stdout_bytes`` and ``overhead_ratio``.  A metric whose
    counter is missing (its function is gone) is left out.
    """
    out = {}

    def put(name, unit, fn):
        try:
            out[name] = {"value": fn(), "unit": unit}
        except KeyError:
            pass

    put("scalars.canon_calls", "count", lambda: raw["scalars.canon"]["calls"])
    put("scalars.gcd_calls", "count", lambda: raw["scalars.gcd"]["calls"])
    put("scalars.gcd_s", "s", lambda: raw["scalars.gcd"]["s"])
    put("scalars.gcd_trivial_ratio", "ratio", lambda: _ratio(
        raw["scalars.gcd"]["trivial"], raw["scalars.gcd"]["calls"]))
    put("rtt.straighten_calls", "count",
        lambda: raw["rtt.straighten"]["calls"])
    put("rtt.straighten_s", "s", lambda: raw["rtt.straighten"]["s"])
    rewrites = lambda: raw["rtt.pair_rule"]["hits"] + raw["rtt.pair_rule"]["misses"]
    put("rtt.rewrites", "count", rewrites)
    put("rtt.terms_out", "count", lambda: raw["rtt.straighten"]["terms"])
    put("rtt.rewrites_per_term", "ratio",
        lambda: _ratio(rewrites(), raw["rtt.straighten"]["terms"]))
    put("weights.classify_s", "s", lambda: raw["weights.classify"]["s"])
    put("weights.build_calls", "count", lambda: raw["weights.build"]["calls"])
    put("weights.build_s", "s", lambda: raw["weights.build"]["s"])
    put("weights.candidates", "count",
        lambda: raw["linalg.kernel"]["candidates"])
    put("weights.basis_kept", "count", lambda: raw["linalg.kernel"]["kept"])
    put("weights.kept_ratio", "ratio", lambda: _ratio(
        raw["linalg.kernel"]["kept"], raw["linalg.kernel"]["candidates"]))
    put("weights.product_hit_ratio", "ratio", lambda: _ratio(
        raw["weights.word_product"]["hits"],
        raw["weights.word_product"]["hits"]
        + raw["weights.word_product"]["misses"]))
    put("weights.verify_s", "s", lambda: raw["weights.verify"]["s"])
    put("linalg.kernel_calls", "count", lambda: raw["linalg.kernel"]["calls"])
    put("linalg.kernel_s", "s", lambda: raw["linalg.kernel"]["s"])
    put("linalg.add_calls", "count", lambda: raw["linalg.add"]["calls"])
    put("linalg.add_useful_ratio", "ratio", lambda: _ratio(
        raw["linalg.add"]["useful"], raw["linalg.add"]["calls"]))
    put("tensor.matmul_calls", "count", lambda: raw["tensor.matmul"]["calls"])
    put("tensor.matmul_s", "s", lambda: raw["tensor.matmul"]["s"])
    put("tensor.series_matmul_calls", "count",
        lambda: raw["tensor.series_matmul"]["calls"])
    put("tensor.series_matmul_s", "s",
        lambda: raw["tensor.series_matmul"]["s"])
    put("tensor.kron_s", "s", lambda: raw["tensor.kron"]["s"])
    put("affine.eval_rep_s", "s", lambda: raw["affine.eval_rep"]["s"])
    put("affine.tensor_s", "s", lambda: raw["affine.tensor"]["s"])
    put("affine.verify_s", "s", lambda: raw["affine.verify"]["s"])
    put("affine.verify_checked", "count",
        lambda: raw["affine.verify"]["checked"])
    put("affine.hw_series_s", "s", lambda: raw["affine.hw_series"]["s"])
    put("affine.span_s", "s", lambda: raw["affine.span"]["s"])
    put("affine.cert_s", "s", lambda: raw["affine.cert"]["s"])
    put("reflections.verify_s", "s", lambda: raw["reflections.verify"]["s"])
    put("cli.startup_s", "s", lambda: extra["startup_s"])
    put("cli.main_s", "s", lambda: raw["cli.main"]["s"])
    put("cli.self_s", "s",
        lambda: raw["cli.main"]["s"] - raw["cli.main"]["child_s"])
    put("cli.stdout_bytes", "bytes", lambda: extra["stdout_bytes"])
    put("trace.overhead_ratio", "ratio", lambda: extra["overhead_ratio"])
    return out


def _cli_main(argv):
    """``tracer.py --out FILE -- <qglrtt arguments>``: one traced CLI run."""
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        sys.stderr.write("usage: tracer.py --out FILE -- ARGS...\n")
        return 2
    out_path, cli_args = argv[1], argv[3:]
    tracer = Tracer().install()
    cli = tracer.modules["cli"]
    started = time.monotonic()
    code = cli.main(cli_args)
    sys.stdout.flush()
    raw = tracer.raw()
    raw["cli.main"]["started"] = started
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return code


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
