"""Command-line surface: batch verification, classification, certificates.

Every subcommand is pure -- input files and flags map to a JSON document
(stdout, or ``--out FILE``) plus a short human-readable summary on stderr.
Exit codes: 0 = pass/success, 1 = mathematical failure (a verified claim
does not hold, or a verdict contradicts ``--expect``), 2 = usage error.
Identical invocations produce byte-identical JSON.
"""

import argparse
import json
import sys

# Every run is a fresh interpreter, often without cached bytecode, so each
# command imports only the layers it runs: classify never compiles the
# straightening, linear-algebra or loop layers.

WEIGHT_HELP = (
    "comma-separated weight entries '<sign>q^<rational>', "
    "e.g. \"+q^3,+q^1,-q^1/2\"; when the first entry is negative, join "
    "it with '=', as in --weights=-q^1,+q^0"
)

#: Largest number of indices, m + n, that any command accepts.  The work of
#: ``ybe`` and ``braid-verify`` roughly triples with each extra index, and
#: the straightening tables grow with its square; ``ybe`` on (3|3), the
#: costliest size accepted, takes a few seconds.
MAX_INDICES = 6

#: Largest product of the factor dimensions that ``tensor`` accepts, and
#: largest number of factors.  On ``01``, five two-dimensional factors (32)
#: take about 2 s, or 5 s with ``--verify``, and six (64) about 21 s; 32
#: one-dimensional ones take 0.2 s, or 14.5 s with ``--scan-a=0..255``.
MAX_TENSOR_DIM = 32

#: Largest number of ``--scan-a`` points times the product dimension that
#: ``tensor`` accepts.  The scan forms the whole tensor product again at
#: each point: five two-dimensional factors on ``01`` (32) take about 4 s
#: at one point and 16 s at eight (256).
MAX_SCAN_DIM = 256


class UsageError(Exception):
    """Bad flag value or malformed input file (exit code 2)."""


def _note(msg):
    sys.stderr.write(msg + "\n")


def _emit(data, out_path):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_sequence(text):
    from .parity import ParitySeq

    try:
        s = ParitySeq(text)
    except (ValueError, TypeError) as exc:
        raise UsageError("invalid parity sequence %r: %s" % (text, exc))
    if s.N > MAX_INDICES:
        raise UsageError(
            "a parity sequence has at most %d indices, got %d" % (MAX_INDICES, s.N)
        )
    return s


def _parse_weight_arg(s, text):
    from .weights import WeightError, parse_weight

    try:
        return parse_weight(s, text)
    except WeightError as exc:
        raise UsageError("invalid weight %r: %s" % (text, exc))


def _parse_scalar_arg(text):
    from .scalars import ScalarParseError, qscalar_parse

    try:
        return qscalar_parse(text)
    except ScalarParseError as exc:
        raise UsageError("invalid scalar %r: %s" % (text, exc))


def _parse_scan(text):
    """Parse an exponent range 'LO..HI' (inclusive) or a single integer."""
    parts = text.strip().split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError(text)
    except ValueError:
        raise UsageError(
            "invalid scan range %r (expected 'LO..HI' or a single integer)"
            % text
        )
    if hi < lo:
        raise UsageError("empty scan range %r" % text)
    if hi - lo + 1 > 1000:
        raise UsageError("scan range %r is too large (max 1000 points)" % text)
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ybe(args):
    from .parity import enumerate_sequences
    from .tensor import check_ybe

    if args.m < 0 or args.n < 0 or args.m + args.n < 1:
        raise UsageError("need --m, --n >= 0 with m + n >= 1")
    if args.m + args.n > MAX_INDICES:
        raise UsageError(
            "m + n is at most %d, got %d" % (MAX_INDICES, args.m + args.n)
        )
    reports = []
    all_pass = True
    for s in enumerate_sequences(args.m, args.n):
        seq_reports = check_ybe(s, spectral=not args.no_spectral)
        ok = all(r["pass"] for r in seq_reports)
        all_pass = all_pass and ok
        reports.extend(seq_reports)
        _note("ybe %s: %s" % (s, "pass" if ok else "FAIL"))
    _emit(
        {"m": args.m, "n": args.n, "pass": all_pass, "reports": reports},
        args.out,
    )
    return 0 if all_pass else 1


def cmd_normalize(args):
    from .rtt import (
        ElementParseError,
        StraighteningBudgetExceeded,
        parse_element,
    )

    s = _parse_sequence(args.s)
    try:
        element = parse_element(s, args.element)
    except ElementParseError as exc:
        raise UsageError("could not parse element: %s" % exc)
    except StraighteningBudgetExceeded as exc:
        _note("normalize: straightening budget exceeded")
        _emit({"error": str(exc), "input": args.element}, args.out)
        return 1
    data = element.to_json()
    data["input"] = args.element
    data["normal_form"] = str(element)
    _note("normalize %s: %d term(s)" % (s, len(data["terms"])))
    _emit(data, args.out)
    return 0


def cmd_braid_verify(args):
    from .reflections import verify_odd_reflection

    s = _parse_sequence(args.s)
    if args.i is not None:
        if not 1 <= args.i <= s.N - 1:
            raise UsageError(
                "--i must lie in [1, %d] for sequence %s" % (s.N - 1, s)
            )
        positions = [args.i]
    else:
        positions = list(range(1, s.N))
    if not positions:
        raise UsageError("sequence %s has no reflection positions" % s)
    reports = []
    all_pass = True
    for i in positions:
        rep = verify_odd_reflection(s, i, max_failures=args.max_failures)
        reports.append(rep)
        all_pass = all_pass and rep["pass"]
        _note(
            "reflection %s -> %s at position %d: %s"
            % (rep["source"], rep["target"], i, "pass" if rep["pass"] else "FAIL")
        )
    _emit({"sequence": str(s), "pass": all_pass, "reports": reports}, args.out)
    return 0 if all_pass else 1


def cmd_classify(args):
    from .weights import classify

    s = _parse_sequence(args.s)
    weight = _parse_weight_arg(s, args.weights)
    verdict = classify(s, weight)
    _note(
        "classify %s %s: %s"
        % (s, args.weights, "finite" if verdict["finite"] else "infinite")
    )
    _emit(verdict, args.out)
    if args.expect is not None:
        expected = args.expect == "finite"
        if verdict["finite"] != expected:
            _note("expected %s, got the opposite" % args.expect)
            return 1
    return 0


def _check_level_cap(cap):
    if cap is not None and cap < 1:
        raise UsageError("--level-cap must be >= 1, got %d" % cap)


def cmd_module(args):
    from .weights import (
        DID_NOT_STABILIZE,
        build_irreducible,
        classify,
        verify_module,
    )

    _check_level_cap(args.level_cap)
    s = _parse_sequence(args.s)
    weight = _parse_weight_arg(s, args.weights)
    verdict = classify(s, weight)
    if not verdict["finite"]:
        _note("module %s %s: weight is not finite-dimensional" % (s, args.weights))
        _emit({"classification": verdict, "module": None}, args.out)
        return 1
    rep = build_irreducible(s, weight, args.level_cap)
    if rep == DID_NOT_STABILIZE:
        _note("module %s %s: did not stabilize at level cap %d"
              % (s, args.weights, args.level_cap))
        _emit(
            {
                "classification": verdict,
                "module": None,
                "error": DID_NOT_STABILIZE,
                "level_cap": args.level_cap,
            },
            args.out,
        )
        return 1
    data = {"classification": verdict, "module": rep.to_json()}
    code = 0
    if args.verify:
        report = verify_module(rep)
        data["verification"] = report
        if not report["pass"]:
            code = 1
    _note(
        "module %s %s: dimension %d%s"
        % (
            s,
            args.weights,
            rep.dim,
            "" if not args.verify else
            (", verified" if code == 0 else ", VERIFICATION FAILED"),
        )
    )
    _emit(data, args.out)
    return code


def _build_eval(s, wtext, atext, level_cap=None):
    from .affine import evaluation_rep

    weight = _parse_weight_arg(s, wtext)
    a = _parse_scalar_arg(atext)
    if a.is_zero():
        raise UsageError("evaluation parameter must be nonzero")
    return evaluation_rep(s, weight, a, level_cap=level_cap)


def cmd_evalrep(args):
    from .affine import (
        NO_MAXIMAL_VECTOR,
        highest_weight_series,
        verify_affine_relations,
    )
    from .weights import WeightError, classify

    _check_level_cap(args.level_cap)
    s = _parse_sequence(args.s)
    try:
        rep = _build_eval(s, args.weights, args.a, level_cap=args.level_cap)
    except WeightError as exc:
        _note("evalrep %s %s: %s" % (s, args.weights, exc))
        _emit(
            {
                "classification": classify(
                    s, _parse_weight_arg(s, args.weights)
                ),
                "representation": None,
            },
            args.out,
        )
        return 1
    relations = verify_affine_relations(rep)
    hw = highest_weight_series(rep)
    data = {
        "representation": rep.to_json(),
        "relations": relations,
        "series": None if hw is NO_MAXIMAL_VECTOR else hw.to_json(),
    }
    _note(
        "evalrep %s %s a=%s: dimension %d, relations %s"
        % (s, args.weights, args.a, rep.dim,
           "pass" if relations["pass"] else "FAIL")
    )
    _emit(data, args.out)
    return 0 if relations["pass"] and hw is not NO_MAXIMAL_VECTOR else 1


def _minimal_vector(rep):
    """A lowest-weight vector: joint kernel of every mode with i > j."""
    from .affine import joint_kernel

    basis = joint_kernel(rep, raising=False)
    return basis[0] if len(basis) == 1 else None


def _certificate(s, hw):
    from .affine import check_T1, check_T2, check_T3

    if s.N == 2:
        if s.parity(1) != s.parity(2):
            return "T1", check_T1(hw)
        return "T2", check_T2(hw)
    return "T3", check_T3(s, hw)


def _load_factors(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read factors file: %s" % exc)
    except json.JSONDecodeError as exc:
        raise UsageError("factors file is not valid JSON: %s" % exc)
    if (
        not isinstance(spec, dict)
        or "sequence" not in spec
        or not isinstance(spec.get("factors"), list)
        or not spec["factors"]
    ):
        raise UsageError(
            'factors file must look like {"sequence": "01", "factors": '
            '[{"weights": "+q^1,+q^1", "a": "q^2"}, ...]}'
        )
    for entry in spec["factors"]:
        if not isinstance(entry, dict) or "weights" not in entry:
            raise UsageError("each factor needs a \"weights\" field")
    return spec


def _tensor_summary(rep):
    from .affine import cyclic_span, highest_weight_series

    hw = highest_weight_series(rep)
    span_max = cyclic_span(rep, rep.maximal_index)
    out = {
        "dim": rep.dim,
        "span_from_maximal": span_max,
        "span_from_minimal": None,
        # a proper cyclic span is a proper invariant subspace, so either
        # probe falling short settles the verdict; "true" means both the
        # maximal and a (unique) minimal vector are cyclic.
        "irreducible": False if span_max < rep.dim else None,
    }
    minimal = _minimal_vector(rep)
    if minimal is not None:
        span_min = cyclic_span(rep, minimal)
        out["span_from_minimal"] = span_min
        if span_min < rep.dim:
            out["irreducible"] = False
        elif span_max == rep.dim:
            out["irreducible"] = True
    return hw, out


def cmd_tensor(args):
    from .affine import (
        NO_MAXIMAL_VECTOR,
        Refusal,
        evaluation_rep,
        tensor,
        verify_affine_relations,
    )
    from .scalars import QScalar
    from .weights import WeightError

    spec = _load_factors(args.factors)
    s = _parse_sequence(spec["sequence"])
    scan_points = None
    if args.scan_a is not None:
        if len(spec["factors"]) < 2:
            raise UsageError("--scan-a needs at least two factors")
        scan_points = _parse_scan(args.scan_a)
    if len(spec["factors"]) > MAX_TENSOR_DIM:
        raise UsageError(
            "tensor takes at most %d factors, got %d"
            % (MAX_TENSOR_DIM, len(spec["factors"]))
        )
    modules = []
    factors = []
    dim = 1
    for entry in spec["factors"]:
        atext = str(entry.get("a", "1"))
        try:
            rep = _build_eval(s, str(entry["weights"]), atext)
        except WeightError as exc:
            _note("tensor: factor %s is not finite-dimensional" % entry["weights"])
            _emit(
                {
                    "sequence": str(s),
                    "error": str(exc),
                    "factor": {"weights": str(entry["weights"]), "a": atext},
                },
                args.out,
            )
            return 1
        modules.append(rep)
        factors.append({"weights": str(entry["weights"]), "a": atext, "dim": rep.dim})
        dim *= rep.dim
        if dim > MAX_TENSOR_DIM:
            raise UsageError(
                "the product of the factor dimensions is at most %d, got %d"
                % (MAX_TENSOR_DIM, dim)
            )
    if scan_points is not None and len(scan_points) * dim > MAX_SCAN_DIM:
        raise UsageError(
            "the scan points times the product dimension are at most %d, "
            "got %d x %d" % (MAX_SCAN_DIM, len(scan_points), dim)
        )
    big = modules[0]
    for nxt in modules[1:]:
        big = tensor(big, nxt)
    hw, summary = _tensor_summary(big)
    data = {
        "sequence": str(s),
        "factors": factors,
        "dim": big.dim,
        "denominator": big.denominator,
        "series": None if hw is NO_MAXIMAL_VECTOR else hw.to_json(),
        "certificate_kind": None,
        "certificate": None,
        "span_from_maximal": summary["span_from_maximal"],
        "span_from_minimal": summary["span_from_minimal"],
        "irreducible": summary["irreducible"],
        "scan": None,
    }
    code = 0
    if hw is NO_MAXIMAL_VECTOR:
        code = 1
        _note("tensor: no joint maximal vector")
    else:
        kind, cert = _certificate(s, hw)
        data["certificate_kind"] = kind
        data["certificate"] = cert.to_json()
        if isinstance(cert, Refusal):
            _note("tensor: %s certificate refused (%s)" % (kind, cert.reason))
        else:
            _note("tensor: %s certificate found" % kind)
    if args.verify:
        relations = verify_affine_relations(big)
        data["relations"] = relations
        if not relations["pass"]:
            code = 1
        _note(
            "tensor relations: %s"
            % ("pass" if relations["pass"] else "FAIL")
        )
    if scan_points is not None:
        w0 = _parse_weight_arg(s, str(spec["factors"][0]["weights"]))
        rows = []
        for k in scan_points:
            moved = evaluation_rep(s, w0, QScalar.q_power(k))
            scan_mods = [moved] + modules[1:]
            T = scan_mods[0]
            for nxt in scan_mods[1:]:
                T = tensor(T, nxt)
            _, row = _tensor_summary(T)
            row["exponent"] = k
            row["a"] = "q^%d" % k
            rows.append(row)
        data["scan"] = rows
        full = sum(1 for r in rows if r["irreducible"])
        _note(
            "tensor scan: %d of %d grid points irreducible"
            % (full, len(rows))
        )
    _emit(data, args.out)
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qglrtt",
        description=(
            "Exact computer algebra for RTT-presented quantum general "
            "linear superalgebras: Yang-Baxter checks, straightening, "
            "odd-reflection verification, weight classification, module "
            "construction, and affine evaluation/tensor certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add_out(p):
        p.add_argument(
            "--out", metavar="FILE",
            help="write the JSON report here instead of stdout",
        )

    p = sub.add_parser(
        "ybe",
        help="Yang-Baxter reports for every parity sequence of type (m|n)",
    )
    p.add_argument("--m", type=int, required=True, help="number of 0 parities")
    p.add_argument(
        "--n", type=int, required=True,
        help="number of 1 parities (m + n at most %d)" % MAX_INDICES,
    )
    p.add_argument(
        "--no-spectral", action="store_true",
        help="skip the spectral-parameter identity",
    )
    add_out(p)
    p.set_defaults(func=cmd_ybe)

    p = sub.add_parser(
        "normalize", help="straighten an algebra element to normal form"
    )
    p.add_argument("--s", required=True, help="parity sequence, e.g. 001")
    p.add_argument(
        "--element", required=True,
        help="expression such as \"(q - q^-1) t[2,1] tb[1,2]^2 - tb[1,1]^-1\"",
    )
    add_out(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser(
        "braid-verify",
        help="verify the reflection isomorphism at one or all positions",
    )
    p.add_argument("--s", required=True, help="parity sequence")
    p.add_argument("--i", type=int, help="position (default: all)")
    p.add_argument(
        "--max-failures", type=int, default=10,
        help="failure records to keep per report (default 10)",
    )
    add_out(p)
    p.set_defaults(func=cmd_braid_verify)

    p = sub.add_parser(
        "classify", help="finite-dimensionality verdict with diagram"
    )
    p.add_argument("--s", required=True, help="parity sequence")
    p.add_argument("--weights", required=True, help=WEIGHT_HELP)
    p.add_argument(
        "--expect", choices=("finite", "infinite"),
        help="exit 1 unless the verdict matches",
    )
    add_out(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "module", help="build the irreducible highest-weight module"
    )
    p.add_argument("--s", required=True, help="parity sequence")
    p.add_argument("--weights", required=True, help=WEIGHT_HELP)
    p.add_argument(
        "--level-cap", type=int, default=12,
        help="depth cap for the quotient construction (default 12)",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="also verify every relation instance on the module",
    )
    add_out(p)
    p.set_defaults(func=cmd_module)

    p = sub.add_parser(
        "evalrep",
        help="evaluation representation dump plus exact relation check",
    )
    p.add_argument("--s", required=True, help="parity sequence")
    p.add_argument("--weights", required=True, help=WEIGHT_HELP)
    p.add_argument(
        "--a", default="1",
        help="evaluation parameter, e.g. \"q^2\" (default 1)",
    )
    p.add_argument(
        "--level-cap", type=int, default=None,
        help="depth cap for the underlying module (default 24)",
    )
    add_out(p)
    p.set_defaults(func=cmd_evalrep)

    p = sub.add_parser(
        "tensor",
        help=(
            "tensor evaluation factors; report series, certificates, and "
            "cyclic spans"
        ),
    )
    p.add_argument(
        "--factors", required=True, metavar="FILE",
        help=(
            'JSON file {"sequence": "01", "factors": [{"weights": '
            '"+q^1,+q^1", "a": "q^2"}, ...]}'
        ),
    )
    p.add_argument(
        "--scan-a", metavar="LO..HI",
        help=(
            "rebuild the first factor at a = q^k for each integer k in the "
            "range and tabulate irreducibility"
        ),
    )
    p.add_argument(
        "--verify", action="store_true",
        help="also check every affine relation on the tensor (slow)",
    )
    add_out(p)
    p.set_defaults(func=cmd_tensor)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse on Python 3.11 parses the value of "--opt=--" as [], and no
    # option here takes a list
    vars(args).update({k: "--" for k, v in vars(args).items() if v == []})
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        _note("error: %s" % exc)
        return 2
    except Exception as exc:
        # an AffineError can only come from a command that loaded affine
        affine = sys.modules.get("qglrtt.affine")
        if affine is None or not isinstance(exc, affine.AffineError):
            raise
        _note("error: %s" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
