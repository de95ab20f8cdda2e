"""Negative controls: every check must fire on a deliberately wrong output.

Each control builds a correct output from the benchmark's own mathematics,
requires the check to accept it, then perturbs it (a dimension off by one,
a flipped flag, a wrong exponent, ...) and requires the check to reject
it.  ``run_all`` returns the controls that failed; the runner marks a run
incorrect if any did.  The worker adds live controls on real qglrtt
outputs for the associativity and fold checks.

    python3 perfbench/controls.py      # prints each control and its verdict
"""

import copy
import json
import sys
from fractions import Fraction

import oracles
import workloads


def _mono(sign, e):
    """Print +-q^e the way qglrtt does: q^3/2, 1/q^2, -q, -1."""
    e = Fraction(e)
    if e == 0:
        body = "1"
    elif e > 0:
        body = "q" if e == 1 else "q^%s" % e
    else:
        body = "1/q" if e == -1 else "1/q^%s" % -e
    return ("-" if sign < 0 else "") + body


def _scan_case():
    job = {"s": "001", "exps": ["1", "0", "1"]}
    exps = [Fraction(1), Fraction(0), Fraction(1)]
    eigen = {}
    for i in range(1, 4):
        e = oracles.q_sign("001", i) * exps[i - 1]
        eigen["tb[%d,%d]" % (i, i)] = (1, e)
        eigen["t[%d,%d]" % (i, i)] = (1, -e)
    out = {"finite": True, "typical": True, "kac_dimension": 8,
           "stabilised": True, "dim": 8, "eigen": eigen}
    return job, out


def _series(bits, exps, k):
    lam, lam_bar = [], []
    for i, e in enumerate(exps, 1):
        mu = oracles.q_sign(bits, i) * e
        lam.append({"0": _mono(1, -mu), "1": _mono(-1, mu - k)})
        lam_bar.append({"0": _mono(1, mu), "1": _mono(-1, -mu + k)})
    return {"lambda": lam, "lambda_bar": lam_bar}


def _scan_rows(top, bottom, lo=-7, hi=5):
    rows = []
    for k in range(lo, hi + 1):
        rows.append({"exponent": k, "dim": 4,
                     "span_from_maximal": 2 if k == top else 4,
                     "span_from_minimal": None if k == top
                     else (2 if k == bottom else 4),
                     "irreducible": k not in (top, bottom)})
    return {"scan": rows}


def _module_doc():
    bits, exps = "010", [Fraction(1), Fraction(1, 2), Fraction(0)]
    cells = {}
    for i in range(1, 4):
        e = oracles.q_sign(bits, i) * exps[i - 1]
        cells["tb[%d,%d]" % (i, i)] = [[0, 0, _mono(1, e)]]
        cells["t[%d,%d]" % (i, i)] = [[0, 0, _mono(1, -e)]]
    return bits, exps, {
        "classification": {"finite": True, "typical": True,
                           "kac_dimension": 4},
        "module": {"dimension": 4, "maximal_index": 0, "matrices": cells},
        "verification": {"pass": True, "checked": 154},
    }


def cases():
    """(name, check, good output, wrong output) for every check."""
    out = []
    job, good = _scan_case()
    for name, change in (("dimension off by one", {"dim": 9}),
                         ("finite module not stabilised",
                          {"stabilised": False, "dim": None}),
                         ("classifier says infinite", {"finite": False}),
                         ("typical flag flipped", {"typical": False}),
                         ("kac dimension off by one", {"kac_dimension": 7})):
        out.append(("scan: " + name, lambda o, j=job: oracles.check_scan(j, o),
                    good, dict(good, **change)))
    wrong = copy.deepcopy(good)
    wrong["eigen"]["tb[2,2]"] = (1, Fraction(1))
    out.append(("scan: maximal eigenvalue", lambda o: oracles.check_scan(job, o),
                good, wrong))
    inf_job = {"s": "001", "exps": ["0", "1", "0"]}
    inf = {"finite": False, "typical": None, "kac_dimension": None,
           "stabilised": False, "dim": None, "eigen": {}}
    out.append(("scan: infinite weight stabilised",
                lambda o: oracles.check_scan(inf_job, o), inf,
                dict(inf, stabilised=True, dim=3)))

    doc = {"pass": True, "reports": [{"pass": True}, {"pass": True}]}
    flipped = copy.deepcopy(doc)
    flipped["reports"][1]["pass"] = False
    out.append(("flags: nested pass flipped", oracles.check_flags, doc,
                flipped))

    word = [["t", 2, 1, 1], ["tb", 1, 1, -1], ["tb", 1, 2, 1]]
    out.append(("normal word: odd square", lambda w: oracles.check_normal_word(
        "01", w), word, [["t", 2, 1, 1], ["tb", 1, 2, 2]]))
    out.append(("normal word: out of order", lambda w: oracles.check_normal_word(
        "01", w), word, [["tb", 1, 2, 1], ["t", 2, 1, 1]]))
    out.append(("exponent vector: odd square",
                lambda v: oracles.check_exponent_vector("01", v),
                [0, -1, 0, 0], [1, 0, 0, 2]))

    bits, exps, k = "01", [Fraction(1, 2), Fraction(1)], 2
    series = _series(bits, exps, k)
    swapped = {"lambda": series["lambda_bar"], "lambda_bar": series["lambda"]}
    for name, wrong in (("evaluation point off by one",
                         _series(bits, exps, k + 1)),
                        ("families swapped", swapped)):
        out.append(("series: " + name, lambda s: oracles.check_eval_series(
            bits, exps, k, s), series, wrong))

    factors = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(1)]]
    top, bottom = oracles.reducible_points("01", factors)
    good_scan = _scan_rows(top, bottom)
    flipped_scan = copy.deepcopy(good_scan)
    flipped_scan["scan"][7]["irreducible"] = False
    out.append(("tensor scan: verdict flipped", lambda d: oracles.check_tensor_scan(
        "01", factors, (-7, 5), d), good_scan, flipped_scan))
    out.append(("tensor scan: reducible point moved",
                lambda d: oracles.check_tensor_scan("01", factors, (-7, 5), d),
                good_scan, _scan_rows(top + 1, bottom)))

    bits3, exps3, mdoc = _module_doc()
    for name, mutate in (
            ("dimension off by one",
             lambda d: d["module"].__setitem__("dimension", 5)),
            ("maximal eigenvalue",
             lambda d: d["module"]["matrices"].__setitem__(
                 "tb[1,1]", [[0, 0, "q^2"]])),
            ("verification flag", lambda d: d["verification"].__setitem__(
                "pass", False))):
        wrong = copy.deepcopy(mdoc)
        mutate(wrong)
        out.append(("module: " + name, lambda d: oracles.check_flags(d)
                    + oracles.check_module_doc(bits3, exps3, d), mdoc, wrong))

    cjob = {"kind": "classify", "s": "001", "weights": "+q^1,+q^0,+q^1"}
    cdoc = {"finite": True, "typical": True, "kac_dimension": 8}
    for name, change in (("finite flipped", {"finite": False}),
                         ("kac dimension off by one", {"kac_dimension": 9})):
        out.append(("cli classify: " + name,
                    lambda d: oracles.check_cli_job(cjob, 0, json.dumps(d)),
                    cdoc, dict(cdoc, **change)))
    out.append(("cli: nonzero exit code",
                lambda rc: oracles.check_cli_job(cjob, rc, json.dumps(cdoc)),
                0, 1))
    njob = {"kind": "normalize", "s": "01",
            "expect": workloads.README_NORMAL_FORM}
    ndoc = {"normal_form": "(-1) tb[1,1]^-1",
            "terms": [{"exponents": [0, -1, 0, 0], "coeff": "-1"}]}
    today = {"normal_form": "((q^2 - 1)/q) t[2,1]*tb[1,2]^2 + (-1) tb[1,1]^-1",
             "terms": [{"exponents": [1, 0, 0, 2], "coeff": "(q^2 - 1)/q"},
                       {"exponents": [0, -1, 0, 0], "coeff": "-1"}]}
    out.append(("cli normalize: odd square kept",
                lambda d: oracles.check_cli_job(njob, 0, json.dumps(d)),
                ndoc, today))
    return out


def run_all(verbose=False):
    failed = []
    for name, check, good, wrong in cases():
        accepts, rejects = not check(good), bool(check(wrong))
        if verbose:
            print("%-45s accepts good: %-5s rejects wrong: %s"
                  % (name, accepts, rejects))
        if not (accepts and rejects):
            failed.append(name)
    return failed


if __name__ == "__main__":
    bad = run_all(verbose=True)
    print("%d control(s) failed" % len(bad))
    sys.exit(1 if bad else 0)
