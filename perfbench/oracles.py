"""Checks of qglrtt outputs that do not rely on qglrtt.

Everything here is computed from the benchmark's own transcription of the
mathematics: the odd-reflection rule for highest weights, the finiteness
criterion at the standard sequence, the typical dimension formula
2^{mn} prod (lambda+rho, alpha)/(rho, alpha), the evaluation-series closed
forms and the normal-form shape of the PBW basis.  Each ``check_*``
function returns a list of error strings; an empty list means the output
passed.  ``controls.py`` feeds every check a deliberately wrong output and
requires it to fire.
"""

import json
import re
from fractions import Fraction
from math import lcm

# ---------------------------------------------------------------------------
# highest weights: own reflection rule, finiteness, typicality, dimension


def reflect(bits, exps, i):
    """Highest weight across the adjacent odd reflection at position i.

    When the two entries do not sum to zero they swap with a +1/-1 shift,
    otherwise they swap plainly; the parity letters swap too.
    """
    bits, exps = list(bits), list(exps)
    if bits[i - 1] == bits[i]:
        raise ValueError("position %d is not an odd reflection" % i)
    a, b = exps[i - 1], exps[i]
    exps[i - 1], exps[i] = (b + 1, a - 1) if a + b != 0 else (b, a)
    bits[i - 1], bits[i] = bits[i], bits[i - 1]
    return "".join(bits), exps


def to_standard(bits, exps):
    """Carry a weight to the sequence 0^m 1^n, rightmost '10' first."""
    exps = [Fraction(e) for e in exps]
    while "10" in bits:
        bits, exps = reflect(bits, exps, bits.rindex("10") + 1)
    return bits, exps


def even_gaps(bits, exps):
    """Adjacent equal-parity exponent gaps at the standard sequence."""
    std, lam = to_standard(bits, exps)
    return [lam[k] - lam[k + 1] for k in range(len(std) - 1)
            if std[k] == std[k + 1]]


def is_finite(bits, exps):
    """Finite-dimensional iff every gap is a nonnegative integer."""
    return all(g.denominator == 1 and g >= 0 for g in even_gaps(bits, exps))


def is_typical(bits, exps):
    """(lambda+rho, eps_i - delta_j) != 0 for every odd root, at 0^m 1^n.

    With (eps_i, eps_i) = 1, (delta_j, delta_j) = -1 and the standard rho,
    the pairing is lambda_i + lambda_{m+j} + m - i - j + 1.
    """
    std, lam = to_standard(bits, exps)
    m = std.count("0")
    return all(
        lam[i - 1] + lam[m + j - 1] + m - i - j + 1 != 0
        for i in range(1, m + 1)
        for j in range(1, len(std) - m + 1)
    )


def typical_dimension(bits, exps):
    """2^{mn} times the Weyl dimensions of the gl(m) and gl(n) blocks."""
    std, lam = to_standard(bits, exps)
    m, n = std.count("0"), std.count("1")
    dim = Fraction(2 ** (m * n))
    for lo, hi in ((0, m), (m, m + n)):
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return dim


def q_sign(bits, i):
    """d_i: +1 for an even index, -1 for an odd one (1-based i)."""
    return 1 if bits[i - 1] == "0" else -1


# ---------------------------------------------------------------------------
# reading monomials +-q^e


_MONO = re.compile(
    r"^(-?)(1|q(?:\^(-?\d+(?:/\d+)?))?)(?:/(q(?:\^(\d+(?:/\d+)?))?))?$"
)


def parse_monomial(text):
    """(sign, exponent) of a printed scalar +-q^e, or None if it is not one."""
    m = _MONO.match(text.strip())
    if not m:
        return None
    sign = -1 if m.group(1) else 1
    e = Fraction(0)
    if m.group(2) != "1":
        e = Fraction(m.group(3) or 1)
    if m.group(4):
        e -= Fraction(m.group(5) or 1)
    return sign, e


def scalar_monomial(x):
    """(sign, exponent) of a QScalar that is +-q^e, read from its fields."""
    num, den = x.num, x.den
    if len(num.coeffs) != 1 or den.coeffs != (1,):
        return None
    c = num.coeffs[0]
    if c not in (1, -1):
        return None
    return c, num.offset - den.offset


# ---------------------------------------------------------------------------
# normal forms


def pbw_order(N):
    """Generators in PBW order: lowering t[i,i-1] .. t[i,1] for i = 2..N,
    the diagonal tb[i,i], then raising tb[1,i] .. tb[i-1,i] for i = 2..N."""
    gens = [("t", i, j) for i in range(2, N + 1) for j in range(i - 1, 0, -1)]
    gens += [("tb", i, i) for i in range(1, N + 1)]
    gens += [("tb", k, i) for i in range(2, N + 1) for k in range(1, i)]
    return gens


def _exponent_errors(bits, gen, e):
    kind, i, j = gen
    if i == j:
        return [] if e != 0 else ["%s[%d,%d]^0 in a normal word" % gen]
    odd = bits[i - 1] != bits[j - 1]
    if e < 0 or (odd and e > 1):
        return ["%s[%d,%d]^%d is not a PBW exponent (%s generator)"
                % (kind, i, j, e, "odd" if odd else "even")]
    return []


def check_normal_word(bits, letters):
    """A word [(kind, i, j, e)] must be an ordered PBW monomial."""
    order = {g: n for n, g in enumerate(pbw_order(len(bits)))}
    errors = []
    last = -1
    for kind, i, j, e in letters:
        gen = (kind, i, j)
        if gen not in order or order[gen] <= last:
            errors.append("word %s is not in PBW order" % (letters,))
            break
        last = order[gen]
        errors += _exponent_errors(bits, gen, e)
    return errors


def check_exponent_vector(bits, vec):
    """A CLI exponent vector, indexed by the PBW order, must be a monomial."""
    gens = pbw_order(len(bits))
    if len(vec) != len(gens):
        return ["exponent vector of length %d, expected %d"
                % (len(vec), len(gens))]
    errors = []
    for gen, e in zip(gens, vec):
        if e:
            errors += _exponent_errors(bits, gen, e)
    return errors


# ---------------------------------------------------------------------------
# result checks


def check_flags(doc, path="$"):
    """Every "pass" flag anywhere in a JSON document must be true."""
    errors = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            if k == "pass" and v is not True:
                errors.append("%s.pass is %r" % (path, v))
            else:
                errors += check_flags(v, "%s.%s" % (path, k))
    elif isinstance(doc, list):
        for n, v in enumerate(doc):
            errors += check_flags(v, "%s[%d]" % (path, n))
    return errors


def check_weight_facts(bits, exps, finite, typical, kac_dimension):
    """Classifier verdict against the own criterion and dimension formula."""
    errors = []
    own = is_finite(bits, exps)
    if finite != own:
        errors.append("finite is %r, the criterion says %r" % (finite, own))
    elif own:
        own_typical = is_typical(bits, exps)
        if typical != own_typical:
            errors.append("typical is %r, expected %r" % (typical, own_typical))
        want = int(typical_dimension(bits, exps)) if own_typical else None
        if kac_dimension != want:
            errors.append("kac_dimension %r, expected %r"
                          % (kac_dimension, want))
    return errors


def check_eigenvalues(bits, exps, eigen):
    """tb[i,i] acts on the maximal vector by q^(d_i e_i), t[i,i] inversely.

    ``eigen`` maps "tb[i,i]" / "t[i,i]" to (sign, exponent) read from the
    module, or to None when the entry is not a signed power of q.
    """
    errors = []
    for i in range(1, len(bits) + 1):
        e = q_sign(bits, i) * Fraction(exps[i - 1])
        for name, want in (("tb[%d,%d]" % (i, i), (1, e)),
                           ("t[%d,%d]" % (i, i), (1, -e))):
            got = eigen.get(name)
            if got is None or (got[0], Fraction(got[1])) != want:
                errors.append("%s on the maximal vector is %r, expected %r"
                              % (name, got, want))
    return errors


def check_scan(job, out):
    """One scan job: verdict, stabilisation, dimension, eigenvalues."""
    bits = job["s"]
    exps = [Fraction(e) for e in job["exps"]]
    errors = check_weight_facts(bits, exps, out["finite"], out["typical"],
                                out["kac_dimension"])
    finite = is_finite(bits, exps)
    if len(bits) <= 3 and out["stabilised"] != finite:
        errors.append("stabilised is %r for a weight that is %s"
                      % (out["stabilised"], "finite" if finite else "infinite"))
    if out["stabilised"] and not finite:
        errors.append("an infinite weight stabilised")
    if out["stabilised"] and finite:
        if is_typical(bits, exps) and out["dim"] != typical_dimension(bits, exps):
            errors.append("dimension %r, typical dimension %s"
                          % (out["dim"], typical_dimension(bits, exps)))
        D = lcm(*(e.denominator for e in exps))
        eigen = {k: None if v is None else (v[0], Fraction(v[1], D))
                 for k, v in out["eigen"].items()}
        errors += check_eigenvalues(bits, exps, eigen)
    return errors


def check_eval_series(bits, exps, a_exp, series):
    """lambda_i = mu_i^-1 - mu_i a^-1 u^-1, lambda_bar_i = mu_i - mu_i^-1 a u,
    with mu_i = q^(d_i e_i) and a = q^a_exp."""
    if series is None:
        return ["no highest-weight series"]
    errors = []
    for name, lam, sgn in (("lambda", series.get("lambda"), -1),
                           ("lambda_bar", series.get("lambda_bar"), 1)):
        if not isinstance(lam, list) or len(lam) != len(bits):
            errors.append("%s has the wrong shape" % name)
            continue
        for i, comp in enumerate(lam, 1):
            mu = q_sign(bits, i) * Fraction(exps[i - 1])
            want = {"0": (1, sgn * mu), "1": (-1, -sgn * mu + sgn * a_exp)}
            got = {r: parse_monomial(c) for r, c in comp.items()}
            if got != want:
                errors.append("%s[%d] is %r, expected %r"
                              % (name, i, comp, want))
    return errors


def reducible_points(bits, factors):
    """a-exponents where the two-factor rank-(1|1) tensor is reducible.

    With mu_{f,i} the eigenvalue exponents of factor f, the top corner
    degenerates at a1/a2 = mu_{1,2}^2 / mu_{2,1}^2 and the bottom corner at
    a1/a2 = mu_{1,1}^2 / mu_{2,2}^2.
    """
    mu = [[q_sign(bits, i) * e for i, e in enumerate(f, 1)] for f in factors]
    top = 2 * mu[0][1] - 2 * mu[1][0]
    bottom = 2 * mu[0][0] - 2 * mu[1][1]
    return top, bottom


def check_tensor_scan(bits, factors, scan, doc):
    """The README scan: reducible exactly where the mu ratios say."""
    top, bottom = reducible_points(bits, factors)
    rows = doc.get("scan") or []
    lo, hi = scan
    errors = []
    if [r.get("exponent") for r in rows] != list(range(lo, hi + 1)):
        return ["scan rows do not cover %d..%d" % (lo, hi)]
    for r in rows:
        k = r["exponent"]
        want = k not in (top, bottom)
        if r["irreducible"] is not want:
            errors.append("irreducible at k=%d is %r" % (k, r["irreducible"]))
        if (r["span_from_maximal"] < r["dim"]) != (k == top):
            errors.append("span from the maximal vector at k=%d" % k)
        minimal = r["span_from_minimal"]
        if k != top and (minimal is None or (minimal < r["dim"]) != (k == bottom)):
            errors.append("span from the minimal vector at k=%d" % k)
    return errors


def check_module_doc(bits, exps, doc):
    """``module --verify``: finite, verified, dimension and eigenvalues."""
    module = doc.get("module")
    if not module:
        return ["no module built"]
    cls = doc["classification"]
    errors = check_weight_facts(bits, exps, cls["finite"], cls["typical"],
                                cls["kac_dimension"])
    if "verification" not in doc:
        errors.append("no verification report")
    if is_typical(bits, exps) and module["dimension"] != typical_dimension(bits, exps):
        errors.append("dimension %r, typical dimension %s"
                      % (module["dimension"], typical_dimension(bits, exps)))
    z = module["maximal_index"]
    eigen = {}
    for name, cells in module["matrices"].items():
        for r, c, val in cells:
            if r == z and c == z:
                eigen[name] = parse_monomial(val)
    return errors + check_eigenvalues(bits, exps, eigen)


# ---------------------------------------------------------------------------
# CLI outputs


def parse_weight_text(text):
    """'+q^1,+q^1/2' -> [1, 1/2]; the benchmark writes only '+' signs."""
    return [Fraction(x.split("^")[1]) for x in text.split(",")]


def check_cli_job(job, rc, stdout):
    """Check one CLI job from its exit code and its JSON on stdout."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON (exit code %d)" % rc]
    errors = [] if rc == 0 else ["exit code %d" % rc]
    errors += check_flags(doc)
    kind = job["kind"]
    if kind in ("evalrep", "tensor_verify") and "relations" not in doc:
        errors.append("no relation report")
    if kind == "evalrep":
        errors += check_eval_series(job["s"], parse_weight_text(job["weights"]),
                                    job["a_exp"], doc.get("series"))
    elif kind == "tensor_scan":
        spec = job["factors"]
        errors += check_tensor_scan(
            spec["sequence"],
            [parse_weight_text(f["weights"]) for f in spec["factors"]],
            job["scan"], doc)
    elif kind == "module":
        errors += check_module_doc(job["s"], parse_weight_text(job["weights"]),
                                   doc)
    elif kind == "braid":
        if len(doc.get("reports", [])) != len(job["s"]) - 1:
            errors.append("expected one report per position")
    elif kind == "ybe":
        if not doc.get("reports"):
            errors.append("no Yang-Baxter report")
    elif kind == "classify":
        errors += check_weight_facts(
            job["s"], parse_weight_text(job["weights"]), doc.get("finite"),
            doc.get("typical"), doc.get("kac_dimension"))
    elif kind == "normalize":
        for term in doc.get("terms", []):
            errors += check_exponent_vector(job["s"], term["exponents"])
        if "expect" in job and doc.get("normal_form") != job["expect"]:
            errors.append("normal form %r, expected %r"
                          % (doc.get("normal_form"), job["expect"]))
    return errors
