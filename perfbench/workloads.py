"""Seeded job lists for the three workloads.

Nothing here imports qglrtt: a job is plain data (parity sequences, weight
texts, letter lists, command lines) made from the seed alone, and qglrtt
only ever receives these generated inputs.  The same seed gives the same
jobs.  A job whose ``known_fault`` names a fault is expected to fail its
check on every seed; every other job must pass.
"""

import random
from fractions import Fraction
from itertools import product

import oracles

# the half-integer cube {-4, -7/2, ..., 4} of the acceptance row-4 scan
HALF = [Fraction(k, 2) for k in range(-8, 9)]

RANK11 = ("01", "10")
RANK22 = ("0011", "0101", "0110")

# Rank-3 weights are drawn in strata (standard-sequence gap, typical); an
# infinite weight is the stratum (None, None).  Gap and typicality fix the
# level cap and the dimension, and the sequence sets most of the cost: builds
# on 010 and 101 cost about 2.5 times less than on the other four.  Weights
# of gap 2 and more are drawn with a half-integer entry, as most of the
# cube's are, since building over q^(1/2) costs about 1.5 times more.  The
# counts put the median job inside the gap-2 builds on 001, 100, 011 and
# 110, and the tail inside their gap-4 builds, so the job mix costs about
# the same on every seed.  78 of the 86 rank-3 weights are finite.
OUTER_STRATA = ((2, True),) * 10 + ((4, True),) * 4 + (
    (0, True), (1, False), (None, None))
INNER_STRATA = ((2, True),) * 3 + ((4, True),) * 2 + (
    (0, True), (1, False), (None, None), (None, None))
RANK3 = ("001", "010", "100", "011", "101", "110")
STRATA = {"001": OUTER_STRATA, "100": OUTER_STRATA, "011": OUTER_STRATA,
          "110": OUTER_STRATA, "010": INNER_STRATA, "101": INNER_STRATA}
RANK11_PER_SEQ = 4
RANK22_PER_SEQ = 2
RANK22_CAP = 4
INFINITE_CAP = 4

ODD_SQUARE = "odd generator powers >= 2 are never reduced to zero"


def weight_text(exps):
    return ",".join("+q^%s" % e for e in exps)


def level_cap(bits, exps):
    """A level cap at which a finite module surely stabilises.

    Every root has height at most N - 1, the even gaps at the standard
    sequence bound how often an even root occurs between the highest and
    the lowest weight, and each odd root occurs at most once; the
    construction needs its deepest level plus a window of 2 below the cap.
    """
    N = len(bits)
    m = bits.count("0")
    depth = (N - 1) * (sum(oracles.even_gaps(bits, exps)) + m * (N - m))
    return int(depth) + max(2, N - 1)


def _draw(rng, bits, accept):
    while True:
        exps = [rng.choice(HALF) for _ in bits]
        if accept(exps):
            return exps


def _scan_job(bits, exps, cap):
    return {
        "kind": "scan",
        "s": bits,
        "weights": weight_text(exps),
        "exps": [str(e) for e in exps],
        "cap": cap,
    }


def scan_jobs(seed):
    """Classify and build a seeded sample of highest weights (100 jobs)."""
    rng = random.Random("scan:%d" % seed)
    jobs = []
    for bits in RANK11:
        for _ in range(RANK11_PER_SEQ):
            exps = _draw(rng, bits, lambda e: True)
            jobs.append(_scan_job(bits, exps, level_cap(bits, exps)))
    for bits in RANK3:
        for gap, typical in STRATA[bits]:
            if gap is None:
                exps = _draw(rng, bits,
                             lambda e: not oracles.is_finite(bits, e))
                jobs.append(_scan_job(bits, exps, INFINITE_CAP))
                continue
            exps = _draw(
                rng, bits,
                lambda e: oracles.is_finite(bits, e)
                and sum(oracles.even_gaps(bits, e)) == gap
                and oracles.is_typical(bits, e) == typical
                and (gap < 2 or any(x.denominator == 2 for x in e)),
            )
            jobs.append(_scan_job(bits, exps, level_cap(bits, exps)))
    for bits in RANK22:
        for _ in range(RANK22_PER_SEQ):
            exps = _draw(rng, bits, lambda e: True)
            jobs.append(_scan_job(bits, exps, RANK22_CAP))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# straighten


def _letter(kind, i, j, e=1):
    return [kind, i, j, e]


def _random_letters(rng, N, degree):
    letters = []
    for _ in range(degree):
        kind = rng.choice(["t", "tb"])
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        if (kind == "t" and i < j) or (kind == "tb" and i > j):
            i, j = j, i
        letters.append(_letter(kind, i, j, rng.choice([-1, 1]) if i == j else 1))
    return letters


def _power_word(spec):
    """'tb[1,2]^3 t[2,1]' -> letter list."""
    out = []
    for tok in spec.split():
        head, _, e = tok.partition("^")
        kind, _, idx = head.partition("[")
        i, j = idx.rstrip("]").split(",")
        out.append(_letter(kind, int(i), int(j), int(e or 1)))
    return out


POWER_WORDS = [
    ("0011", "tb[1,2]^2 tb[3,4]^2 t[2,1]^2 t[4,3]^2"),
    ("0011", "tb[1,2]^3 tb[3,4]^2 t[2,1]^3 t[4,3]^2"),
    ("0011", "tb[1,2]^2 tb[3,4]^3 t[2,1]^2 t[4,3]^3"),
    ("0011", "tb[1,2]^3 tb[3,4]^3 t[2,1]^3 t[4,3]^3"),
    ("000", "tb[1,2]^2 tb[2,3]^2 t[2,1]^2 t[3,2]^2"),
    ("000", "tb[1,3]^3 t[3,1]^3"),
    ("000", "tb[1,3]^4 t[3,1]^4"),
    ("0001", "tb[1,2]^3 tb[3,4] t[2,1]^3 t[4,3]"),
    ("0001", "tb[2,3]^2 tb[1,2]^2 t[3,2]^2 t[2,1]^2"),
]

# words with an odd letter raised to a power >= 2; each is zero in the algebra
ODD_SQUARE_WORDS = [
    ("01", "t[2,1]^2"),
    ("01", "t[2,1] tb[1,2]^2"),
    ("001", "tb[2,3]^2 tb[1,1]"),
    ("0011", "t[3,2]^3"),
]

# a triple job straightens triples on one sequence of length 3 and one of
# length 4, so every triple job costs about the same; the 96 jobs visit every
# sequence of length 3 twelve times and of length 4 six times, in a fixed
# order, and the seed draws the letters.  Each triple xyz is drawn with
# exactly TRIPLE_INVERSIONS letter pairs out of PBW order: that count sets
# much of the rewriting work, and fixing it keeps the seed from moving the
# median job by a fifth.
TRIPLE_JOBS = 96
TRIPLES_PER_SEQUENCE = 6
TRIPLE_INVERSIONS = 7

# the expensive checks run on fixed sequences, so the slowest jobs are the
# same on every seed
RELATION_SEQUENCES = ("0011", "0101", "1001")
DJ_SEQUENCES = ("0001", "0110", "1010", "1100")
REFLECTIONS = (("0011", 2), ("0101", 1), ("0110", 3), ("1010", 2),
               ("1101", 3))


def all_sequences(N):
    return ["".join(p) for p in product("01", repeat=N)]


def _inversions(order, letters):
    """Letter pairs of a word that are out of PBW order (t[i,i] is tb[i,i]^-1)."""
    idx = [order[("tb" if i == j else k, i, j)] for k, i, j, _ in letters]
    return sum(a > b for n, a in enumerate(idx) for b in idx[n + 1:])


def _random_triple(rng, N, n, order):
    while True:
        factors = [{"letters": _random_letters(rng, N, 1 + (n + f) % 3),
                    "coeff": rng.choice([1, -1, 2, 3])} for f in range(3)]
        word = [x for f in factors for x in f["letters"]]
        if _inversions(order, word) == TRIPLE_INVERSIONS:
            return factors


def straighten_jobs(seed):
    """PBW normal forms: random triples, power words, relation checks.

    A triple job straightens six seeded triples x, y, z on each of its two
    sequences, each factor one to three letters long, as (xy)z and x(yz).
    """
    rng = random.Random("straighten:%d" % seed)
    jobs = []
    orders = {N: {g: k for k, g in enumerate(oracles.pbw_order(N))}
              for N in (3, 4)}
    for k in range(TRIPLE_JOBS):
        triples = []
        for N in (3, 4):
            seqs = all_sequences(N)
            bits = seqs[k % len(seqs)]
            for n in range(TRIPLES_PER_SEQUENCE):
                triples.append({"s": bits,
                                "factors": _random_triple(rng, N, n,
                                                          orders[N])})
        jobs.append({"kind": "triple", "triples": triples})
    for bits, spec in POWER_WORDS:
        jobs.append({"kind": "word", "s": bits, "letters": _power_word(spec)})
    for bits, spec in ODD_SQUARE_WORDS:
        jobs.append({"kind": "word", "s": bits, "letters": _power_word(spec),
                     "known_fault": ODD_SQUARE})
    for bits in RELATION_SEQUENCES:
        jobs.append({"kind": "relations", "s": bits})
    for bits in DJ_SEQUENCES:
        jobs.append({"kind": "dj", "s": bits})
    for bits, i in REFLECTIONS:
        jobs.append({"kind": "reflection", "s": bits, "i": i})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli


# the acceptance criterion-10 set: two weights on every sequence of
# length 2 and 3, at a = q^1.  These are the slowest CLI jobs, so they are
# the same on every seed and the seed moves only the quick commands, the
# module weight and the braid and ybe choices.
EVAL_A_EXPONENT = 1
EVAL_WEIGHTS = {
    "00": ["+q^2,+q^0", "+q^1,+q^1"],
    "01": ["+q^1,+q^1", "+q^2,+q^1"],
    "10": ["+q^1,+q^0", "+q^1,+q^1"],
    "11": ["+q^2,+q^0", "+q^1,+q^0"],
    "000": ["+q^2,+q^1,+q^0", "+q^1,+q^1,+q^0"],
    "001": ["+q^2,+q^1,+q^1", "+q^1,+q^1,+q^0"],
    "010": ["+q^1,+q^1,+q^0", "+q^1,+q^0,+q^0"],
    "100": ["+q^1,+q^1,+q^0", "+q^0,+q^1,+q^1"],
    "011": ["+q^1,+q^1,+q^0", "+q^1,+q^2,+q^0"],
    "101": ["+q^1,+q^1,+q^0", "+q^2,+q^0,+q^1"],
    "110": ["+q^2,+q^1,+q^0", "+q^1,+q^0,+q^0"],
    "111": ["+q^2,+q^1,+q^0", "+q^1,+q^1,+q^0"],
}

# the README tensor example; the scan moves the first factor to a = q^k
README_FACTORS = {
    "sequence": "01",
    "factors": [{"weights": "+q^1,+q^1", "a": "1"},
                {"weights": "+q^2,+q^1", "a": "1"}],
}
README_SCAN = (-7, 5)
README_ELEMENT = ("01", "(q - q^-1) t[2,1] tb[1,2]^2 - tb[1,1]^-1")
# t[2,1] and tb[1,2] are odd on 01, so tb[1,2]^2 = 0 and only the second
# term survives
README_NORMAL_FORM = "(-1) tb[1,1]^-1"

# quick commands, mostly a cold start each: the median CLI job is one
CLASSIFY_JOBS = 22
NORMALIZE_JOBS = 21


def _letters_text(letters):
    return " ".join(
        "%s[%d,%d]%s" % (k, i, j, "" if e == 1 else "^%d" % e)
        for k, i, j, e in letters
    )


def cli_jobs(seed, factors_path):
    """The README commands, each run as a fresh ``python -m qglrtt.cli``."""
    rng = random.Random("cli:%d" % seed)
    jobs = []
    for bits, texts in EVAL_WEIGHTS.items():
        for text in texts:
            k = EVAL_A_EXPONENT
            jobs.append({
                "kind": "evalrep", "s": bits, "weights": text, "a_exp": k,
                "argv": ["evalrep", "--s", bits, "--weights", text,
                         "--a", "q^%d" % k],
            })
    lo, hi = README_SCAN
    jobs.append({
        "kind": "tensor_scan", "factors": README_FACTORS, "scan": [lo, hi],
        "argv": ["tensor", "--factors", factors_path,
                 "--scan-a=%d..%d" % (lo, hi)],
    })
    jobs.append({
        "kind": "tensor_verify",
        "argv": ["tensor", "--factors", factors_path, "--verify"],
    })
    bits = "001"
    exps = _draw(rng, bits, lambda e: oracles.is_finite(bits, e)
                 and sum(oracles.even_gaps(bits, e)) == 1
                 and oracles.is_typical(bits, e)
                 and any(x.denominator == 2 for x in e))
    text = weight_text(exps)
    jobs.append({
        "kind": "module", "s": bits, "weights": text,
        "argv": ["module", "--s", bits, "--weights", text, "--verify"],
    })
    for bits in rng.sample(all_sequences(3)[1:-1], 2):
        jobs.append({"kind": "braid", "s": bits,
                     "argv": ["braid-verify", "--s", bits]})
    for m, n in ((1, 1), rng.choice([(2, 1), (1, 2)])):
        jobs.append({"kind": "ybe",
                     "argv": ["ybe", "--m", str(m), "--n", str(n)]})
    for _ in range(CLASSIFY_JOBS):
        bits = rng.choice(RANK3)
        text = weight_text([rng.choice(HALF) for _ in bits])
        jobs.append({"kind": "classify", "s": bits, "weights": text,
                     "argv": ["classify", "--s", bits, "--weights", text]})
    bits, text = README_ELEMENT
    jobs.append({
        "kind": "normalize", "s": bits, "expect": README_NORMAL_FORM,
        "known_fault": ODD_SQUARE,
        "argv": ["normalize", "--s", bits, "--element", text],
    })
    for _ in range(NORMALIZE_JOBS):
        bits = rng.choice(all_sequences(3))
        text = " - ".join(
            _letters_text(_random_letters(rng, 3, rng.randrange(2, 5)))
            for _ in range(2)
        )
        jobs.append({"kind": "normalize", "s": bits,
                     "argv": ["normalize", "--s", bits, "--element", text]})
    rng.shuffle(jobs)
    return jobs
