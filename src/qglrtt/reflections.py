"""Isomorphisms between the superalgebras attached to adjacent parity sequences.

Swapping two adjacent entries of the parity sequence produces an isomorphic
superalgebra presented over the swapped sequence.  This module builds the
isomorphism and its inverse as explicit generator assignments, applies them
to arbitrary elements, and verifies that every defining relation of the
source presentation maps to zero in the target.
"""

from __future__ import annotations

from .parity import ParitySeq, sort_to_standard
from .rtt import AlgebraElement, check_relation_families, varsigma
from .scalars import QScalar, QONE


class GeneratorMap:
    """A superalgebra homomorphism given by its values on the generators.

    `t_images[(a, b)]` and `tb_images[(a, b)]` are elements of the target
    algebra; diagonal images must be invertible monomials (a scalar times a
    single diagonal generator) so that negative powers make sense.
    """

    def __init__(self, source, target, t_images, tb_images):
        self.source = ParitySeq(source)
        self.target = ParitySeq(target)
        self.t_images = dict(t_images)
        self.tb_images = dict(tb_images)

    def image(self, kind, a, b):
        table = self.t_images if kind == "t" else self.tb_images
        img = table.get((a, b))
        if img is None:
            raise KeyError("no image recorded for %s[%d,%d]" % (kind, a, b))
        return img

    def _letter_power(self, gen, e):
        kind, a, b = gen
        if kind == "t" and a == b:
            # normalised away at source, but accept defensively
            return self._letter_power(("tb", a, a), -e)
        img = self.image(kind, a, b)
        if e >= 0:
            out = AlgebraElement.one(self.target)
            for _ in range(e):
                out = out * img
            return out
        # negative powers only on the diagonal, whose image is a monomial
        if len(img.terms) != 1:
            raise ValueError("cannot invert a non-monomial image")
        ((key, coeff),) = img.terms.items()
        if len(key) != 1 or key[0][0][1] != key[0][0][2]:
            raise ValueError("cannot invert a non-diagonal image")
        (g, ge), = key
        word = [(g, ge * e)]
        return AlgebraElement.from_word(self.target, word, coeff ** e)

    def apply(self, x):
        if ParitySeq(x.s) != self.source:
            raise ValueError("element does not live over the source sequence")
        total = AlgebraElement.zero(self.target)
        for key, coeff in x.terms.items():
            prod = AlgebraElement.one(self.target).scale(coeff)
            for gen, e in key:
                prod = prod * self._letter_power(gen, e)
            total = total + prod
        return total

    def compose(self, other):
        """The map x -> self(other(x)); other.target must equal self.source."""
        if ParitySeq(other.target) != self.source:
            raise ValueError("maps are not composable")
        t_images = {k: self.apply(v) for k, v in other.t_images.items()}
        tb_images = {k: self.apply(v) for k, v in other.tb_images.items()}
        return GeneratorMap(other.source, self.target, t_images, tb_images)

    @staticmethod
    def identity(s):
        s = ParitySeq(s)
        t_images, tb_images = {}, {}
        for a in range(1, s.N + 1):
            for b in range(1, s.N + 1):
                if a >= b:
                    t_images[(a, b)] = AlgebraElement.generator(s, "t", a, b)
                if a <= b:
                    tb_images[(a, b)] = AlgebraElement.generator(s, "tb", a, b)
        return GeneratorMap(s, s, t_images, tb_images)


def _word(s, letters, coeff=QONE):
    return AlgebraElement.from_word(s, letters, coeff)


def _sgn(n):
    return QScalar.from_int(n)


def _far_branch_sign(s, i):
    """Relative sign carried by the branch lines with an index >= i+2.

    The images of generators with one index in {i, i+1} split into two
    families: those whose other index lies below i and those whose other
    index lies above i+1.  The two families carry a relative sign fixed by
    the defining relations; it depends only on the parities at i-1, i, i+2
    and is invisible while either family is empty (which is always the case
    for sequences of length at most three).  The whole correction is placed
    on the far family (other index >= i+2); the near family is left as is.
    Only called when that family is nonempty, so parity(i+2) exists.
    """
    pm1 = s.parity(i - 1) if i >= 2 else 0
    return -((-1) ** (pm1 + s.parity(i) + s.parity(i + 2)))


def odd_reflection(s, i):
    """The isomorphism from the algebra over s to the one over s.swap(i).

    Requires the parities at positions i, i+1 to differ; for equal parities
    the sequences coincide and the identity map is returned.
    """
    s = ParitySeq(s)
    if not (1 <= i <= s.N - 1):
        raise ValueError("reflection position out of range")
    if s.parity(i) == s.parity(i + 1):
        return GeneratorMap.identity(s)
    sp = s.swap(i)
    N = s.N
    dpi = sp.d(i)
    dpi1 = sp.d(i + 1)
    rho = _far_branch_sign(s, i) if i + 2 <= N else 1

    def vsp(a, b, c, d):
        return varsigma(sp, a, b, c, d)

    G = lambda kind, a, b, e=1: AlgebraElement.generator(sp, kind, a, b, e)

    t_images, tb_images = {}, {}

    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if a >= b:
                if a == b:
                    if a == i:
                        img = G("t", i + 1, i + 1).scale(dpi)
                    elif a == i + 1:
                        img = G("t", i, i).scale(dpi1)
                    else:
                        img = G("t", a, a)
                elif (a, b) == (i + 1, i):
                    img = _word(
                        sp,
                        [(("tb", i, i + 1), 1), (("tb", i, i), -2)],
                        (QScalar.q_power(-dpi) * (dpi * dpi1)),
                    )
                elif a == i and b <= i - 1:
                    k = b
                    img = G("t", i + 1, k).scale(
                        (QScalar.q_power(-dpi) * (vsp(i - 1, i, i, i + 1))
                        )
                    ) - _word(
                        sp,
                        [
                            (("tb", i, i), 1),
                            (("t", i + 1, i), 1),
                            (("t", i, k), 1),
                        ],
                        _sgn(vsp(k, i - 1, i, i + 1)),
                    )
                elif a == i + 1 and b <= i - 1:
                    k = b
                    img = G("t", i, k).scale(
                        -dpi1 * vsp(i - 1, i, i, i + 1)
                    )
                elif b == i and a >= i + 2:
                    l = a
                    img = (
                        G("t", l, i + 1).scale(
                            (QScalar.q_power(dpi) * (vsp(i, i + 1, i, i + 2)))
                        )
                        - _word(
                            sp,
                            [
                                (("tb", i, i), -1),
                                (("t", l, i), 1),
                                (("tb", i, i + 1), 1),
                            ],
                            _sgn(vsp(i, i + 1, i + 2, l)),
                        )
                    ).scale(rho)
                elif b == i + 1 and a >= i + 2:
                    l = a
                    img = G("t", l, i).scale(
                        -rho * dpi1 * vsp(i, i + 1, i + 1, i + 2)
                    )
                else:
                    img = G("t", a, b)
                t_images[(a, b)] = img
            if a <= b:
                if a == b:
                    if a == i:
                        img = G("tb", i + 1, i + 1).scale(dpi)
                    elif a == i + 1:
                        img = G("tb", i, i).scale(dpi1)
                    else:
                        img = G("tb", a, a)
                elif (a, b) == (i, i + 1):
                    img = _word(
                        sp,
                        [(("tb", i, i), 2), (("t", i + 1, i), 1)],
                        QScalar.q_power(dpi),
                    )
                elif b == i and a <= i - 1:
                    k = a
                    img = G("tb", k, i + 1).scale(
                        (QScalar.q_power(dpi) * (dpi * vsp(i - 1, i, i, i + 1))
                        )
                    ) - _word(
                        sp,
                        [
                            (("tb", k, i), 1),
                            (("tb", i, i + 1), 1),
                            (("tb", i, i), -1),
                        ],
                        _sgn(dpi * vsp(k, i - 1, i, i + 1)),
                    )
                elif b == i + 1 and a <= i - 1:
                    k = a
                    img = G("tb", k, i).scale(-vsp(i - 1, i, i, i + 1))
                elif a == i and b >= i + 2:
                    l = b
                    img = (
                        G("tb", i + 1, l).scale(
                            (QScalar.q_power(-dpi) * (dpi * vsp(i, i + 1, i, i + 2))
                            )
                        )
                        - _word(
                            sp,
                            [
                                (("t", i + 1, i), 1),
                                (("tb", i, l), 1),
                                (("tb", i, i), 1),
                            ],
                            _sgn(dpi * vsp(i, i + 1, i + 2, l)),
                        )
                    ).scale(rho)
                elif a == i + 1 and b >= i + 2:
                    l = b
                    img = G("tb", i, l).scale(-rho * vsp(i, i + 1, i + 1, i + 2))
                else:
                    img = G("tb", a, b)
                tb_images[(a, b)] = img
    return GeneratorMap(s, sp, t_images, tb_images)


def odd_reflection_inverse(s, i):
    """The inverse isomorphism, from the algebra over s.swap(i) back to s."""
    s = ParitySeq(s)
    if not (1 <= i <= s.N - 1):
        raise ValueError("reflection position out of range")
    if s.parity(i) == s.parity(i + 1):
        return GeneratorMap.identity(s)
    sp = s.swap(i)
    N = s.N
    di = s.d(i)
    di1 = s.d(i + 1)
    rho = _far_branch_sign(s, i) if i + 2 <= N else 1

    def vs(a, b, c, d):
        return varsigma(s, a, b, c, d)

    G = lambda kind, a, b, e=1: AlgebraElement.generator(s, kind, a, b, e)

    t_images, tb_images = {}, {}

    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if a >= b:
                if a == b:
                    if a == i:
                        img = G("t", i + 1, i + 1).scale(di)
                    elif a == i + 1:
                        img = G("t", i, i).scale(di1)
                    else:
                        img = G("t", a, a)
                elif (a, b) == (i + 1, i):
                    img = _word(
                        s,
                        [(("tb", i + 1, i + 1), -2), (("tb", i, i + 1), 1)],
                        QScalar.q_power(-di1),
                    )
                elif a == i and b <= i - 1:
                    k = b
                    img = G("t", i + 1, k).scale(
                        -di * vs(i - 1, i + 1, i, i + 1)
                    )
                elif a == i + 1 and b <= i - 1:
                    k = b
                    img = G("t", i, k).scale(
                        (QScalar.q_power(di1) * (vs(i - 1, i + 1, i, i + 1))
                        )
                    ) - _word(
                        s,
                        [
                            (("tb", i + 1, i + 1), -1),
                            (("tb", i, i + 1), 1),
                            (("t", i + 1, k), 1),
                        ],
                        _sgn(vs(k, i - 1, i, i + 1)),
                    )
                elif b == i and a >= i + 2:
                    l = a
                    img = G("t", l, i + 1).scale(
                        -rho * di * vs(i, i + 1, i, i + 2)
                    )
                elif b == i + 1 and a >= i + 2:
                    l = a
                    img = (
                        G("t", l, i).scale(
                            (QScalar.q_power(-di1) * (vs(i, i + 1, i + 1, i + 2))
                            )
                        )
                        - _word(
                            s,
                            [
                                (("tb", i + 1, i + 1), 1),
                                (("t", l, i + 1), 1),
                                (("t", i + 1, i), 1),
                            ],
                            _sgn(vs(i, i + 1, i + 2, l)),
                        )
                    ).scale(rho)
                else:
                    img = G("t", a, b)
                t_images[(a, b)] = img
            if a <= b:
                if a == b:
                    if a == i:
                        img = G("tb", i + 1, i + 1).scale(di)
                    elif a == i + 1:
                        img = G("tb", i, i).scale(di1)
                    else:
                        img = G("tb", a, a)
                elif (a, b) == (i, i + 1):
                    img = _word(
                        s,
                        [(("t", i + 1, i), 1), (("tb", i + 1, i + 1), 2)],
                        (QScalar.q_power(di1) * (di * di1)),
                    )
                elif b == i and a <= i - 1:
                    k = a
                    img = G("tb", k, i + 1).scale(
                        -vs(i - 1, i + 1, i, i + 1)
                    )
                elif b == i + 1 and a <= i - 1:
                    k = a
                    img = G("tb", k, i).scale(
                        (QScalar.q_power(-di1) * (di1 * vs(i - 1, i + 1, i, i + 1))
                        )
                    ) - _word(
                        s,
                        [
                            (("tb", k, i + 1), 1),
                            (("t", i + 1, i), 1),
                            (("tb", i + 1, i + 1), 1),
                        ],
                        _sgn(di1 * vs(k, i - 1, i, i + 1)),
                    )
                elif a == i and b >= i + 2:
                    l = b
                    img = G("tb", i + 1, l).scale(-rho * vs(i, i + 1, i, i + 2))
                elif a == i + 1 and b >= i + 2:
                    l = b
                    # lead exponent is +d_{i+1}: forced by composing with the
                    # forward map, which this must invert exactly
                    img = (
                        G("tb", i, l).scale(
                            (QScalar.q_power(di1) * (di1 * vs(i, i + 1, i + 1, i + 2))
                            )
                        )
                        - _word(
                            s,
                            [
                                (("tb", i, i + 1), 1),
                                (("tb", i + 1, l), 1),
                                (("tb", i + 1, i + 1), -1),
                            ],
                            _sgn(di1 * vs(i, i + 1, i + 2, l)),
                        )
                    ).scale(rho)
                else:
                    img = G("tb", a, b)
                tb_images[(a, b)] = img
    return GeneratorMap(sp, s, t_images, tb_images)


def verify_odd_reflection(s, i, max_failures=10):
    """Check the isomorphism on every relation instance and both roundtrips."""
    s = ParitySeq(s)
    fwd = odd_reflection(s, i)
    inv = odd_reflection_inverse(s, i)
    sp = fwd.target

    failures = []
    for a in range(1, s.N + 1):
        res = fwd.image("t", a, a) * fwd.image("tb", a, a) - AlgebraElement.one(sp)
        if not res.is_zero() and len(failures) < max_failures:
            failures.append(
                {"relation": "diag-inverse", "indices": [a], "residual": str(res)}
            )
    checked = s.N + check_relation_families(s, fwd.image, failures, max_failures)

    roundtrip_ok = True
    for name, there, back in (
        ("inverse-after-forward", fwd, inv),
        ("forward-after-inverse", inv, fwd),
    ):
        for kind, images in (("t", there.t_images), ("tb", there.tb_images)):
            for (a, b), img in images.items():
                res = back.apply(img) - AlgebraElement.generator(
                    there.source, kind, a, b
                )
                if not res.is_zero():
                    roundtrip_ok = False
                    if len(failures) < max_failures:
                        failures.append(
                            {
                                "relation": name,
                                "indices": [kind, a, b],
                                "residual": str(res),
                            }
                        )

    return {
        "source": str(s),
        "target": str(sp),
        "position": i,
        "relations_checked": checked,
        "relation_failures": failures,
        "roundtrip_ok": roundtrip_ok,
        "pass": not failures and roundtrip_ok,
    }


def sequence_braid_report(N):
    """Check the braid and involution laws of the swaps at sequence level."""
    from itertools import product

    ok_braid = True
    ok_invol = True
    ok_comm = True
    for bits in product("01", repeat=N):
        s = ParitySeq("".join(bits))
        for i in range(1, N):
            if ParitySeq(s.swap(i)).swap(i) != s:
                ok_invol = False
            for j in range(1, N):
                if abs(i - j) >= 2:
                    if s.swap(i).swap(j) != s.swap(j).swap(i):
                        ok_comm = False
            if i + 1 <= N - 1:
                lhs = s.swap(i).swap(i + 1).swap(i)
                rhs = s.swap(i + 1).swap(i).swap(i + 1)
                if lhs != rhs:
                    ok_braid = False
    return {
        "length": N,
        "involution": ok_invol,
        "commutation": ok_comm,
        "braid": ok_braid,
        "pass": ok_braid and ok_invol and ok_comm,
    }


def reflection_path_to_standard(s):
    """The swap positions carrying s to the standard sequence, with stages."""
    s = ParitySeq(s)
    word = sort_to_standard(s)
    stages = [s]
    cur = s
    for i in word:
        cur = cur.swap(i)
        stages.append(cur)
    return word, stages
