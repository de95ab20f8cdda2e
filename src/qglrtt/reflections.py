"""Isomorphisms between the superalgebras attached to adjacent parity sequences.

Swapping two adjacent entries of the parity sequence produces an isomorphic
superalgebra presented over the swapped sequence.  This module writes the
isomorphism out as an explicit generator assignment, derives its inverse by
back-substitution (:meth:`GeneratorMap.inverse`), applies both to arbitrary
elements, and verifies that every defining relation of the source
presentation maps to zero in the target.  The forward map is written out
because it is not unique: reflecting twice at one position is a nontrivial
automorphism.  Its inverse is unique, so nothing about it is restated.
"""

from __future__ import annotations

from functools import partial

from .parity import ParitySeq, sort_to_standard
from .rtt import (
    AlgebraElement,
    check_relation_families,
    pbw_generator_order,
    varsigma,
)
from .scalars import QScalar


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
            return img ** e
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

    def inverse(self):
        """The inverse map, solved for by triangular back-substitution.

        A source generator x is a pivot once its image f(x) has a term
        c L y R in which y is the only target generator of f(x) without an
        image yet, at exponent one, and L and R are diagonal letters; then

            g(y) = c^-1 g(L)^-1 (x - g(f(x) - c L y R)) g(R)^-1.

        Passes over the unused source generators repeat until every target
        generator is solved; a pass that solves nothing raises ValueError.
        If f is an isomorphism, induction over the solving order shows that
        each g(y) is the image under the inverse of f, the only one there
        is.  g(f(x)) = x holds on every pivot by construction, so only a
        relation check of g tests it independently.
        """
        g = GeneratorMap(self.target, self.source, {}, {})

        def solved(gen):
            return gen[1:] in (g.t_images if gen[0] == "t" else g.tb_images)

        def inverse_word(letters):
            word = [(gen, -e) for gen, e in reversed(letters)]
            return g.apply(AlgebraElement.from_word(self.target, word))

        todo = pbw_generator_order(self.source)
        while todo:
            waiting = []
            for x in todo:
                fx = self.image(*x)
                unsolved = [
                    (key, n) for key in fx.terms
                    for n, (gen, _) in enumerate(key) if not solved(gen)
                ]
                if len(unsolved) != 1:
                    waiting.append(x)
                    continue
                ((key, n),) = unsolved
                (kind, a, b), e = key[n]
                left, right = key[:n], key[n + 1:]
                if e != 1 or any(c != d for (_, c, d), _ in left + right):
                    waiting.append(x)
                    continue
                rest = {k: v for k, v in fx.terms.items() if k != key}
                lhs = AlgebraElement.generator(self.source, *x) - g.apply(
                    AlgebraElement(self.target, rest)
                )
                img = inverse_word(left) * lhs * inverse_word(right)
                table = g.t_images if kind == "t" else g.tb_images
                table[(a, b)] = img.scale(fx.terms[key].inverse())
            if len(waiting) == len(todo):
                raise ValueError(
                    "generator map is not invertible by back-substitution"
                )
            todo = waiting
        for a in range(1, self.target.N + 1):
            g.t_images[(a, a)] = g._letter_power(("tb", a, a), -1)
        return GeneratorMap(
            g.source,
            g.target,
            sorted(g.t_images.items()),
            sorted(g.tb_images.items()),
        )

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
    dpi, dpi1 = sp.d(i), sp.d(i + 1)
    q, vsp = QScalar.q_power, partial(varsigma, sp)
    gen = partial(AlgebraElement.generator, sp)
    low, high = gen("t", i + 1, i), gen("tb", i, i + 1)

    f = GeneratorMap.identity(sp)
    t, tb = f.t_images, f.tb_images
    for kind, table in (("t", t), ("tb", tb)):
        table[i, i] = gen(kind, i + 1, i + 1).scale(dpi)
        table[i + 1, i + 1] = gen(kind, i, i).scale(dpi1)
    t[i + 1, i] = (high * gen("tb", i, i, -2)).scale(q(-dpi) * (dpi * dpi1))
    tb[i, i + 1] = (gen("tb", i, i, 2) * low).scale(q(dpi))
    for k in range(1, i):
        v = vsp(i - 1, i, i, i + 1)
        c = vsp(k, i - 1, i, i + 1)
        t[i, k] = gen("t", i + 1, k).scale(q(-dpi) * v) - (
            gen("tb", i, i) * low * gen("t", i, k)
        ).scale(c)
        t[i + 1, k] = gen("t", i, k).scale(-dpi1 * v)
        tb[k, i] = gen("tb", k, i + 1).scale(q(dpi) * (dpi * v)) - (
            gen("tb", k, i) * high * gen("tb", i, i, -1)
        ).scale(dpi * c)
        tb[k, i + 1] = gen("tb", k, i).scale(-v)
    for l in range(i + 2, s.N + 1):
        rho = _far_branch_sign(s, i)
        v = vsp(i, i + 1, i, i + 2)
        v1 = vsp(i, i + 1, i + 1, i + 2)
        c = vsp(i, i + 1, i + 2, l)
        t[l, i] = gen("t", l, i + 1).scale(q(dpi) * (rho * v)) - (
            gen("tb", i, i, -1) * gen("t", l, i) * high
        ).scale(rho * c)
        t[l, i + 1] = gen("t", l, i).scale(-rho * dpi1 * v1)
        tb[i, l] = gen("tb", i + 1, l).scale(q(-dpi) * (rho * dpi * v)) - (
            low * gen("tb", i, l) * gen("tb", i, i)
        ).scale(rho * dpi * c)
        tb[i + 1, l] = gen("tb", i, l).scale(-rho * v1)
    return GeneratorMap(s, sp, t, tb)


def odd_reflection_inverse(s, i):
    """The inverse isomorphism, from the algebra over s.swap(i) back to s."""
    return odd_reflection(s, i).inverse()


def verify_odd_reflection(s, i, max_failures=10):
    """Check the isomorphism on every relation instance and both roundtrips.

    The inverse is derived from the forward map (:meth:`GeneratorMap.inverse`),
    so both roundtrips hold by construction: they test the derivation, not
    the map.  The independent checks are the relation check of the forward
    map done here and the relation check of the inverse in the test suite.
    """
    s = ParitySeq(s)
    fwd = odd_reflection(s, i)
    inv = fwd.inverse()
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
