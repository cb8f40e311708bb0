"""Seeded sweep over targets and networks whose values mix ints, Fractions,
QuadraticRationals and mpfs: every transform computes in the field of its
inputs, so nothing raises, exact inputs stay exact, and the classification
matches the same target spelled in Fractions."""

import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from biquadrlc.biquad import CanonicalBiquad, PoleSquaredForm, to_rational_fn, transform_params
from biquadrlc.network import TRANSFORMS, Leaf, apply_transform, impedance, leaves, parallel, series
from biquadrlc.ratpoly import QuadraticRational, is_exact_scalar
from biquadrlc.realize import classify

# (k, z, eta = p/z): every class, and catalog hits with and without a transform
_BASES = [
    (F(1), F(1), F(3)),
    (F(2), F(3), F(1, 3)),
    (F(1), F(2), F(2)),
    (F(3, 2), F(1), F(1, 2)),
    (F(1), F(1), F(5)),
    (F(2), F(1), F(1, 5)),
    (F(2), F(6), F(31, 100)),
    (F(1), F(4), F(11, 2)),
    (F(5), F(1), F(6)),
    (F(1), F(3), F(1, 7)),
]


def _spell(x, how):
    """The rational x as an int (when integral), Fraction, QuadraticRational or mpf."""
    if how == "int" and x.denominator == 1:
        return int(x)
    if how == "quadratic":
        return QuadraticRational(x)
    if how == "mpf":
        return mpf(x.numerator) / x.denominator
    return x


def _cases():
    rng = random.Random(10)
    hows = ("int", "fraction", "quadratic", "mpf")
    cases = [
        ((F(2), F(6), F(93, 50)), ("int", "int", "fraction")),
        ((F(2), F(1), F(7, 3)), ("mpf", "fraction", "fraction")),
    ]
    for _ in range(40):
        k, z, eta = rng.choice(_BASES)
        cases.append(((k, z, eta * z), tuple(rng.choice(hows) for _ in range(3))))
    return cases


def _all_exact(values):
    return all(is_exact_scalar(v) for v in values)


@pytest.mark.parametrize("base, hows", _cases())
def test_mixed_types_stay_in_their_field(base, hows):
    with mp.workprec(256):
        spelled = [_spell(x, how) for x, how in zip(base, hows)]
        exact = _all_exact(spelled)
        b, ref = CanonicalBiquad(*spelled), CanonicalBiquad(*base)

        report, expected = classify(b), classify(ref)
        assert (report.klass, report.config, report.transform) == (
            expected.klass, expected.config, expected.transform)
        if exact:
            assert report.to_json() == expected.to_json()

        for t in TRANSFORMS:
            bt = transform_params(b, t)
            assert _all_exact((bt.k, bt.z, bt.p)) == exact
            if exact:
                assert bt == transform_params(ref, t)
            assert to_rational_fn(bt).is_exact() == exact

        k, z, p = spelled
        form = PoleSquaredForm(k, z, p, z)
        assert to_rational_fn(form).is_exact() == exact
        if exact:
            assert to_rational_fn(form) == to_rational_fn(PoleSquaredForm(*base, base[1]))

        net = series(Leaf("R", k), parallel(Leaf("L", z), Leaf("C", p)))
        ref_net = series(Leaf("R", base[0]), parallel(Leaf("L", base[1]), Leaf("C", base[2])))
        for t in TRANSFORMS:
            image = apply_transform(net, t)
            # each value is reciprocated in its own field
            assert sorted(map(is_exact_scalar, (lf.value for lf in leaves(image)))) == sorted(
                map(is_exact_scalar, spelled))
            if exact:
                assert impedance(image) == impedance(apply_transform(ref_net, t))


def test_mpf_boundary_hits_are_ones_synthesis_accepts():
    # at 64 bits the 1e-20 band is below an ulp, so mpf targets at eta = 3 and
    # 1/3 can miss the four-element band and sit on the fig3a boundary; the
    # closure decides on the parameters synthesize uses, so none raises
    for z in (F(1, 3), F(1, 6), F(3, 5), F(5, 2)):
        for eta in (F(3), F(1, 3)):
            with mp.workprec(64):
                b = CanonicalBiquad(mpf(1), _spell(z, "mpf"), _spell(eta * z, "mpf"))
                classify(b, precision_bits=64, tol=F(1, 2**48))
