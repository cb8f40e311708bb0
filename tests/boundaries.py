"""The boundaries of the classification in eta = p/z, for the sweeps near
them: for each, eta (an mpf at the working precision), the class and
configuration on the boundary (None where no equality condition holds
there), and the classes on either side.  The five-reactive loci also appear
as 1/eta, which the transform closure maps back onto them."""

import mpmath

from biquadrlc.realize import n4a_root_interval, n5a_root_interval

FOUR, FIVE, SEVEN = "FourElement", "FiveElement", "SevenElementCatalog"
NOT_PR, UNKNOWN = "NotPositiveReal", "UnknownWithinScope"


def _root(interval):
    mid = sum(interval) / 2
    return mpmath.mpf(mid.numerator) / mid.denominator


BOUNDARIES = {
    "3": (lambda: mpmath.mpf(3), (FOUR, None), {FOUR, FIVE, SEVEN}),
    "1/3": (lambda: mpmath.mpf(1) / 3, (FOUR, None), {FOUR, FIVE, SEVEN}),
    "3+2sqrt2": (lambda: 3 + 2 * mpmath.sqrt(2), None, {NOT_PR, UNKNOWN}),
    "3-2sqrt2": (lambda: 3 - 2 * mpmath.sqrt(2), None, {NOT_PR, UNKNOWN}),
    "2+sqrt2": (lambda: 2 + mpmath.sqrt(2), (FIVE, None), {FIVE, SEVEN}),
    "1/(2+sqrt2)": (lambda: 1 / (2 + mpmath.sqrt(2)), (FIVE, None), {FIVE, SEVEN}),
    "n4a": (lambda: _root(n4a_root_interval()), (SEVEN, "n4a"), {SEVEN, UNKNOWN}),
    "n5a": (lambda: _root(n5a_root_interval()), (SEVEN, "n5a"), {SEVEN, UNKNOWN}),
    "1/n4a": (lambda: 1 / _root(n4a_root_interval()), (SEVEN, "n4a"), {SEVEN, UNKNOWN}),
    "1/n5a": (lambda: 1 / _root(n5a_root_interval()), (SEVEN, "n5a"), {SEVEN, UNKNOWN}),
}
