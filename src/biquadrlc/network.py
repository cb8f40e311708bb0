"""Series-parallel two-terminal networks.

A network is a tree: R/L/C leaves under ``Series``/``Parallel`` composition,
kept in a flattened canonical form (no Series child of a Series, children
sorted by a fixed key) so structural equality and deduplication are
deterministic.

The module provides the symbolic impedance (series adds impedances, parallel
adds admittances), the three network transforms in one table,
``TRANSFORMS``, of what each inverts: the frequency (``inv``, s -> 1/s:
L(x) <-> C(1/x)), the impedance (``dual``, Z -> 1/Z: the graph dual, i.e.
Series <-> Parallel, with R(x) -> R(1/x) and L(x) <-> C(x)) or both
(``gdu``: the graph dual with every value reciprocated and kinds kept);
exhaustive topology/labeling enumeration with the structural filters used by
the realizability arguments, and the catalog of named configurations used by
the seven-element syntheses.  The filters come in dual pairs: no all-L or
all-C cut set and no all-L or all-C path between the terminals, no
all-reactive arm of a top-level series connection and no all-reactive
branch of a top-level parallel connection; a network that fails one puts a
pole or a zero of Z(s) on the jw axis (s = 0 and s = inf included), so each
rule is sound only for targets without one there.  Two more rules hold
for every target: ``mergeable`` drops a network with two like siblings,
which merge into one element, and ``twin`` drops ``A | (A + B)``, which
realizes what ``A + (A | B)`` does.  ``ends-order=rising|flat|falling``
keeps a network whose Z(0) and Z(inf), resistor networks, are not ordered
otherwise for every positive value (``ends_order``), which is sound for a
target with finite nonzero ends in that order.  Enumeration and the
cut-set and path rules all follow the series/parallel recursion by which
Riordan & Shannon count these networks, so each canonical network is built
once and no rule needs a search.  The catalog writes each configuration
once, as a nested shape from which its slots, valued network and template
are built (the tests check each shape against its closed-form impedance,
transcribed independently from the paper).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .ratpoly import (
    Poly,
    RationalFn,
    _Record,
    _setfield,
    field_of,
    scalar_from_str,
    scalar_to_str,
)

__all__ = [
    "Leaf",
    "Series",
    "Parallel",
    "SPNet",
    "series",
    "parallel",
    "canonical",
    "canonical_key",
    "leaves",
    "element_count",
    "reactive_count",
    "resistor_count",
    "impedance",
    "impedance_coeffs",
    "TRANSFORMS",
    "transform_inverts",
    "apply_transform",
    "enumerate_topologies",
    "enumerate_labeled",
    "violates_cutset_rule",
    "violates_path_rule",
    "has_pure_reactive_series_arm",
    "has_pure_reactive_parallel_branch",
    "has_mergeable_siblings",
    "has_twin",
    "ends_order",
    "parse_filters",
    "config_ids",
    "config_slots",
    "build_config",
    "config_template",
    "to_netlist_json",
    "from_netlist_json",
    "to_spice",
]

KINDS = ("R", "L", "C")
REACTIVE = ("L", "C")


class Leaf(_Record):
    """An element: ``kind`` is "R", "L", "C", or None for an unlabeled slot;
    ``value`` is a positive scalar, or None for a template slot."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: Optional[str], value=None):
        _setfield(self, "kind", kind)
        _setfield(self, "value", value)


class Series(_Record):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        _setfield(self, "children", children)


class Parallel(_Record):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        _setfield(self, "children", children)


SPNet = Union[Leaf, Series, Parallel]


# ---------------------------------------------------------------------------
# canonical form


def canonical_key(net: SPNet) -> tuple:
    """Total order key: (node kind, leaf kind, serialized subtree)."""
    if isinstance(net, Leaf):
        kind_ix = KINDS.index(net.kind) if net.kind in KINDS else -1
        return (0, kind_ix, "" if net.value is None else scalar_to_str(net.value))
    tag = 1 if isinstance(net, Series) else 2
    return (tag, tuple(canonical_key(c) for c in net.children))


def canonical(net: SPNet) -> SPNet:
    """Flatten nested same-type nodes and sort children canonically."""
    return _canonical(net)[0]


def _canonical(net: SPNet) -> Tuple[SPNet, tuple]:
    """``canonical(net)`` and its ``canonical_key``, built bottom-up from
    the children's keys, so that each leaf value is formatted once."""
    if isinstance(net, Leaf):
        return net, canonical_key(net)
    cls = type(net)
    flat: List[Tuple[SPNet, tuple]] = []
    for child, key in map(_canonical, net.children):
        flat.extend(zip(child.children, key[1]) if isinstance(child, cls) else [(child, key)])
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda pair: pair[1])
    return cls(tuple(child for child, _ in flat)), (1 if cls is Series else 2, tuple(key for _, key in flat))


def series(*parts: SPNet) -> SPNet:
    return canonical(Series(tuple(parts)))


def parallel(*parts: SPNet) -> SPNet:
    return canonical(Parallel(tuple(parts)))


def leaves(net: SPNet) -> List[Leaf]:
    if isinstance(net, Leaf):
        return [net]
    out: List[Leaf] = []
    for child in net.children:
        out.extend(leaves(child))
    return out


def element_count(net: SPNet) -> int:
    return len(leaves(net))


def reactive_count(net: SPNet) -> int:
    return sum(1 for lf in leaves(net) if lf.kind in REACTIVE)


def resistor_count(net: SPNet) -> int:
    return sum(1 for lf in leaves(net) if lf.kind == "R")


# ---------------------------------------------------------------------------
# impedance


def _check_leaf(lf: Leaf, slot_ok: bool = False):
    """An R/L/C leaf with a positive value; with ``slot_ok`` the value may
    be None, and so may the kind of a leaf without a value."""
    if lf.kind not in KINDS and not (slot_ok and lf.kind is None and lf.value is None):
        raise ValueError("leaf kind must be one of %s, got %r" % (KINDS, lf.kind))
    if lf.value is None:
        if not slot_ok:
            raise ValueError("leaf has no value (template slot)")
    elif not lf.value > 0:
        raise ValueError("element values must be strictly positive")


def _poly_mul(a: list, b: list) -> list:
    out = [0 * a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def impedance_coeffs(net: SPNet, values: Sequence) -> Tuple[list, list]:
    """Unreduced (num, den) coefficient lists of Z(s), ascending degree.

    ``values`` are the leaf values in ``leaves(net)`` order, all of one
    field type: Fraction or QuadraticRational, mpf, or float.  Series
    composition gives (n1 d2 + n2 d1, d1 d2), parallel composition
    (n1 n2, n1 d2 + n2 d1); nothing is reduced or normalized.
    """
    it = iter(values)

    def build(n: SPNet) -> Tuple[list, list]:
        if isinstance(n, Leaf):
            v = next(it)
            # units and zeros in v's own type: a bare 1 would turn into a
            # float in a later monic division of Fractions
            one, zero = v / v, 0 * v
            if n.kind == "R":
                return [v], [one]
            if n.kind == "L":
                return [zero, v], [one]
            return [one], [zero, v]
        num, den = build(n.children[0])
        for child in n.children[1:]:
            n2, d2 = build(child)
            cross = _poly_add(_poly_mul(num, d2), _poly_mul(n2, den))
            if isinstance(n, Series):
                num, den = cross, _poly_mul(den, d2)
            else:
                num, den = _poly_mul(num, n2), cross
        return num, den

    return build(net)


class _Multilinear:
    """Integer polynomial in the leaf values, multilinear because every leaf
    of a series-parallel tree sits in one subtree: a dict from leaf bitmask
    to count.  It supports what ``impedance_coeffs`` applies to a leaf value:
    ``+``, ``*`` (of disjoint subtrees), ``0 * v`` and ``v / v``.  Every
    count is a positive integer, so a coefficient with no terms is
    identically 0 and every other one is positive at positive values."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, int]):
        self.terms = terms

    def __add__(self, other: "_Multilinear") -> "_Multilinear":
        terms = dict(self.terms)
        for mask, count in other.terms.items():
            terms[mask] = terms.get(mask, 0) + count
        return _Multilinear(terms)

    def __mul__(self, other: "_Multilinear") -> "_Multilinear":
        terms: Dict[int, int] = {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                terms[a | b] = terms.get(a | b, 0) + x * y
        return _Multilinear(terms)

    def __rmul__(self, k: int) -> "_Multilinear":
        if k != 0:
            return NotImplemented
        return _Multilinear({})

    def __truediv__(self, other: "_Multilinear") -> "_Multilinear":
        if other is not self:
            return NotImplemented
        return _Multilinear({0: 1})


def _symbolic_coeffs(net: SPNet) -> Tuple[List[_Multilinear], List[_Multilinear]]:
    """``impedance_coeffs`` of net on ``_Multilinear`` leaf values, leaf i
    the bit 1 << i in ``leaves(net)`` order: every coefficient of num and
    den as integer-weighted monomials in the leaf values."""
    return impedance_coeffs(net, [_Multilinear({1 << i: 1}) for i in range(len(leaves(net)))])


def _leaf_values(net: SPNet) -> list:
    """The checked values of the leaves (R/L/C, positive), in ``leaves(net)``
    order and in the one field that ``field_of`` picks for them all."""
    lfs = leaves(net)
    for lf in lfs:
        _check_leaf(lf)
    f = field_of(*(lf.value for lf in lfs))
    return [f(lf.value) for lf in lfs]


def impedance(net: SPNet) -> RationalFn:
    """Driving-point impedance Z(s) as a reduced rational function.

    Series composition adds impedances, parallel composition adds
    admittances.  With exact element values the result is fully reduced
    (numerator and denominator coprime, denominator monic); with mpf values
    the reduction step is skipped and only the normalization applies.
    """
    num, den = impedance_coeffs(net, _leaf_values(net))
    return RationalFn(Poly(num), Poly(den))


# ---------------------------------------------------------------------------
# transforms


# What each transform inverts: (the frequency, s -> 1/s; the impedance,
# Z -> 1/Z).  gdu inverts both.
TRANSFORMS = {"inv": (True, False), "dual": (False, True), "gdu": (True, True)}
_OTHER_REACTIVE = {"L": "C", "C": "L"}


def transform_inverts(op: str) -> Tuple[bool, bool]:
    """(inverts s, inverts Z) of the transform ``op``, in any letter case."""
    if op.lower() not in TRANSFORMS:
        raise ValueError("unknown transform %r (expected inv, dual or gdu)" % (op.lower(),))
    return TRANSFORMS[op.lower()]


def apply_transform(net: SPNet, op: str) -> SPNet:
    """Apply inv / dual / gdu to a network (values transformed accordingly).

    An R value is its impedance, so it is reciprocated with Z; an L or C
    value is the coefficient of s or 1/s, so it is reciprocated with s; L and
    C swap when exactly one of s and Z is inverted, and inverting Z swaps
    series and parallel.  Reciprocals are taken in ``field_of`` the value.
    """
    inv_s, inv_z = transform_inverts(op)

    def walk(n: SPNet) -> SPNet:
        if isinstance(n, Leaf):
            reactive = n.kind in REACTIVE
            kind = _OTHER_REACTIVE[n.kind] if reactive and inv_s != inv_z else n.kind
            value = n.value
            if value is not None and (inv_s if reactive else inv_z):
                value = 1 / field_of(value)(value)
            return Leaf(kind, value)
        kids = tuple(walk(c) for c in n.children)
        if inv_z:
            return Parallel(kids) if isinstance(n, Series) else Series(kids)
        return type(n)(kids)

    return canonical(walk(net))


# ---------------------------------------------------------------------------
# enumeration


def _partitions(n: int, max_part: int = None):
    """Integer partitions of n, parts descending."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _networks(n: int, kinds: tuple) -> List[SPNet]:
    """The canonical networks with n leaves labeled from ``kinds``, sorted by
    ``canonical_key``.

    The series/parallel recursion of Riordan & Shannon (J. Math. Phys. 21,
    1942): a network is a leaf, or a Series/Parallel root over a multiset of
    at least two children, each of which is a leaf or has the other root.
    Each network is built once, so nothing is deduplicated.  The memo lives
    for one call; kept across calls it would hold every labeled network of
    every size asked for.
    """
    if not 1 <= n <= 8:
        raise ValueError("element count must be between 1 and 8")
    single = [Leaf(kind) for kind in kinds]
    memo: Dict[tuple, List[SPNet]] = {}

    def rooted(m: int, root) -> List[SPNet]:
        """The networks of m >= 2 leaves under a ``root`` node."""
        if (m, root) not in memo:
            other = Parallel if root is Series else Series
            out = []
            for part in _partitions(m):
                if len(part) < 2:
                    continue
                picks = [
                    list(itertools.combinations_with_replacement(
                        single if size == 1 else rooted(size, other), count))
                    for size, count in Counter(part).items()
                ]
                for pick in itertools.product(*picks):
                    kids = sorted(itertools.chain.from_iterable(pick), key=canonical_key)
                    out.append(root(tuple(kids)))
            memo[m, root] = sorted(out, key=canonical_key)
        return memo[m, root]

    return single if n == 1 else rooted(n, Series) + rooted(n, Parallel)


def enumerate_topologies(n: int) -> List[SPNet]:
    """All canonical series-parallel two-terminal shapes with n edges.

    Counts for n = 1..8 are 1, 2, 4, 10, 24, 66, 180, 522 (OEIS A000084).
    """
    return _networks(n, (None,))


# ---------------------------------------------------------------------------
# structural rules


def violates_cutset_rule(net: SPNet) -> bool:
    """True iff some minimal terminal-separating cut is all-L or all-C.

    A minimal cut of a series connection is a minimal cut of one arm, and a
    minimal cut of a parallel connection is one minimal cut per branch.  So
    an all-K minimal cut exists at a leaf of kind K, at a series node when
    some arm has one, and at a parallel node when every branch has one.  An
    all-L cut opens the terminals at s = inf and an all-C cut at s = 0, so a
    network that fails this rule has Z(inf) = inf or Z(0) = inf.
    """

    def has_cut(n: SPNet, kind: str) -> bool:
        if isinstance(n, Leaf):
            return n.kind == kind
        test = any if isinstance(n, Series) else all
        return test(has_cut(c, kind) for c in n.children)

    return any(has_cut(net, kind) for kind in REACTIVE)


def violates_path_rule(net: SPNet) -> bool:
    """True iff some path between the terminals is all-L or all-C: the
    cut-set rule of the dual network, whose minimal cuts are this
    network's paths.

    A path through a series connection runs through every arm, and a path
    through a parallel connection through one branch.  So an all-K path
    exists at a leaf of kind K, at a series node when every arm has one, and
    at a parallel node when some branch has one.  An all-L path shorts the
    terminals at s = 0 and an all-C path at s = inf, so a network that fails
    this rule has Z(0) = 0 or Z(inf) = 0.
    """

    def has_path(n: SPNet, kind: str) -> bool:
        if isinstance(n, Leaf):
            return n.kind == kind
        test = all if isinstance(n, Series) else any
        return test(has_path(c, kind) for c in n.children)

    return any(has_path(net, kind) for kind in REACTIVE)


def _has_reactive_child(net: SPNet, node: type) -> bool:
    """True iff ``net`` is a ``node`` with a child of L and C leaves only."""
    if not isinstance(net, node):
        return False
    return any(all(lf.kind in REACTIVE for lf in leaves(child)) for child in net.children)


def has_pure_reactive_series_arm(net: SPNet) -> bool:
    """True iff the top-level series decomposition has an all-reactive arm.

    The arm's impedance is a nonzero reactance function, which has a pole
    at s = 0, at s = inf or elsewhere on the jw axis.  The other arms'
    impedance is positive real, whose poles there have positive residues,
    so it cannot cancel that pole: Z(s) has it too.
    """
    return _has_reactive_child(net, Series)


def has_pure_reactive_parallel_branch(net: SPNet) -> bool:
    """True iff the top-level parallel decomposition has an all-reactive
    branch: the series-arm rule of the dual network.

    By the argument of ``has_pure_reactive_series_arm`` applied to
    admittances, Y(s) then has a pole on the jw axis (s = 0 and s = inf
    included), which is a zero of Z(s).
    """
    return _has_reactive_child(net, Parallel)


def has_mergeable_siblings(net: SPNet) -> bool:
    """True iff two same-kind leaves sit under the same node.

    Such a pair collapses to a single element of the same kind, so the
    network is equivalent to one with fewer elements.
    """
    if isinstance(net, Leaf):
        return False
    kinds = [c.kind for c in net.children if isinstance(c, Leaf)]
    if any(kinds.count(k) > 1 for k in KINDS):
        return True
    return any(has_mergeable_siblings(c) for c in net.children)


def has_twin(net: SPNet) -> bool:
    """True iff ``A | (A + B)`` is a sub-network for two kinds A != B: a
    parallel node has a leaf of kind A and a series child of exactly two
    leaves, A and B (``|`` is associative, so other branches may sit
    beside them).

    It is the twin of ``A + (A | B)``, the degree-one Foster and Cauer
    forms: positive values of either give positive values of the other
    with the same Z(s), so each pair realizes one set of impedances.  The
    catalogues count networks only up to such equivalents (Ladenheim, MS
    thesis, 1948; Jiang & Smith, IEEE TAC 56(6), 2011).  Up to five
    elements, rewriting every ``A | (A + B)`` into ``A + (A | B)`` ends on
    a network of the same size that has no twin or has mergeable siblings.
    """
    if isinstance(net, Leaf):
        return False
    if isinstance(net, Parallel):
        kinds = {c.kind for c in net.children if isinstance(c, Leaf)}
        for c in net.children:
            if isinstance(c, Series) and len(c.children) == 2 and all(isinstance(x, Leaf) for x in c.children):
                a, b = (x.kind for x in c.children)
                if a != b and kinds & {a, b}:
                    return True
    return any(has_twin(c) for c in net.children)


@functools.lru_cache(maxsize=4096)  # every labeling up to five elements fits
def ends_order(net: SPNet) -> Optional[int]:
    """The sign of Z(inf) - Z(0) at every positive value of the elements:
    +1 (rising), -1 (falling) or 0 (flat, Z(0) = Z(inf) identically), or
    None when it is not the same for all of them, as far as the
    coefficients show, or an end is 0 or infinite.  Leaf values are
    ignored: the verdict is the template's.

    Z(0) and Z(inf) are the resistor networks with L shorted and C open,
    and the reverse.  On ``_Multilinear`` leaves every coefficient of num
    and den is identically 0 or positive, so Z(0) = num_lo / den_lo and
    Z(inf) = num_hi / den_hi at the lowest and highest nonzero indices,
    which must agree between num and den for finite nonzero ends.  The sign
    is that of num_hi den_lo - num_lo den_hi, a polynomial with integer
    coefficients in values that may now appear squared: decided when its
    nonzero coefficients share one sign.  Cached per labeling."""
    num, den = _symbolic_coeffs(net)
    (num_lo, num_hi), (den_lo, den_hi) = ((nonzero[0], nonzero[-1]) for nonzero in (
        [i for i, c in enumerate(poly) if c.terms] for poly in (num, den)))
    if (num_lo, num_hi) != (den_lo, den_hi):
        return None
    # a product monomial of a and b is set by the leaves it holds (a | b)
    # and those it holds squared (a & b)
    delta: Counter = Counter()
    for sign, p, q in ((1, num[num_hi], den[den_lo]), (-1, num[num_lo], den[den_hi])):
        for a, x in p.terms.items():
            for b, y in q.terms.items():
                delta[a | b, a & b] += sign * x * y
    signs = {c > 0 for c in delta.values() if c}
    if not signs:
        return 0
    if len(signs) > 1:
        return None
    return 1 if True in signs else -1


_ENDS_ORDERS = {"rising": 1, "flat": 0, "falling": -1}

_FILTER_PREDICATES: Dict[str, Callable[[SPNet], bool]] = {
    "cutset": lambda n: not violates_cutset_rule(n),
    "reactive-arm": lambda n: not has_pure_reactive_series_arm(n),
    "mergeable": lambda n: not has_mergeable_siblings(n),
    "reactive-path": lambda n: not violates_path_rule(n),
    "reactive-branch": lambda n: not has_pure_reactive_parallel_branch(n),
    "twin": lambda n: not has_twin(n),
}


def _filter_count(spec: str) -> int:
    """The N of a ``name=N`` filter, a count written in plain digits."""
    name, count = spec.split("=", 1)
    if not (count.isascii() and count.isdigit()):
        raise ValueError("filter %r: expected %s=N with N a count in plain digits" % (spec, name))
    return int(count)


def parse_filters(specs: Iterable[str]) -> List[Tuple[str, Callable[[SPNet], bool]]]:
    """Parse filter names into (name, predicate) pairs.

    Supported: ``cutset``, ``reactive-arm``, ``mergeable``,
    ``reactive-path``, ``reactive-branch``, ``twin``, ``min-resistors=N``,
    ``reactive-count=N``, N in plain digits, and
    ``ends-order=rising|flat|falling``, which keeps a network whose
    ``ends_order`` is None or the named one.
    """
    out: List[Tuple[str, Callable[[SPNet], bool]]] = []
    for spec in specs:
        spec = spec.strip()
        if spec in _FILTER_PREDICATES:
            out.append((spec, _FILTER_PREDICATES[spec]))
        elif spec.startswith("min-resistors="):
            k = _filter_count(spec)
            out.append((spec, lambda n, k=k: resistor_count(n) >= k))
        elif spec.startswith("reactive-count="):
            k = _filter_count(spec)
            out.append((spec, lambda n, k=k: reactive_count(n) == k))
        elif spec.startswith("ends-order="):
            order = _ENDS_ORDERS.get(spec.split("=", 1)[1])
            if order is None:
                raise ValueError("filter %r: expected ends-order=rising, flat or falling" % (spec,))
            out.append((spec, lambda n, order=order: ends_order(n) in (None, order)))
        else:
            raise ValueError("unknown filter %r" % (spec,))
    return out


def enumerate_labeled(n: int, filters: Iterable[str] = ()) -> List[SPNet]:
    """All canonical R/L/C labelings of the n-element shapes that pass the
    filters, sorted by ``canonical_key``: 3, 12, 56, 312, 1896 for n = 1..5.
    """
    preds = parse_filters(filters)
    return [net for net in _networks(n, KINDS) if all(pred(net) for _, pred in preds)]


# ---------------------------------------------------------------------------
# configuration catalog

# One shape per configuration: "+" is series, "|" is parallel, and each leaf
# is a slot name whose first letter is the element kind.
_SHAPES: Dict[str, tuple] = {
    # one-reactive three-element subnetworks
    "fig7a": ("|", "R1", ("+", "R2", "C1")),
    "fig7b": ("|", "R1", ("+", "R2", "L1")),
    # two-reactive three-element subnetworks
    "fig8a": ("|", "R1", "L1", "C1"),
    "fig8b": ("|", "R1", ("+", "L1", "C1")),
    "fig8c": ("|", "L1", ("+", "R1", "C1")),
    "fig8d": ("|", "C1", ("+", "R1", "L1")),
    # three-reactive four-element subnetworks
    "fig9a": ("|", "R21", "C21", ("+", "L21", "C22")),
    "fig9b": ("|", "R21", "L21", ("+", "L22", "C21")),
    "fig9c": ("|", "C21", "L21", ("+", "R21", "C22")),
    "fig9d": ("|", "C21", "L21", ("+", "L22", "R21")),
    "fig9e": ("|", "C21", ("+", "R21", ("|", "L21", "C22"))),
    "fig9f": ("|", "C21", ("+", "L21", ("|", "R21", "C22"))),
    "fig9g": ("|", "L21", ("+", "R21", ("|", "L22", "C21"))),
    "fig9h": ("|", "L21", ("+", "C21", ("|", "R21", "L22"))),
}

# seven-element assemblies: a three-element and a four-element subnetwork in
# series
_ASSEMBLIES = {
    "fig3a": ("fig7a", "fig9g"),
    "fig4a": ("fig8b", "fig9e"),
    "fig5a": ("fig8c", "fig9e"),
}
_SHAPES.update({name: ("+", _SHAPES[a], _SHAPES[b]) for name, (a, b) in _ASSEMBLIES.items()})


_CONFIG_ALIASES = {"n4a": "fig4a", "n5a": "fig5a"}


def canonical_config_id(config_id: str) -> str:
    """The catalog key of a configuration id: lower case, aliases resolved."""
    key = config_id.lower()
    return _CONFIG_ALIASES.get(key, key)


def _catalog_key(config_id: str) -> str:
    key = canonical_config_id(config_id)
    if key not in _SHAPES:
        raise KeyError("unknown configuration id %r" % (config_id,))
    return key


def _slot_names(shape) -> List[str]:
    if isinstance(shape, str):
        return [shape]
    return [name for part in shape[1:] for name in _slot_names(part)]


def _build(shape, values: Optional[dict]) -> SPNet:
    """The raw network of a shape; ``values=None`` leaves every slot empty."""
    if isinstance(shape, str):
        return Leaf(shape[0], None if values is None else values[shape])
    return (Series if shape[0] == "+" else Parallel)(tuple(_build(part, values) for part in shape[1:]))


def config_ids() -> List[str]:
    return sorted(_SHAPES)


def config_slots(config_id: str) -> Tuple[Tuple[str, str], ...]:
    """(slot name, kind) pairs in shape order."""
    return tuple((name, name[0]) for name in _slot_names(_SHAPES[_catalog_key(config_id)]))


def build_config(config_id: str, values: dict) -> SPNet:
    """Build the named configuration with the given slot values."""
    shape = _SHAPES[_catalog_key(config_id)]
    names = _slot_names(shape)
    missing = [name for name in names if name not in values]
    if missing:
        raise ValueError("missing slot values: %s" % ", ".join(missing))
    for name in names:
        if not values[name] > 0:
            raise ValueError("slot %s must be positive" % name)
    return canonical(_build(shape, values))


def config_template(config_id: str) -> SPNet:
    """The configuration shape with empty value slots (for fitting)."""
    return canonical(_build(_SHAPES[_catalog_key(config_id)], None))


# ---------------------------------------------------------------------------
# serialization


def to_netlist_json(net: SPNet) -> dict:
    if isinstance(net, Leaf):
        out = {"type": "element", "kind": net.kind}
        out["value"] = None if net.value is None else scalar_to_str(net.value)
        return out
    tag = "series" if isinstance(net, Series) else "parallel"
    return {"type": tag, "children": [to_netlist_json(c) for c in net.children]}


def from_netlist_json(data: dict) -> SPNet:
    """Parse a netlist, canonical.  Rejects a leaf kind outside R/L/C (null
    only on a slot whose value is null too) and a non-null value not > 0."""
    return canonical(_parse_netlist(data))


def _parse_netlist(data: dict) -> SPNet:
    if not isinstance(data, dict):
        raise ValueError("a netlist node must be a JSON object")
    t = data.get("type")
    if t == "element":
        value = data.get("value")
        leaf = Leaf(data["kind"], None if value is None else scalar_from_str(str(value)))
        _check_leaf(leaf, slot_ok=True)
        return leaf
    if t not in ("series", "parallel"):
        raise ValueError("unknown netlist node type %r" % (t,))
    children = data["children"]
    if not isinstance(children, list) or not children:
        raise ValueError("netlist children must be a non-empty array")
    return (Series if t == "series" else Parallel)(tuple(_parse_netlist(c) for c in children))


def to_spice(net: SPNet) -> str:
    """SPICE-like netlist: one line per leaf, terminals are nodes 1 and 0.

    Internal nodes are numbered by depth-first traversal; element names use
    per-kind counters in the same order.
    """
    counters = {"R": 0, "L": 0, "C": 0}
    next_node = [2]
    lines: List[str] = []

    def fmt(value) -> str:
        if value is None:
            return "?"
        return scalar_to_str(value)

    def walk(n: SPNet, a: int, b: int):
        if isinstance(n, Leaf):
            counters[n.kind] += 1
            lines.append("%s%d %d %d %s" % (n.kind, counters[n.kind], a, b, fmt(n.value)))
            return
        if isinstance(n, Series):
            nodes = [a]
            for _ in n.children[:-1]:
                nodes.append(next_node[0])
                next_node[0] += 1
            nodes.append(b)
            for child, (na, nb) in zip(n.children, zip(nodes, nodes[1:])):
                walk(child, na, nb)
            return
        for child in n.children:
            walk(child, a, b)

    walk(net, 1, 0)
    return "\n".join(lines) + "\n"
