"""Series-parallel two-terminal networks.

A network is a tree: R/L/C leaves under ``Series``/``Parallel`` composition,
kept in a flattened canonical form (no Series child of a Series, children
sorted by a fixed key) so structural equality and deduplication are
deterministic.

The module provides the symbolic impedance (series adds impedances, parallel
adds admittances), the three network transforms

* ``inv``  : frequency inversion, same graph, L(x) <-> C(1/x);
* ``dual`` : network duality, graph dual (= Series/Parallel swap here),
  R(x) -> R(1/x), L(x) <-> C(x);
* ``gdu``  : frequency-inverse duality, graph dual with every value
  reciprocated and kinds kept;

exhaustive topology/labeling enumeration with the structural filters used by
the realizability arguments (cut-set rule, no pure-reactive series arm), and
a catalog of the named configurations used by the seven-element syntheses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .ratpoly import (
    Poly,
    RationalFn,
    is_exact_scalar,
    scalar_from_str,
    scalar_to_str,
    to_mpf,
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
    "apply_transform",
    "enumerate_topologies",
    "enumerate_labeled",
    "violates_cutset_rule",
    "has_pure_reactive_series_arm",
    "has_mergeable_siblings",
    "parse_filters",
    "CONFIGS",
    "config_ids",
    "config_slots",
    "build_config",
    "config_formula",
    "config_template",
    "to_netlist_json",
    "from_netlist_json",
    "to_spice",
]

KINDS = ("R", "L", "C")
REACTIVE = ("L", "C")


@dataclass(frozen=True)
class Leaf:
    kind: Optional[str]  # "R" | "L" | "C" | None for an unlabeled slot
    value: object = None  # positive scalar, or None for a template slot


@dataclass(frozen=True)
class Series:
    children: tuple


@dataclass(frozen=True)
class Parallel:
    children: tuple


SPNet = Union[Leaf, Series, Parallel]


# ---------------------------------------------------------------------------
# canonical form


def _value_key(value) -> str:
    if value is None:
        return ""
    return scalar_to_str(value)


def canonical_key(net: SPNet) -> tuple:
    """Total order key: (node kind, leaf kind, serialized subtree)."""
    if isinstance(net, Leaf):
        kind_ix = KINDS.index(net.kind) if net.kind in KINDS else -1
        return (0, kind_ix, _value_key(net.value))
    tag = 1 if isinstance(net, Series) else 2
    return (tag, tuple(canonical_key(c) for c in net.children))


def canonical(net: SPNet) -> SPNet:
    """Flatten nested same-type nodes and sort children canonically."""
    if isinstance(net, Leaf):
        return net
    cls = type(net)
    flat: List[SPNet] = []
    for child in net.children:
        child = canonical(child)
        if isinstance(child, cls):
            flat.extend(child.children)
        else:
            flat.append(child)
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=canonical_key)
    return cls(tuple(flat))


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


def map_leaves(net: SPNet, fn: Callable[[Leaf], Leaf]) -> SPNet:
    if isinstance(net, Leaf):
        return fn(net)
    cls = type(net)
    return canonical(cls(tuple(map_leaves(c, fn) for c in net.children)))


# ---------------------------------------------------------------------------
# impedance


def _check_value(lf: Leaf):
    if lf.kind not in KINDS:
        raise ValueError("leaf kind must be one of %s, got %r" % (KINDS, lf.kind))
    if lf.value is None:
        raise ValueError("leaf has no value (template slot)")
    if not lf.value > 0:
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


def impedance(net: SPNet) -> RationalFn:
    """Driving-point impedance Z(s) as a reduced rational function.

    Series composition adds impedances, parallel composition adds
    admittances.  With exact element values the result is fully reduced
    (numerator and denominator coprime, denominator monic); with mpf values
    the reduction step is skipped and only the normalization applies.
    """
    lfs = leaves(net)
    for lf in lfs:
        _check_value(lf)
    values = [lf.value for lf in lfs]
    if any(not is_exact_scalar(v) for v in values):
        values = [to_mpf(v) for v in values]
    else:
        # ints as Fraction: int / int is a float in the builder's v / v unit
        values = [Fraction(v) if isinstance(v, int) else v for v in values]
    num, den = impedance_coeffs(net, values)
    return RationalFn(Poly(num), Poly(den))


# ---------------------------------------------------------------------------
# transforms


def _reciprocal(v):
    return 1 / v


_TRANSFORMS = ("inv", "dual", "gdu")


def apply_transform(net: SPNet, op: str) -> SPNet:
    """Apply inv / dual / gdu to a network (values transformed accordingly)."""
    op = op.lower()
    if op not in _TRANSFORMS:
        raise ValueError("unknown transform %r (expected inv, dual or gdu)" % (op,))

    swap = op in ("dual", "gdu")

    def leaf_map(lf: Leaf) -> Leaf:
        kind, value = lf.kind, lf.value
        if op == "inv":
            if kind == "L":
                return Leaf("C", None if value is None else _reciprocal(value))
            if kind == "C":
                return Leaf("L", None if value is None else _reciprocal(value))
            return lf
        if op == "dual":
            if kind == "R":
                return Leaf("R", None if value is None else _reciprocal(value))
            if kind == "L":
                return Leaf("C", value)
            if kind == "C":
                return Leaf("L", value)
            return lf
        # gdu: labels preserved, values reciprocated
        return Leaf(kind, None if value is None else _reciprocal(value))

    def walk(n: SPNet) -> SPNet:
        if isinstance(n, Leaf):
            return leaf_map(n)
        kids = tuple(walk(c) for c in n.children)
        if swap:
            return Parallel(kids) if isinstance(n, Series) else Series(kids)
        return type(n)(kids)

    return canonical(walk(net))


# ---------------------------------------------------------------------------
# enumeration


def _multisets(items: Sequence, k: int):
    """Multisets of size k over an ordered item list."""
    return itertools.combinations_with_replacement(items, k)


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


class _TopologyCache:
    def __init__(self):
        self.non_series: Dict[int, List[SPNet]] = {}
        self.non_parallel: Dict[int, List[SPNet]] = {}

    def get(self, n: int, kind: str) -> List[SPNet]:
        cache = self.non_series if kind == "ns" else self.non_parallel
        if n in cache:
            return cache[n]
        out: List[SPNet] = []
        if n == 1:
            out.append(Leaf(None))
        else:
            root = Parallel if kind == "ns" else Series
            child_kind = "np" if kind == "ns" else "ns"
            for part in _partitions(n):
                if len(part) < 2:
                    continue
                groups: List[List[Tuple[SPNet, ...]]] = []
                for size, count in _group_counts(part):
                    opts = self.get(size, child_kind)
                    groups.append([combo for combo in _multisets(opts, count)])
                for pick in itertools.product(*groups):
                    kids = tuple(itertools.chain.from_iterable(pick))
                    out.append(canonical(root(kids)))
        seen = {}
        for t in out:
            seen[canonical_key(t)] = t
        result = [seen[k] for k in sorted(seen)]
        cache[n] = result
        return result


def _group_counts(part: Tuple[int, ...]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    for size in part:
        if out and out[-1][0] == size:
            out[-1] = (size, out[-1][1] + 1)
        else:
            out.append((size, 1))
    return out


_TOPO = _TopologyCache()


def enumerate_topologies(n: int) -> List[SPNet]:
    """All canonical series-parallel two-terminal shapes with n edges.

    Counts for n = 1..5 are 1, 2, 4, 10, 24.
    """
    if not 1 <= n <= 8:
        raise ValueError("element count must be between 1 and 8")
    if n == 1:
        return [Leaf(None)]
    out = list(_TOPO.get(n, "ns")) + list(_TOPO.get(n, "np"))
    seen = {}
    for t in out:
        if not isinstance(t, Leaf):
            seen[canonical_key(t)] = t
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# structural rules


def violates_cutset_rule(net: SPNet) -> bool:
    """True iff some minimal terminal-separating cut is all-L or all-C.

    Brute force over leaf subsets of each reactive kind (a subset of an
    all-L set is all-L, so inclusion-minimality can be checked within the
    same powerset).  Intended for small networks.
    """
    lfs = leaves(net)
    if len(lfs) > 12:
        raise ValueError("cut-set brute force limited to 12 elements")

    # leaves are identified by depth-first position (equal leaves may share
    # an object, so identity cannot be used)
    def connected_pos(n: SPNet, removed: frozenset, counter: List[int]) -> bool:
        if isinstance(n, Leaf):
            i = counter[0]
            counter[0] += 1
            return i not in removed
        if isinstance(n, Series):
            ok = True
            for c in n.children:
                ok = connected_pos(c, removed, counter) and ok
            return ok
        ok = False
        for c in n.children:
            ok = connected_pos(c, removed, counter) or ok
        return ok

    def separates(removed: frozenset) -> bool:
        return not connected_pos(net, removed, [0])

    for kind in REACTIVE:
        positions = [i for i, lf in enumerate(lfs) if lf.kind == kind]
        for r in range(1, len(positions) + 1):
            for combo in itertools.combinations(positions, r):
                s = frozenset(combo)
                if not separates(s):
                    continue
                if all(not separates(s - {x}) for x in s):
                    return True
    return False


def has_pure_reactive_series_arm(net: SPNet) -> bool:
    """True iff the top-level series decomposition has an all-reactive arm."""
    if not isinstance(net, Series):
        return False
    for arm in net.children:
        if all(lf.kind in REACTIVE for lf in leaves(arm)):
            return True
    return False


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


_FILTER_PREDICATES: Dict[str, Callable[[SPNet], bool]] = {
    "cutset": lambda n: not violates_cutset_rule(n),
    "reactive-arm": lambda n: not has_pure_reactive_series_arm(n),
    "mergeable": lambda n: not has_mergeable_siblings(n),
}


def parse_filters(specs: Iterable[str]) -> List[Tuple[str, Callable[[SPNet], bool]]]:
    """Parse filter names into (name, predicate) pairs.

    Supported: ``cutset``, ``reactive-arm``, ``mergeable``,
    ``min-resistors=N``, ``reactive-count=N``.
    """
    out: List[Tuple[str, Callable[[SPNet], bool]]] = []
    for spec in specs:
        spec = spec.strip()
        if spec in _FILTER_PREDICATES:
            out.append((spec, _FILTER_PREDICATES[spec]))
        elif spec.startswith("min-resistors="):
            k = int(spec.split("=", 1)[1])
            out.append((spec, lambda n, k=k: resistor_count(n) >= k))
        elif spec.startswith("reactive-count="):
            k = int(spec.split("=", 1)[1])
            out.append((spec, lambda n, k=k: reactive_count(n) == k))
        else:
            raise ValueError("unknown filter %r" % (spec,))
    return out


def enumerate_labeled(n: int, filters: Iterable[str] = ()) -> List[SPNet]:
    """All canonical R/L/C labelings of the n-element shapes, filtered.

    Labelings that coincide after canonical reordering are deduplicated.
    Raw labelings grow as 3^n per shape; the n = 8 maximum takes a while.
    """
    preds = parse_filters(filters)
    out: Dict[tuple, SPNet] = {}
    for shape in enumerate_topologies(n):
        shape_leaves = leaves(shape)
        for kinds in itertools.product(KINDS, repeat=len(shape_leaves)):
            it = iter(kinds)
            labeled = canonical(map_leaves(shape, lambda lf: Leaf(next(it))))
            key = canonical_key(labeled)
            if key in out:
                continue
            if all(pred(labeled) for _, pred in preds):
                out[key] = labeled
    return [out[k] for k in sorted(out)]


# ---------------------------------------------------------------------------
# configuration catalog


@dataclass(frozen=True)
class ConfigSpec:
    name: str
    slots: Tuple[Tuple[str, str], ...]  # (slot name, kind), catalog order
    build: Callable[[Optional[dict]], SPNet]
    formula: Callable[[dict], RationalFn]
    description: str


def _rf(num_coeffs, den_coeffs) -> RationalFn:
    return RationalFn(Poly(num_coeffs), Poly(den_coeffs))


def _make_configs() -> Dict[str, ConfigSpec]:
    configs: Dict[str, ConfigSpec] = {}

    def add(name, slots, build, formula, description):
        configs[name] = ConfigSpec(name, tuple(slots), build, formula, description)

    # one-reactive three-element subnetworks
    add(
        "fig7a",
        (("R1", "R"), ("R2", "R"), ("C1", "C")),
        lambda v: parallel(
            Leaf("R", v and v["R1"]),
            series(Leaf("R", v and v["R2"]), Leaf("C", v and v["C1"])),
        ),
        lambda v: _rf(
            [v["R1"], v["R1"] * v["R2"] * v["C1"]],
            [1, (v["R1"] + v["R2"]) * v["C1"]],
        ),
        "R1 in parallel with (R2 series C1); biproper first-degree impedance",
    )
    add(
        "fig7b",
        (("R1", "R"), ("R2", "R"), ("L1", "L")),
        lambda v: parallel(
            Leaf("R", v and v["R1"]),
            series(Leaf("R", v and v["R2"]), Leaf("L", v and v["L1"])),
        ),
        lambda v: _rf(
            [v["R1"] * v["R2"], v["R1"] * v["L1"]],
            [v["R1"] + v["R2"], v["L1"]],
        ),
        "frequency inverse of fig7a (L replaces C)",
    )

    # two-reactive three-element subnetworks
    add(
        "fig8a",
        (("R1", "R"), ("L1", "L"), ("C1", "C")),
        lambda v: parallel(
            Leaf("R", v and v["R1"]), Leaf("L", v and v["L1"]), Leaf("C", v and v["C1"])
        ),
        lambda v: _rf(
            [0, v["R1"] * v["L1"]],
            [v["R1"], v["L1"], v["R1"] * v["L1"] * v["C1"]],
        ),
        "R, L, C all in parallel",
    )
    add(
        "fig8b",
        (("R1", "R"), ("L1", "L"), ("C1", "C")),
        lambda v: parallel(
            Leaf("R", v and v["R1"]),
            series(Leaf("L", v and v["L1"]), Leaf("C", v and v["C1"])),
        ),
        lambda v: _rf(
            [v["R1"], 0, v["R1"] * v["L1"] * v["C1"]],
            [1, v["R1"] * v["C1"], v["L1"] * v["C1"]],
        ),
        "R in parallel with series LC",
    )
    add(
        "fig8c",
        (("R1", "R"), ("L1", "L"), ("C1", "C")),
        lambda v: parallel(
            Leaf("L", v and v["L1"]),
            series(Leaf("R", v and v["R1"]), Leaf("C", v and v["C1"])),
        ),
        lambda v: _rf(
            [0, v["L1"], v["R1"] * v["L1"] * v["C1"]],
            [1, v["R1"] * v["C1"], v["L1"] * v["C1"]],
        ),
        "L in parallel with series RC",
    )
    add(
        "fig8d",
        (("R1", "R"), ("L1", "L"), ("C1", "C")),
        lambda v: parallel(
            Leaf("C", v and v["C1"]),
            series(Leaf("R", v and v["R1"]), Leaf("L", v and v["L1"])),
        ),
        lambda v: _rf(
            [v["R1"], v["L1"]],
            [1, v["R1"] * v["C1"], v["L1"] * v["C1"]],
        ),
        "frequency inverse of fig8c (C in parallel with series RL)",
    )

    # three-reactive four-element subnetworks
    add(
        "fig9a",
        (("R21", "R"), ("C21", "C"), ("L21", "L"), ("C22", "C")),
        lambda v: parallel(
            Leaf("R", v and v["R21"]),
            Leaf("C", v and v["C21"]),
            series(Leaf("L", v and v["L21"]), Leaf("C", v and v["C22"])),
        ),
        lambda v: _rf(
            [v["R21"], 0, v["R21"] * v["L21"] * v["C22"]],
            [
                1,
                v["R21"] * (v["C21"] + v["C22"]),
                v["L21"] * v["C22"],
                v["R21"] * v["L21"] * v["C21"] * v["C22"],
            ],
        ),
        "R, C in parallel with series LC",
    )
    add(
        "fig9b",
        (("R21", "R"), ("L21", "L"), ("L22", "L"), ("C21", "C")),
        lambda v: parallel(
            Leaf("R", v and v["R21"]),
            Leaf("L", v and v["L21"]),
            series(Leaf("L", v and v["L22"]), Leaf("C", v and v["C21"])),
        ),
        lambda v: _rf(
            [0, v["R21"] * v["L21"], 0, v["R21"] * v["L21"] * v["L22"] * v["C21"]],
            [
                v["R21"],
                v["L21"],
                v["R21"] * v["C21"] * (v["L21"] + v["L22"]),
                v["L21"] * v["L22"] * v["C21"],
            ],
        ),
        "R, L in parallel with series LC",
    )
    add(
        "fig9c",
        (("R21", "R"), ("C21", "C"), ("L21", "L"), ("C22", "C")),
        lambda v: parallel(
            Leaf("C", v and v["C21"]),
            Leaf("L", v and v["L21"]),
            series(Leaf("R", v and v["R21"]), Leaf("C", v and v["C22"])),
        ),
        lambda v: _rf(
            [0, v["L21"], v["R21"] * v["L21"] * v["C22"]],
            [
                1,
                v["R21"] * v["C22"],
                v["L21"] * (v["C21"] + v["C22"]),
                v["R21"] * v["L21"] * v["C21"] * v["C22"],
            ],
        ),
        "C, L in parallel with series RC",
    )
    add(
        "fig9d",
        (("R21", "R"), ("C21", "C"), ("L21", "L"), ("L22", "L")),
        lambda v: parallel(
            Leaf("C", v and v["C21"]),
            Leaf("L", v and v["L21"]),
            series(Leaf("L", v and v["L22"]), Leaf("R", v and v["R21"])),
        ),
        lambda v: _rf(
            [0, v["R21"] * v["L21"], v["L21"] * v["L22"]],
            [
                v["R21"],
                v["L21"] + v["L22"],
                v["R21"] * v["L21"] * v["C21"],
                v["L21"] * v["L22"] * v["C21"],
            ],
        ),
        "C, L in parallel with series LR",
    )
    add(
        "fig9e",
        (("R21", "R"), ("L21", "L"), ("C21", "C"), ("C22", "C")),
        lambda v: parallel(
            Leaf("C", v and v["C21"]),
            series(
                Leaf("R", v and v["R21"]),
                parallel(Leaf("L", v and v["L21"]), Leaf("C", v and v["C22"])),
            ),
        ),
        lambda v: _rf(
            [v["R21"], v["L21"], v["R21"] * v["L21"] * v["C22"]],
            [
                1,
                v["R21"] * v["C21"],
                v["L21"] * (v["C21"] + v["C22"]),
                v["R21"] * v["L21"] * v["C21"] * v["C22"],
            ],
        ),
        "C in parallel with (R series (L parallel C))",
    )
    add(
        "fig9f",
        (("R21", "R"), ("L21", "L"), ("C21", "C"), ("C22", "C")),
        lambda v: parallel(
            Leaf("C", v and v["C21"]),
            series(
                Leaf("L", v and v["L21"]),
                parallel(Leaf("R", v and v["R21"]), Leaf("C", v and v["C22"])),
            ),
        ),
        lambda v: _rf(
            [v["R21"], v["L21"], v["R21"] * v["L21"] * v["C22"]],
            [
                1,
                v["R21"] * (v["C21"] + v["C22"]),
                v["L21"] * v["C21"],
                v["R21"] * v["L21"] * v["C21"] * v["C22"],
            ],
        ),
        "C in parallel with (L series (R parallel C))",
    )
    add(
        "fig9g",
        (("R21", "R"), ("L21", "L"), ("L22", "L"), ("C21", "C")),
        lambda v: parallel(
            Leaf("L", v and v["L21"]),
            series(
                Leaf("R", v and v["R21"]),
                parallel(Leaf("L", v and v["L22"]), Leaf("C", v and v["C21"])),
            ),
        ),
        lambda v: _rf(
            [
                0,
                v["R21"] * v["L21"],
                v["L21"] * v["L22"],
                v["R21"] * v["L21"] * v["L22"] * v["C21"],
            ],
            [
                v["R21"],
                v["L21"] + v["L22"],
                v["R21"] * v["L22"] * v["C21"],
                v["L21"] * v["L22"] * v["C21"],
            ],
        ),
        "L in parallel with (R series (L parallel C))",
    )
    add(
        "fig9h",
        (("R21", "R"), ("L21", "L"), ("C21", "C"), ("L22", "L")),
        lambda v: parallel(
            Leaf("L", v and v["L21"]),
            series(
                Leaf("C", v and v["C21"]),
                parallel(Leaf("R", v and v["R21"]), Leaf("L", v and v["L22"])),
            ),
        ),
        lambda v: _rf(
            [
                0,
                v["R21"] * v["L21"],
                v["L21"] * v["L22"],
                v["R21"] * v["L21"] * v["L22"] * v["C21"],
            ],
            [
                v["R21"],
                v["L22"],
                v["R21"] * (v["L21"] + v["L22"]) * v["C21"],
                v["L21"] * v["L22"] * v["C21"],
            ],
        ),
        "L in parallel with (C series (R parallel L))",
    )

    # seven-element assemblies: a three-element and a four-element subnetwork
    # in series
    def assembly(sub1: str, sub2: str):
        def build(v):
            return series(configs[sub1].build(v), configs[sub2].build(v))

        def formula(v):
            return configs[sub1].formula(v) + configs[sub2].formula(v)

        slots = configs[sub1].slots + configs[sub2].slots
        return slots, build, formula

    for name, sub1, sub2, desc in (
        ("fig3a", "fig7a", "fig9g", "seven-element assembly fig7a + fig9g"),
        ("fig4a", "fig8b", "fig9e", "seven-element assembly fig8b + fig9e (N4a)"),
        ("fig5a", "fig8c", "fig9e", "seven-element assembly fig8c + fig9e (N5a)"),
    ):
        slots, build, formula = assembly(sub1, sub2)
        add(name, slots, build, formula, desc)

    return configs


CONFIGS: Dict[str, ConfigSpec] = _make_configs()

_CONFIG_ALIASES = {"n4a": "fig4a", "n5a": "fig5a"}


def _resolve_config(config_id: str) -> ConfigSpec:
    key = config_id.lower()
    key = _CONFIG_ALIASES.get(key, key)
    if key not in CONFIGS:
        raise KeyError("unknown configuration id %r" % (config_id,))
    return CONFIGS[key]


def config_ids() -> List[str]:
    return sorted(CONFIGS)


def config_slots(config_id: str) -> Tuple[Tuple[str, str], ...]:
    return _resolve_config(config_id).slots


def build_config(config_id: str, values: dict) -> SPNet:
    """Build the named configuration with the given slot values."""
    spec = _resolve_config(config_id)
    missing = [name for name, _ in spec.slots if name not in values]
    if missing:
        raise ValueError("missing slot values: %s" % ", ".join(missing))
    for name, _ in spec.slots:
        if not values[name] > 0:
            raise ValueError("slot %s must be positive" % name)
    return spec.build(values)


def config_template(config_id: str) -> SPNet:
    """The configuration shape with empty value slots (for fitting)."""
    return _resolve_config(config_id).build(None)


def config_formula(config_id: str, values: dict) -> RationalFn:
    """The cataloged closed-form impedance evaluated at the given values."""
    spec = _resolve_config(config_id)
    return spec.formula(values)


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
    t = data.get("type")
    if t == "element":
        value = data.get("value")
        parsed = None if value is None else scalar_from_str(str(value))
        return Leaf(data["kind"], parsed)
    kids = tuple(from_netlist_json(c) for c in data["children"])
    if t == "series":
        return canonical(Series(kids))
    if t == "parallel":
        return canonical(Parallel(kids))
    raise ValueError("unknown netlist node type %r" % (t,))


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
