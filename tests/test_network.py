"""Tests for the series-parallel network layer."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from biquadrlc.network import (
    Leaf,
    Parallel,
    Series,
    apply_transform,
    build_config,
    canonical,
    canonical_key,
    config_ids,
    config_slots,
    config_template,
    element_count,
    enumerate_labeled,
    enumerate_topologies,
    from_netlist_json,
    has_mergeable_siblings,
    has_pure_reactive_parallel_branch,
    has_pure_reactive_series_arm,
    has_twin,
    impedance,
    impedance_coeffs,
    leaves,
    parallel,
    parse_filters,
    reactive_count,
    series,
    to_netlist_json,
    to_spice,
    violates_cutset_rule,
    violates_path_rule,
)
from biquadrlc.ratpoly import Poly, QuadraticRational, RationalFn
from formulas import config_formula

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def RF(num, den):
    return RationalFn(P(*num), P(*den))


def R(v):
    return Leaf("R", F(v))


def L(v):
    return Leaf("L", F(v))


def C(v):
    return Leaf("C", F(v))


# ---------------------------------------------------------------------------
# impedance


def test_impedance_resistor():
    assert impedance(R(5)) == RationalFn.constant(F(5))


def test_impedance_series_rl():
    assert impedance(series(R(1), L(1))) == RF((1, 1), (1,))


def test_impedance_parallel_rc():
    # R || C = R/(RCs+1)
    assert impedance(parallel(R(2), C(3))) == RF((2,), (1, 6))


def test_impedance_fig9a_symbolic_slots():
    # rational-value probe of the cataloged formula at several exact points
    rng = random.Random(5)
    for _ in range(5):
        vals = {
            "R21": F(rng.randint(1, 9), rng.randint(1, 4)),
            "C21": F(rng.randint(1, 9), rng.randint(1, 4)),
            "L21": F(rng.randint(1, 9), rng.randint(1, 4)),
            "C22": F(rng.randint(1, 9), rng.randint(1, 4)),
        }
        net = build_config("fig9a", vals)
        expected = RationalFn(
            Poly([vals["R21"], F(0), vals["R21"] * vals["L21"] * vals["C22"]]),
            Poly(
                [
                    F(1),
                    vals["R21"] * (vals["C21"] + vals["C22"]),
                    vals["L21"] * vals["C22"],
                    vals["R21"] * vals["L21"] * vals["C21"] * vals["C22"],
                ]
            ),
        )
        assert impedance(net) == expected


def test_impedance_requires_positive_values():
    with pytest.raises(ValueError):
        impedance(Leaf("R", F(0)))
    with pytest.raises(ValueError):
        impedance(Leaf("R", None))


def _random_net(rng, n):
    """Random series-parallel network of n elements with rational values."""
    if n == 1:
        return Leaf(rng.choice("RLC"), F(rng.randint(1, 20), rng.randint(1, 20)))
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    kids = [_random_net(rng, k) for k in sizes]
    return series(*kids) if rng.random() < 0.5 else parallel(*kids)


def test_impedance_matches_sympy_together_on_random_networks():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    def sym_z(net):
        if isinstance(net, Leaf):
            v = sympy.Rational(net.value.numerator, net.value.denominator)
            return {"R": v, "L": v * s, "C": 1 / (v * s)}[net.kind]
        if isinstance(net, Series):
            return sympy.Add(*[sym_z(c) for c in net.children])
        return 1 / sympy.Add(*[1 / sym_z(c) for c in net.children])

    def ascending(poly):
        return [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]

    rng = random.Random(2024)
    for n in range(1, 8):
        for _ in range(6):
            net = _random_net(rng, n)
            num, den = sympy.fraction(sympy.cancel(sympy.together(sym_z(net))))
            num, den = sympy.Poly(num, s, domain="QQ"), sympy.Poly(den, s, domain="QQ")
            lead = den.LC()
            expected = RationalFn(
                Poly(ascending(num.quo_ground(lead))), Poly(ascending(den.monic()))
            )
            z = impedance(net)
            assert z.num.coeffs == expected.num.coeffs, net
            assert z.den.coeffs == expected.den.coeffs, net


def test_float_impedance_coeffs_match_exact():
    # on float-representable values the float builder's unreduced
    # coefficients agree with the exact ones to rounding (the fitter's
    # compiled residual is checked against this float path)
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(10):
            net = _random_net(rng, n)
            floats = [rng.uniform(1e-3, 1e3) for _ in leaves(net)]
            exact = impedance_coeffs(net, [F(v) for v in floats])
            inexact = impedance_coeffs(net, floats)
            for xs, ys in zip(exact, inexact):
                assert len(xs) == len(ys)
                for x, y in zip(xs, ys):
                    assert isinstance(y, float)
                    assert abs(F(y) - x) <= F(1, 10**12) * abs(x), net


def test_impedance_of_int_values_is_exact():
    # plain ints are exact scalars; their unit v / v must not turn into 1.0
    z = impedance(series(Leaf("R", 5), Leaf("L", 2)))
    assert z.num == Poly([F(5), F(2)]) and z.den == Poly([F(1)])
    z = impedance(parallel(Leaf("R", 5), Leaf("L", 2)))
    assert z.num == Poly([F(0), F(5)]) and z.den == Poly([F(5, 2), 1])
    for c in z.num.coeffs + z.den.coeffs:
        assert isinstance(c, Fraction)


def test_impedance_takes_one_field_for_mixed_values():
    # ints beside a QuadraticRational stay exact; one mpf makes every leaf mpf
    q = QuadraticRational(1, 1, 2)
    z = impedance(series(Leaf("R", 2), Leaf("R", q), Leaf("L", 3)))
    assert z.num == Poly([QuadraticRational(3, 1, 2), F(3)]) and z.den == Poly([F(1)])
    with mp.workprec(128):
        z = impedance(parallel(Leaf("R", 5), Leaf("L", mpf(2))))
        assert all(isinstance(c, mpf) for c in z.num.coeffs + z.den.coeffs)
        assert z.den.coeffs[0] == mpf(5) / 2


# ---------------------------------------------------------------------------
# transforms


def test_dual_example():
    net = series(R(2), L(3))
    dual = apply_transform(net, "dual")
    assert dual == parallel(Leaf("R", F(1, 2)), Leaf("C", F(3)))
    assert impedance(dual) == RF((1,), (2, 3))


def test_inv_example():
    net = series(R(1), L(2))
    inv = apply_transform(net, "inv")
    assert inv == series(R(1), Leaf("C", F(1, 2)))
    # Z_inv(s) = Z(1/s) cleared of powers of s
    assert impedance(inv) == impedance(net).substitute_inverse()


def test_gdu_leaf():
    assert apply_transform(Leaf("L", F(4)), "gdu") == Leaf("L", F(1, 4))


def _random_net(rng: random.Random, n_elements: int):
    kinds = ["R", "L", "C"]
    leaves_pool = [
        Leaf(rng.choice(kinds), F(rng.randint(1, 12), rng.randint(1, 12)))
        for _ in range(n_elements)
    ]

    def build(items):
        if len(items) == 1:
            return items[0]
        k = rng.randint(1, len(items) - 1)
        left, right = build(items[:k]), build(items[k:])
        return series(left, right) if rng.random() < 0.5 else parallel(left, right)

    return canonical(build(leaves_pool))


def test_canonical_formats_each_leaf_value_once(monkeypatch):
    # the sort keys are built bottom-up from the children's keys: one
    # decimal_str per irrational leaf, however deep the nesting
    import biquadrlc.ratpoly as ratpoly

    formatted = []
    real = ratpoly.decimal_str
    monkeypatch.setattr(ratpoly, "decimal_str", lambda x, *args: formatted.append(x) or real(x, *args))
    a, b, c, d, e = (QuadraticRational(k, 1, 2) for k in range(1, 6))
    net = Series((Leaf("L", a), Parallel((Series((Leaf("C", b), Series((Leaf("R", c),)))),
                                           Series((Parallel((Leaf("R", d), Leaf("L", e))), Leaf("R", F(1))))))))
    got = canonical(net)
    assert len(formatted) == 5
    inner = Parallel((Leaf("R", d), Leaf("L", e)))
    assert got == Series((Leaf("L", a), Parallel((Series((Leaf("R", F(1)), inner)),
                                                  Series((Leaf("R", c), Leaf("C", b)))))))
    assert canonical(got) == got


def test_parsing_a_netlist_formats_each_leaf_value_once(monkeypatch):
    # the parser builds the raw tree and canonicalizes it once: one
    # scalar_to_str per leaf, where canonicalizing every level took 21 for
    # fig3a's seven leaves
    import biquadrlc.network as network

    net = build_config("fig3a", {name: Fraction(i + 1, 7) for i, (name, _) in enumerate(config_slots("fig3a"))})
    data = json.loads(json.dumps(to_netlist_json(net)))
    formatted = []
    real = network.scalar_to_str
    monkeypatch.setattr(network, "scalar_to_str", lambda x: formatted.append(x) or real(x))
    assert from_netlist_json(data) == net
    assert len(formatted) == 7


def _net_strategy():
    leaf = st.builds(
        Leaf,
        st.sampled_from(["R", "L", "C"]),
        st.builds(F, st.integers(1, 12), st.integers(1, 12)),
    )

    def compose(children):
        return st.one_of(
            st.builds(lambda cs: series(*cs), children),
            st.builds(lambda cs: parallel(*cs), children),
        )

    return st.recursive(
        leaf,
        lambda inner: compose(st.lists(inner, min_size=2, max_size=3)),
        max_leaves=6,
    ).map(canonical)


@settings(max_examples=60, deadline=None)
@given(_net_strategy())
def test_transform_identities_property(net):
    z = impedance(net)
    one = RationalFn.constant(F(1))
    assert impedance(apply_transform(net, "dual")) * z == one
    assert impedance(apply_transform(net, "inv")) == z.substitute_inverse()
    assert apply_transform(apply_transform(net, "gdu"), "gdu") == net
    assert from_netlist_json(json.loads(json.dumps(to_netlist_json(net)))) == net


@pytest.mark.parametrize("seed", range(4))
def test_transform_identities_random(seed):
    rng = random.Random(seed)
    for _ in range(25):
        net = _random_net(rng, rng.randint(1, 7))
        z = impedance(net)
        assert impedance(apply_transform(net, "dual")) * z == RationalFn.constant(F(1))
        assert impedance(apply_transform(net, "inv")) == z.substitute_inverse()
        assert impedance(apply_transform(net, "gdu")) * z.substitute_inverse() == RationalFn.constant(F(1))
        for op in ("dual", "inv", "gdu"):
            assert apply_transform(apply_transform(net, op), op) == net
        assert apply_transform(net, "dual") == apply_transform(
            apply_transform(net, "inv"), "gdu"
        )
        assert apply_transform(net, "dual") == apply_transform(
            apply_transform(net, "gdu"), "inv"
        )


# ---------------------------------------------------------------------------
# enumeration


def _count_series_parallel(n: int, kinds: int = 1) -> int:
    """Independent count of two-terminal series-parallel networks whose
    leaves take one of ``kinds`` labels (oracle); kinds = 1 counts shapes."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rooted(n):
        # number of shapes with n edges whose root is a fixed type (series
        # or parallel, by symmetry), children being leaves or the other type
        if n == 1:
            return 0
        return multisets_of_children(n)

    @lru_cache(maxsize=None)
    def non_rooted(n):
        # leaf or rooted-at-the-other-type
        return kinds if n == 1 else rooted(n)

    def multisets_of_children(n):
        # number of multisets of >= 2 "non-rooted" shapes with sizes summing
        # to n, via a partition-style DP over piece sizes
        from math import comb

        @lru_cache(maxsize=None)
        def ways(remaining, max_size, parts):
            if remaining == 0:
                return 1 if parts >= 2 else 0
            if max_size == 0:
                return 0
            total = ways(remaining, max_size - 1, parts)
            m = non_rooted(max_size)
            k = 1
            while max_size * k <= remaining:
                total += comb(m + k - 1, k) * ways(
                    remaining - max_size * k, max_size - 1, parts + k
                )
                k += 1
            return total

        return ways(n, n - 1, 0)

    if n == 1:
        return kinds
    return 2 * rooted(n)


def test_enumerate_topology_counts():
    # OEIS A000084
    expected = {1: 1, 2: 2, 3: 4, 4: 10, 5: 24, 6: 66, 7: 180, 8: 522}
    for n, count in expected.items():
        shapes = enumerate_topologies(n)
        assert len(shapes) == count
        assert len({canonical_key(s) for s in shapes}) == count
        for s in shapes:
            assert element_count(s) == n


def test_enumerate_topology_counts_match_independent_oracle():
    for n in range(1, 9):
        assert len(enumerate_topologies(n)) == _count_series_parallel(n)


def test_enumerate_labeled_counts_match_independent_oracle():
    counts = [len(enumerate_labeled(n)) for n in range(1, 6)]
    assert counts == [3, 12, 56, 312, 1896]
    assert counts == [_count_series_parallel(n, kinds=3) for n in range(1, 6)]


def test_enumerate_labeled_is_sorted_without_duplicates():
    for n in range(1, 6):
        keys = [canonical_key(net) for net in enumerate_labeled(n)]
        assert keys == sorted(set(keys))


def test_enumerate_topologies_range():
    with pytest.raises(ValueError):
        enumerate_topologies(0)
    with pytest.raises(ValueError):
        enumerate_topologies(9)


def test_enumerate_labeled_single_element():
    assert len(enumerate_labeled(1)) == 3


def test_enumerate_labeled_cutset_filter_two_elements():
    survivors = enumerate_labeled(2, ["cutset"])
    keys = {canonical_key(s) for s in survivors}
    # all-C series pair has a single-element all-C cut
    assert canonical_key(series(Leaf("C"), Leaf("C"))) not in keys
    # the mixed series pair still has the singleton all-L cut {L}
    assert canonical_key(series(Leaf("L"), Leaf("C"))) not in keys
    # mixed parallel pair: its only minimal cut {L, C} spans both kinds
    assert canonical_key(parallel(Leaf("L"), Leaf("C"))) in keys
    assert canonical_key(parallel(Leaf("C"), Leaf("C"))) not in keys


def test_parse_filters_takes_counts_in_plain_digits_only():
    (name, pred), = parse_filters([" min-resistors=2 "])
    assert name == "min-resistors=2"
    assert pred(series(Leaf("R"), Leaf("R"), Leaf("C"))) and not pred(series(Leaf("R"), Leaf("C")))
    assert [name for name, _ in parse_filters(["reactive-count=0", "reactive-count=10"])] == [
        "reactive-count=0", "reactive-count=10"
    ]
    for spec in ("min-resistors=-1", "min-resistors=+2", "reactive-count=1_0", "reactive-count=x",
                 "reactive-count=", "min-resistors=1.5", "min-resistors=\u0662"):
        with pytest.raises(ValueError, match="plain digits") as info:
            parse_filters([spec])
        assert repr(spec) in str(info.value)
    with pytest.raises(ValueError, match="unknown filter"):
        parse_filters(["max-resistors=1"])


def test_enumerate_labeled_pins_two_reactive_three_element_catalog():
    got = enumerate_labeled(
        3,
        ["cutset", "reactive-arm", "mergeable", "reactive-count=2", "min-resistors=1"],
    )
    expected = {
        canonical_key(parallel(Leaf("R"), Leaf("L"), Leaf("C"))),
        canonical_key(parallel(Leaf("R"), series(Leaf("L"), Leaf("C")))),
        canonical_key(parallel(Leaf("L"), series(Leaf("R"), Leaf("C")))),
        canonical_key(parallel(Leaf("C"), series(Leaf("R"), Leaf("L")))),
    }
    assert {canonical_key(s) for s in got} == expected


# ---------------------------------------------------------------------------
# structural rules


def _powerset_cutset_violation(net) -> bool:
    """Reference for violates_cutset_rule: search every all-L and all-C leaf
    subset for a minimal terminal-separating cut."""
    import itertools

    lfs = leaves(net)

    def connected(n, removed, counter) -> bool:
        # leaves are numbered depth first, as in ``leaves``
        if isinstance(n, Leaf):
            counter[0] += 1
            return counter[0] - 1 not in removed
        arms = [connected(c, removed, counter) for c in n.children]
        return all(arms) if isinstance(n, Series) else any(arms)

    def separates(removed) -> bool:
        return not connected(net, removed, [0])

    for kind in ("L", "C"):
        positions = [i for i, lf in enumerate(lfs) if lf.kind == kind]
        for r in range(1, len(positions) + 1):
            for combo in itertools.combinations(positions, r):
                cut = frozenset(combo)
                if separates(cut) and not any(separates(cut - {x}) for x in cut):
                    return True
    return False


def test_cutset_rule_matches_powerset_search_on_every_small_network():
    for n in range(1, 6):
        for net in enumerate_labeled(n):
            assert violates_cutset_rule(net) == _powerset_cutset_violation(net), net


def test_cutset_rule_beyond_twelve_elements():
    # one L from each of six parallel LC arms is an all-L minimal cut; a
    # parallel R puts a resistor in every cut
    arms = [series(L(1), C(1)) for _ in range(6)]
    for net, expected in ((series(R(1), parallel(*arms)), True), (parallel(R(1), *arms), False)):
        assert element_count(net) == 13
        assert violates_cutset_rule(net) is expected
        assert _powerset_cutset_violation(net) is expected


def test_cutset_examples():
    assert violates_cutset_rule(series(C(1), R(1))) is True
    assert violates_cutset_rule(series(R(1), parallel(L(1), C(1)))) is False
    assert violates_cutset_rule(Leaf("R", F(1))) is False


def test_cutset_two_element_reactive_cut():
    # parallel(L, L): the minimal cut {L, L} is all-L
    assert violates_cutset_rule(parallel(L(1), L(2))) is True
    assert violates_cutset_rule(parallel(L(1), C(2))) is False


def test_reactive_series_arm_examples():
    assert has_pure_reactive_series_arm(series(L(1), R(1))) is True
    assert has_pure_reactive_series_arm(parallel(L(1), R(1))) is False
    assert has_pure_reactive_series_arm(series(parallel(L(1), C(2)), R(1))) is True


def test_path_rule_and_parallel_branch_examples():
    assert violates_path_rule(parallel(L(1), R(1))) is True
    assert violates_path_rule(series(L(1), R(1))) is False
    assert violates_path_rule(series(L(1), L(2))) is True
    assert violates_path_rule(series(L(1), C(2))) is False
    assert violates_path_rule(parallel(R(1), series(L(1), parallel(L(2), C(1))))) is True
    assert has_pure_reactive_parallel_branch(parallel(L(1), R(1))) is True
    assert has_pure_reactive_parallel_branch(series(L(1), R(1))) is False
    assert has_pure_reactive_parallel_branch(parallel(series(L(1), C(2)), R(1))) is True


_DUAL_RULES = [
    # (rule, its dual rule): the dual rule holds of X iff the rule holds of dual(X)
    (violates_cutset_rule, violates_path_rule),
    (violates_path_rule, violates_cutset_rule),
    (has_pure_reactive_series_arm, has_pure_reactive_parallel_branch),
    (has_pure_reactive_parallel_branch, has_pure_reactive_series_arm),
]


def test_dual_rules_are_the_rules_of_the_dual_network():
    # over every labeling up to five elements; inv keeps every rule, so the
    # rules are closed under inv, dual and gdu
    for n in range(1, 6):
        for net in enumerate_labeled(n):
            dual, inv = apply_transform(net, "dual"), apply_transform(net, "inv")
            for rule, dual_rule in _DUAL_RULES:
                assert dual_rule(net) == rule(dual), (rule.__name__, net)
                assert rule(inv) == rule(net), (rule.__name__, net)
            # inv keeps series and parallel, so it keeps twins too
            assert has_twin(inv) == has_twin(net), net


def test_mergeable_siblings():
    assert has_mergeable_siblings(parallel(R(1), series(L(1), L(2)))) is True
    assert has_mergeable_siblings(parallel(R(1), series(L(1), C(2)))) is False


def test_twin_examples():
    assert has_twin(parallel(R(1), series(R(2), L(1)))) is True
    assert has_twin(parallel(L(1), series(R(2), L(2)))) is True  # A = L, B = R
    assert has_twin(series(R(1), parallel(R(2), L(1)))) is False  # the twin that is kept
    assert has_twin(parallel(C(1), series(R(2), L(1)))) is False  # no leaf of either kind beside it
    assert has_twin(parallel(R(1), series(R(2), R(3)))) is False  # one kind: mergeable, no twin
    assert has_twin(parallel(R(1), series(R(2), L(1), C(1)))) is False  # three elements in series
    assert has_twin(parallel(R(1), series(R(2), parallel(R(3), L(1))))) is False
    # | is associative: a branch beside the pair does not hide it, nor does
    # a series node above it
    assert has_twin(parallel(R(1), C(1), series(R(2), L(1)))) is True
    assert has_twin(series(C(2), parallel(R(1), series(R(2), L(1))))) is True


def _twin_impedances(sympy, a, b):
    """Z(s) of A | (A + B) and of A + (A | B) in the scales of their
    elements, the factor of 1, s or 1/s in an element's impedance: the
    value of an R or an L, the reciprocal of the value of a C.  A scale is
    positive exactly when its value is."""
    s = sympy.Symbol("s")
    unit = {"R": 1, "L": s, "C": 1 / s}

    def foster(a1, a2, b1):
        return 1 / (1 / (a1 * unit[a]) + 1 / (a2 * unit[a] + b1 * unit[b]))

    def cauer(a3, a4, b2):
        return a3 * unit[a] + 1 / (1 / (a4 * unit[a]) + 1 / (b2 * unit[b]))

    return foster, cauer


@pytest.mark.parametrize("a, b", [(a, b) for a in "RLC" for b in "RLC" if a != b])
def test_twin_forms_realize_the_same_impedances(a, b):
    # positive values of A | (A + B) map to positive values of A + (A | B)
    # with the same Z(s), and back: the two have one set of impedances
    sympy = pytest.importorskip("sympy")
    assert has_twin(parallel(Leaf(a), series(Leaf(a), Leaf(b))))
    assert not has_twin(series(Leaf(a), parallel(Leaf(a), Leaf(b))))
    foster, cauer = _twin_impedances(sympy, a, b)
    x, y, w = sympy.symbols("x y w", positive=True)
    to_cauer = (x * y / (x + y), x**2 / (x + y), w * x**2 / (x + y) ** 2)
    to_foster = (x + y, x * (x + y) / y, w * (x + y) ** 2 / y**2)
    for scale in to_cauer + to_foster:
        assert scale.is_positive
    for z, image in ((foster(x, y, w), cauer(*to_cauer)), (cauer(x, y, w), foster(*to_foster))):
        assert sympy.expand(sympy.together(z - image).as_numer_denom()[0]) == 0


# ---------------------------------------------------------------------------
# catalog


def test_catalog_fig8a_formula():
    vals = {"R1": F(3), "L1": F(2), "C1": F(5)}
    net = build_config("fig8a", vals)
    assert impedance(net) == RF((0, 6), (3, 2, 30))
    assert impedance(net) == config_formula("fig8a", vals)


def test_catalog_fig8b_formula():
    vals = {"R1": F(1), "L1": F(1), "C1": F(1)}
    net = build_config("fig8b", vals)
    assert impedance(net) == RF((1, 0, 1), (1, 1, 1))


def test_catalog_every_config_matches_formula_at_random_rationals():
    rng = random.Random(11)
    for cid in config_ids():
        for _ in range(3):
            vals = {
                name: F(rng.randint(1, 9), rng.randint(1, 5))
                for name, _ in config_slots(cid)
            }
            assert impedance(build_config(cid, vals)) == config_formula(cid, vals)


def test_catalog_every_config_matches_formula_symbolically():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    def sym_impedance(net, symbols):
        if isinstance(net, Leaf):
            v = symbols[id(net)]
            if net.kind == "R":
                return v
            if net.kind == "L":
                return v * s
            return 1 / (v * s)
        if isinstance(net, Series):
            return sum(sym_impedance(c, symbols) for c in net.children)
        return 1 / sum(1 / sym_impedance(c, symbols) for c in net.children)

    for cid in config_ids():
        slots = config_slots(cid)
        syms = {name: sympy.Symbol(name, positive=True) for name, _ in slots}
        # give every leaf a distinct value marker so the tree maps onto slots
        markers = {name: F(p) for name, p in zip(syms, _primes(len(syms)))}
        net = build_config(cid, markers)
        table = {}
        used = set()
        for lf in _walk_leaves(net):
            for name, marker in markers.items():
                if lf.value == marker and name not in used:
                    table[id(lf)] = syms[name]
                    used.add(name)
                    break
        z_net = sym_impedance(net, table)
        formula = config_formula(cid, markers)
        # rebuild the formula symbolically from its rational-value transcript
        z_formula = _formula_to_sympy(cid, syms, sympy, s)
        assert sympy.simplify(sympy.cancel(z_net - z_formula)) == 0, cid


def _primes(k):
    ps, x = [], 2
    while len(ps) < k:
        if all(x % p for p in ps):
            ps.append(x)
        x += 1
    return ps


def _walk_leaves(net):
    if isinstance(net, Leaf):
        yield net
        return
    for c in net.children:
        yield from _walk_leaves(c)


def _formula_to_sympy(cid, syms, sympy, s):
    formula = config_formula(cid, syms)
    num = sum(c * s**i for i, c in enumerate(formula.num.coeffs))
    den = sum(c * s**i for i, c in enumerate(formula.den.coeffs))
    return num / den


def test_catalog_reactive_counts():
    assert reactive_count(config_template("fig3a")) == 4
    assert reactive_count(config_template("fig4a")) == 5
    assert reactive_count(config_template("fig5a")) == 5
    for cid in ("fig3a", "fig4a", "fig5a"):
        tpl = config_template(cid)
        assert element_count(tpl) == 7


def test_catalog_aliases_and_errors():
    assert config_slots("n4a") == config_slots("fig4a")
    with pytest.raises(KeyError):
        build_config("fig99", {})
    with pytest.raises(ValueError):
        build_config("fig8a", {"R1": F(1), "L1": F(1)})
    with pytest.raises(ValueError):
        build_config("fig8a", {"R1": F(1), "L1": F(1), "C1": F(0)})


# ---------------------------------------------------------------------------
# serialization


def test_netlist_json_roundtrip():
    net = series(R(1), parallel(L(F(1, 3)), C(2)))
    data = to_netlist_json(net)
    assert data["type"] == "series"
    assert from_netlist_json(json.loads(json.dumps(data))) == net


def test_spice_export():
    net = series(R(1), parallel(L(2), C(3)))
    text = to_spice(net)
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["R1", "1", "2", "1"]
    nodes = {tuple(ln.split()[1:3]) for ln in lines[1:]}
    assert nodes == {("2", "0")}


def test_spice_export_nested_series_chain():
    net = series(R(1), series(L(2), C(3)))  # flattens to a 3-element chain
    lines = to_spice(net).strip().splitlines()
    assert len(lines) == 3
    hops = [tuple(ln.split()[1:3]) for ln in lines]
    # a single path 1 -> 2 -> 3 -> 0 in some canonical order
    assert sorted(hops) == sorted([("1", "2"), ("2", "3"), ("3", "0")])
    # per-kind counters give unique names
    names = [ln.split()[0] for ln in lines]
    assert len(set(names)) == 3


def test_netlist_json_template_roundtrip():
    tpl = config_template("fig8b")
    data = to_netlist_json(tpl)
    assert from_netlist_json(data) == tpl


def test_netlist_json_unlabeled_shapes_roundtrip():
    for shape in enumerate_topologies(4):
        assert from_netlist_json(json.loads(json.dumps(to_netlist_json(shape)))) == shape

