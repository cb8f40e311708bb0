"""Seeded workloads.

Each workload turns its seed into an endless, deterministic stream of
operations.  An operation is prepared outside the clock, timed while it
calls the program through its public API (or its CLI), and checked with
``oracle`` afterwards, outside the clock.  The program receives only the
generated inputs.  Operation kinds are drawn in fixed cycles, shuffled
within each cycle, and runs end at a cycle boundary, so every run has the
same mix whatever its seed and length.

The mixes are not measured from any user's traffic; none exists.  Each
cycle holds every kind of operation once (a kind listed twice has two
variants, one per slot), and every option a generator draws is drawn with
equal odds, except where a class docstring states another weight and why.
Runs report latency per kind, so no conclusion has to rest on the mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction

from mpmath import mp, mpf

import oracle

CLI_TIMEOUT_S = 60


class Op:
    """One operation: ``run()`` is timed, ``check(output)`` is not."""

    __slots__ = ("kind", "run", "check", "meta")

    def __init__(self, kind, run, check, **meta):
        self.kind, self.run, self.check, self.meta = kind, run, check, meta


def rational(x, den=10**4):
    """A short exact decimal near x (never zero)."""
    return max(Fraction(round(x * den), den), Fraction(1, den))


def decimal_str(x: Fraction):
    """Exact decimal spelling of x, or None when x has no finite one."""
    scale = 0
    while (10**scale) % x.denominator:
        if scale > 2 * x.denominator.bit_length():  # a prime other than 2, 5
            return None
        scale += 1
    digits = str(abs(x.numerator) * 10**scale // x.denominator).rjust(scale + 1, "0")
    text = digits if not scale else digits[:-scale] + "." + digits[-scale:]
    return ("-" if x < 0 else "") + text


def scalar_arg(rng, x: Fraction) -> str:
    """The CLI parses 'n/d' and decimals exactly; use both spellings."""
    text = decimal_str(x)
    return text if text is not None and rng.random() < 0.5 else str(x)


class Workload:
    name = ""
    cycle = ()  # operation kinds drawn per cycle
    op_timeout_s = 60.0  # far above any operation that terminates

    def __init__(self, seed, mods):
        self.seed = seed
        self.m = mods
        self.counts = Counter()

    def make(self, kind, rng, slot):
        """An operation of ``kind``; ``slot`` counts the earlier operations
        of the same kind in this cycle and picks the variant."""
        return getattr(self, "make_" + kind.replace("-", "_"))(rng, slot)

    def cycles(self):
        """The workload's operations, one cycle (a list) at a time; the same
        seed gives the same stream, so a traced pass can replay an untraced
        one.  Runs consist of whole cycles, so every run has the same mix."""
        rng = random.Random("%s:%d" % (self.name, self.seed))
        while True:
            kinds = list(self.cycle)
            rng.shuffle(kinds)
            seen = Counter()
            cycle = []
            for kind in kinds:
                cycle.append(self.make(kind, rng, seen[kind]))
                seen[kind] += 1
            yield cycle

    def warm_up_ops(self):
        """One operation of each kind, from a seed no run uses."""
        rng = random.Random("%s:warm-up" % self.name)
        return [self.make(kind, rng, 0) for kind in sorted(set(self.cycle))]

    def observe(self, op, output):
        """Count the workload properties a later claim may cite."""
        self.counts["op." + op.kind] += 1

    def properties(self):
        done = sum(v for k, v in self.counts.items() if k.startswith("op."))
        props = {"operations": done}
        for key, value in sorted(self.counts.items()):
            props[key] = value
            if key.startswith(("op.", "class.", "cmd.")) and done:
                props[key + ".share"] = value / done
        return props

    def defect_probes(self):
        """Operations on inputs of known defects, run after the timed phase
        and reported apart from it."""
        return []

    def known_defect(self, op, output, reason):
        """The known defect a failure is an instance of, or None.  Known are
        the defects of ROADMAP open item 3 and those this benchmark found
        when it was defined (recorded in CHANGES.md)."""
        return None


# ---------------------------------------------------------------------------
# target generators shared by classify-sweep and cli-session


def fig3a_eta(rng):
    """eta inside the fig3a region (3, 5.334...), away from its ends."""
    return rational(oracle.log_uniform(rng, 3.05, 5.2))


def sweep_eta(rng):
    """eta = p/z log-uniform over [0.1, 10]: reaches NotPositiveReal, Five,
    the fig3a region and its eta -> 1/eta image, and UnknownWithinScope."""
    eta = rational(oracle.log_uniform(rng, 0.1, 10.0))
    return eta if eta != 1 else Fraction(11, 10)


def boundary_eta(rng):
    """Exactly 3 or 1/3, or an exact rational within 1e-30 of either."""
    base = Fraction(3) if rng.random() < 0.5 else Fraction(1, 3)
    if rng.random() < 0.5:
        return base
    offset = Fraction(rng.randint(1, 9), 10 ** rng.randint(30, 40))
    return base + offset if rng.random() < 0.5 else base - offset


def random_tree(rng, n_elements):
    """A random series-parallel network with small rational values."""
    pool = [
        (rng.choice("RLC"), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(n_elements)
    ]

    def build(items):
        if len(items) == 1:
            return items[0]
        cut = rng.randint(1, len(items) - 1)
        tag = "series" if rng.random() < 0.5 else "parallel"
        return (tag, [build(items[:cut]), build(items[cut:])])

    return build(pool)


def exact_impedance(tree):
    """Unreduced (num, den) Fraction coefficients of a rational network."""
    tag, body = tree
    if tag == "R":
        return [body], [Fraction(1)]
    if tag == "L":
        return [Fraction(0), body], [Fraction(1)]
    if tag == "C":
        return [Fraction(1)], [Fraction(0), body]
    num, den = exact_impedance(body[0])
    for child in body[1:]:
        n2, d2 = exact_impedance(child)
        if tag == "series":
            num, den = _add(oracle.poly_mul(num, d2), oracle.poly_mul(n2, den)), oracle.poly_mul(den, d2)
        else:
            num, den = oracle.poly_mul(num, n2), _add(oracle.poly_mul(num, d2), oracle.poly_mul(n2, den))
    return num, den


def _add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def random_root_problem(rng):
    """An integer polynomial with known distinct real roots (some repeated),
    half the time times an irreducible quadratic, and a half-open window
    (lo, hi]."""
    roots = set()
    while len(roots) < rng.randint(2, 4):
        roots.add(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
    coeffs = [1]
    for r in roots:
        for _ in range(rng.choice((1, 2))):
            coeffs = oracle.poly_mul(coeffs, [-r.numerator, r.denominator])
    if rng.random() < 0.5:
        coeffs = oracle.poly_mul(coeffs, [rng.randint(1, 9), 0, 1])
    while True:
        lo, hi = sorted(Fraction(rng.randint(-300, 300), 100) for _ in range(2))
        if lo < hi and lo not in roots:
            return coeffs, sorted(roots), lo, hi


# ---------------------------------------------------------------------------
# classify-sweep


class ClassifySweep(Workload):
    """Warm in-process batch sweep: one operation is realize.classify of one
    target at the default 256 bits.

    Weights (an assumption): 40 of every 50 targets are generic sweep
    points, as in a design sweep over (k, z, p); the other 10 are probe
    inputs at the decision boundaries (4), on the irrational loci (3) and
    on the eta -> 1/eta image of the catalog (3), enough to reach every
    branch in each cycle without letting the locus targets, some of which
    hang until the operation timeout, dominate the run's time."""

    name = "classify-sweep"
    cycle = ("sweep",) * 40 + ("boundary",) * 4 + ("locus",) * 3 + ("closure",) * 3
    # a terminating classify takes under 10 ms; some mpf n5a targets never
    # return (see known_defect), and each costs this much wall time
    op_timeout_s = 0.5

    def __init__(self, seed, mods):
        super().__init__(seed, mods)
        # midpoints of exact isolating intervals (width 1e-30) for the two
        # irrational five-reactive loci, checked here so a bad interval
        # cannot pass as a classification failure
        self.loci = {}
        for name, fn, poly in (
            ("n4a", mods.realize.n4a_root_interval, oracle.N4A_LOCUS),
            ("n5a", mods.realize.n5a_root_interval, oracle.N5A_LOCUS),
        ):
            width = Fraction(1, 10**30)
            interval = fn(width)
            problem = oracle.check_locus_interval(interval, width, poly)
            if problem:
                raise RuntimeError("%s interval: %s" % (name, problem))
            self.loci[name] = sum(interval) / 2

    def _classify(self, rng, eta, kind, locus=None, mid=None):
        m = self.m
        k = rational(oracle.log_uniform(rng, 0.2, 5.0))
        z = rational(oracle.log_uniform(rng, 0.2, 5.0))
        if mid is None:
            b = m.biquad.CanonicalBiquad(k, z, z * eta)
            expected = oracle.expected_class(eta)
        else:
            with mp.workprec(256):
                mid_f = mpf(mid.numerator) / mid.denominator
                p = oracle.to_mpf(z) * (1 / mid_f if ":" in locus else mid_f)
                b = m.biquad.CanonicalBiquad(oracle.to_mpf(k), oracle.to_mpf(z), p)
            with mp.workdps(oracle.CHECK_DPS):
                expected = oracle.expected_class(p / oracle.to_mpf(z), locus)
            eta = None

        def check(report):
            got = (report.klass.value, report.config, report.transform)
            if got != expected:
                return "classified %s, expected %s" % ("/".join(map(str, got)), "/".join(map(str, expected)))
            if got[0] == oracle.CATALOG:
                if report.network is None:
                    return "catalog hit without a network"
                return oracle.check_tree(oracle.tree_from_spnet(report.network), b.k, b.z, b.p, 7)
            if report.network is not None:
                return "network returned for class %s" % got[0]
            return None

        return Op(kind, lambda: m.realize.classify(b), check, eta=eta, locus=locus)

    def make_sweep(self, rng, _):
        return self._classify(rng, sweep_eta(rng), "sweep")

    def make_boundary(self, rng, _):
        return self._classify(rng, boundary_eta(rng), "boundary")

    def make_closure(self, rng, _):
        return self._classify(rng, 1 / fig3a_eta(rng), "closure")

    def make_locus(self, rng, _):
        name = rng.choice(("n4a", "n5a"))
        locus = name + (":inv" if rng.random() < 0.5 else "")
        return self._classify(rng, None, "locus", locus=locus, mid=self.loci[name])

    def observe(self, op, output):
        super().observe(op, output)
        if output is not None:
            self.counts["class." + output.klass.value] += 1
            self.counts["synthesized"] += output.network is not None
        else:
            self.counts["class.none"] += 1

    def properties(self):
        props = super().properties()
        props["catalog_hit_share"] = props.get("synthesized", 0) / max(props["operations"], 1)
        return props

    def known_defect(self, op, output, reason):
        if output is not None and output.klass.value == oracle.FOUR and oracle.false_four_element(op.meta["eta"]):
            return "false-four-element"
        locus = op.meta["locus"] or ""
        # classify maps an mpf target through the transform outside its
        # working precision, so the transformed n4a/n5a synthesis sees a
        # 53-bit eta: it misses the 1e-20 locus band, or, when it lands in
        # it, synthesizes a network that fails the 1e-20 verification
        if ":" in locus and reason.startswith(
            ("uncaught NotRealizableError", "timeout", "uncaught RuntimeError: synthesized network failed verification")
        ):
            return "mpf-transform-precision"
        if not reason.startswith(("uncaught NotRealizableError", "timeout")):
            return None
        # the Euclidean chain in realize._common_root runs on rounded mpf
        # coefficients: it can degenerate, or never drop a degree and loop
        if locus == "n5a":
            return "mpf-common-root"
        return None


# ---------------------------------------------------------------------------
# exact-algebra


class ExactAlgebra(Workload):
    """Warm in-process exact path: Fraction gcd, Bareiss, Sturm, quadratic
    extension arithmetic and exact network impedance.  Each kind once per
    cycle; the resultant once for each of the two p1 systems."""

    name = "exact-algebra"
    cycle = ("synth", "identities", "n4a-interval", "n5a-interval", "resultant", "resultant", "sturm")

    def make_synth(self, rng, _):
        m = self.m
        k = rational(oracle.log_uniform(rng, 0.2, 5.0), 100)
        z = rational(oracle.log_uniform(rng, 0.2, 5.0), 100)
        p = z * rational(oracle.log_uniform(rng, 3.05, 5.2), 100)
        b = m.biquad.CanonicalBiquad(k, z, p)

        def run():
            net = m.realize.synth_fig3a(b, exact=True)
            return net, m.verify.verify_exact(net, m.biquad.to_rational_fn(b))

        def check(out):
            net, ok = out
            if not ok:
                return "verify_exact rejected the exact synthesis"
            tree = oracle.tree_from_spnet(net)
            if any(isinstance(v, (float, mpf)) for _, v in oracle.tree_leaves(tree)):
                return "exact synthesis returned inexact values"
            return oracle.check_tree(tree, k, z, p, 7)

        return Op("synth", run, check)

    def make_identities(self, rng, _):
        m = self.m
        tree = random_tree(rng, rng.randint(1, 7))
        net = _to_spnet(m.network, tree)

        def run():
            z = m.network.impedance(net)
            out = []
            for t in ("inv", "dual", "gdu"):
                image = m.network.apply_transform(net, t)
                out.append((t, image, m.network.impedance(image)))
            return z, out

        def check(result):
            z, images = result
            problem = _check_exact_fn(z, tree)
            for t, image, zt in images:
                image_tree = oracle.tree_from_spnet(image)
                problem = (
                    problem
                    or oracle.check_transform(
                        t,
                        lambda s: oracle.tree_impedance(tree, s),
                        lambda s: oracle.tree_impedance(image_tree, s),
                    )
                    or _check_exact_fn(zt, image_tree)
                )
            return problem

        return Op("identities", run, check)

    def _interval(self, rng, config, locus):
        width = Fraction(1, 10 ** rng.randint(10, 60))
        run = lambda: getattr(self.m.realize, config + "_root_interval")(width)
        return Op(config + "-interval", run, lambda iv: oracle.check_locus_interval(iv, width, locus))

    def make_n4a_interval(self, rng, _):
        return self._interval(rng, "n4a", oracle.N4A_LOCUS)

    def make_n5a_interval(self, rng, _):
        return self._interval(rng, "n5a", oracle.N5A_LOCUS)

    def make_resultant(self, rng, slot):
        m = self.m
        system = m.realize.n4a_p1_system if slot == 0 else m.realize.n5a_p1_system
        points = [
            (Fraction(rng.randint(1, 50), rng.randint(1, 50)), Fraction(rng.randint(1, 50), rng.randint(1, 50)))
            for _ in range(2)
        ]
        Poly = m.ratpoly.Poly
        poly_p = Poly([Poly([Fraction(0), Fraction(1)])])
        poly_z = Poly([Poly.zero(), Poly.constant(Fraction(1))])

        def run():
            f, g = system(poly_z, poly_p)
            return f, g, m.ratpoly.resultant(f, g)

        return Op("resultant", run, lambda out: oracle.check_bivariate_resultant(*out, points))

    def make_sturm(self, rng, _):
        m = self.m
        coeffs, roots, lo, hi = random_root_problem(rng)
        poly = m.ratpoly.Poly([Fraction(c) for c in coeffs])
        width = Fraction(1, 10 ** rng.randint(5, 30))
        expected = oracle.count_roots_in(roots, lo, hi)

        def run():
            count = m.ratpoly.sturm_count(poly, lo, hi)
            return count, (m.ratpoly.isolate_root(poly, lo, hi, width) if count == 1 else None)

        def check(out):
            count, interval = out
            if count != expected:
                return "sturm_count %d, expected %d" % (count, expected)
            if interval is not None:
                root = next(r for r in roots if lo < r <= hi)
                if not (interval[0] <= root <= interval[1] and interval[1] - interval[0] <= width):
                    return "isolating interval misses the root or is too wide"
            return None

        return Op("sturm", run, check)


def _to_spnet(network, tree):
    tag, body = tree
    if tag == "series":
        return network.series(*(_to_spnet(network, c) for c in body))
    if tag == "parallel":
        return network.parallel(*(_to_spnet(network, c) for c in body))
    return network.Leaf(tag, body)


def _check_exact_fn(fn, tree):
    coeffs = list(fn.num.coeffs) + list(fn.den.coeffs)
    if not all(isinstance(c, (int, Fraction)) for c in coeffs):
        return "exact impedance has inexact coefficients"
    return oracle.check_rational_fn(fn.num.coeffs, fn.den.coeffs, tree)


# ---------------------------------------------------------------------------
# falsify


class Falsify(Workload):
    """Warm in-process falsification: float impedance, scipy least_squares
    with finite-difference Jacobians, labeled enumeration and the cut-set
    filter.  Floor problems spend every multistart's budget; success
    problems stop at the first fit.

    Each cycle holds eight floor problems (four with eta above 1, four
    below) and two success problems (eta = 3 and 1/3); a 30-second run is
    one cycle.  The weight is an assumption chosen for steadiness, not
    taken from use: success problems take about twice as long, and with
    equal shares the median fell in the gap between the two paths, where
    it reads the slowest floor and the fastest success problem and spread
    across seeds about twice as much as either path's own median (0.21
    against 0.12 of the median, 10 seeds).  With this weight the median
    follows the floor path; the success path moves ``ops_per_s`` (about
    a third of the time) and its own median, which every run prints."""

    name = "falsify"
    cycle = ("floor",) * 8 + ("success", "success")

    def _problem(self, rng, eta, n_max, stop):
        m = self.m
        k = rational(oracle.log_uniform(rng, 0.5, 2.0), 100)
        z = rational(oracle.log_uniform(rng, 0.5, 2.0), 100)
        p = z * eta

        def run():
            target = m.biquad.to_rational_fn(m.biquad.CanonicalBiquad(k, z, p))
            return m.verify.falsify_small(target, n_max, stop_at_first_success=stop)

        return k, z, p, run

    def make_floor(self, rng, slot):
        # eta in (1/3, 3) bounded away from 1: FiveElement, so no network of
        # at most three elements realizes it
        eta = rational(oracle.log_uniform(rng, 1.4, 2.5), 100)
        eta = eta if slot % 2 == 0 else 1 / eta
        _, _, _, run = self._problem(rng, eta, 3, False)
        return Op("floor", run, oracle.check_floor, eta=eta)

    def make_success(self, rng, slot):
        # eta = 3, then 1/3: FourElement, so a four-element fit exists
        eta = Fraction(3) if slot == 0 else Fraction(1, 3)
        k, z, p, run = self._problem(rng, eta, 4, True)
        return Op("success", run, lambda rep: oracle.check_success(rep, k, z, p, 4), eta=eta)

    def observe(self, op, output):
        super().observe(op, output)
        if output is not None:
            for entry in output["entries"]:
                self.counts["topologies.filtered" if entry["filtered"] else "topologies.fitted"] += 1


# ---------------------------------------------------------------------------
# cli-session


def run_cli_subprocess(argv, env, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "biquadrlc.cli"] + argv,
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(cli, argv):
    """cli.main(argv) with captured streams; an uncaught exception becomes
    what the interpreter would print and return (a traceback, exit 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class CliSession(Workload):
    """One fresh CLI process per command, as a user runs it: each of the
    README's eight commands once per cycle, with its documented options
    drawn with equal odds.

    The timed mix holds only inputs the program gets right, so that two
    runs agree on their failures: ``--precision-bits`` is the default or
    128, and boundary targets are exactly eta = 3 or 1/3.  The inputs of
    the two known CLI defects (ROADMAP open item 3) run as ``defect_probes``
    after the timed phase, off the clock, and are reported apart.
    """

    name = "cli-session"
    cycle = ("classify", "synth", "verify", "impedance", "transform", "roots", "pr-check", "enumerate")

    def __init__(self, seed, mods, invoke):
        super().__init__(seed, mods)
        self.invoke = invoke  # argv -> (exit code, stdout, stderr)

    def _op(self, rng, kind, argv, check, fmt="json", precision=True):
        """``precision``: True draws the default or 128 bits, False keeps
        the default, a number of bits is passed as it is."""
        options = []
        if precision is True:
            prec = 128 if rng.random() < 0.5 else None
        else:
            prec = precision or None
        if prec:
            options += ["--precision-bits", str(prec)]
        if fmt != "json":
            options += ["--format", fmt]
        # global options go before or after the subcommand
        argv = options + argv if rng.random() < 0.5 else argv[:1] + options + argv[1:]

        def checked(result):
            code, out, err = result
            if "Traceback" in err:
                return "traceback (exit %s): %s" % (code, err.strip().splitlines()[-1][:200])
            try:
                return check(code, out, err)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return "unparseable output (exit %s): %r" % (code, exc)

        return Op(kind, lambda: self.invoke(argv), checked, argv=argv, prec=prec, fmt=fmt)

    def make_classify(self, rng, _, eta=None):
        # a sweep point, a boundary point, or the documented p = z error
        if eta is None:
            target = rng.choice(("sweep", "boundary", "p=z"))
            if target == "p=z":
                eta = Fraction(1)
            elif target == "boundary":
                eta = Fraction(3) if rng.random() < 0.5 else Fraction(1, 3)
            else:
                eta = sweep_eta(rng)
        k = rational(oracle.log_uniform(rng, 0.2, 5.0), 100)
        z = rational(oracle.log_uniform(rng, 0.2, 5.0), 100)
        p = z * eta
        fmt = rng.choice(("json", "text"))
        argv = ["classify", "--k", scalar_arg(rng, k), "--z", scalar_arg(rng, z), "--p", scalar_arg(rng, p)]

        def check(code, out, err):
            if eta == 1:
                json.loads(err)["error"]
                return None if code == 2 else "p = z gave exit %d, expected 2" % code
            klass, config, transform = oracle.expected_class(eta)
            if fmt == "text":
                got = out.splitlines()[0].split(": ", 1)[1]
            else:
                data = json.loads(out)
                got = data["class"]
                if got == klass == oracle.CATALOG:
                    if (data["config"], data["transform"]) != (config, transform):
                        return "configuration %s/%s" % (data["config"], data["transform"])
                    problem = oracle.check_tree(oracle.tree_from_json(data["network"]), k, z, p, 7)
                    if problem:
                        return problem
            if got != klass:
                return "classified %s, expected %s" % (got, klass)
            expected_code = oracle.exit_code_for(klass)
            return None if code == expected_code else "exit %d, expected %d" % (code, expected_code)

        op = self._op(rng, "classify", argv, check, fmt)
        op.meta["eta"] = eta
        return op

    def make_synth(self, rng, _, precision=True):
        eta = fig3a_eta(rng)
        direct = rng.random() < 0.5
        eta = eta if direct else 1 / eta
        k = rational(oracle.log_uniform(rng, 0.2, 5.0), 100)
        z = rational(oracle.log_uniform(rng, 0.2, 5.0), 100)
        p = z * eta
        argv = ["synth", "--k", scalar_arg(rng, k), "--z", scalar_arg(rng, z), "--p", scalar_arg(rng, p)]
        if direct and rng.random() < 0.5:
            argv += ["--config", "fig3a"]
        fmt = rng.choice(("json", "spice", "text"))

        def check(code, out, err):
            if code != 0:
                return "exit %d: %s" % (code, (out + err).strip()[:200])
            if fmt == "json":
                data = json.loads(out)
                if data["config"] != "fig3a":
                    return "configuration %s" % data["config"]
                return oracle.check_tree(oracle.tree_from_json(data["netlist"]), k, z, p, 7)
            listing = "\n".join(line for line in out.splitlines() if ": " not in line)
            return oracle.check_spice(listing, k, z, p)

        return self._op(rng, "synth", argv, check, fmt, precision)

    def make_verify(self, rng, _):
        tree = random_tree(rng, rng.randint(1, 7))
        num, den = exact_impedance(tree)
        wrong = rng.random() < 0.5
        if wrong:
            i = rng.choice([i for i, c in enumerate(num) if c])
            num = list(num)
            num[i] *= Fraction(1001, 1000)
        target = {"num": [str(c) for c in num], "den": [str(c) for c in den]}
        argv = ["verify", json.dumps(oracle.tree_to_json(tree)), "--target", json.dumps(target)]

        def check(code, out, err):
            ok = json.loads(out)["ok"]
            if ok == wrong or code != (1 if wrong else 0):
                return "verify said ok=%s (exit %d) for a %s target" % (ok, code, "wrong" if wrong else "matching")
            return None

        return self._op(rng, "verify", argv, check)

    def make_impedance(self, rng, _):
        tree = random_tree(rng, rng.randint(1, 7))
        argv = ["impedance", json.dumps(oracle.tree_to_json(tree))]

        def check(code, out, err):
            data = json.loads(out)
            return oracle.check_rational_fn(data["num"], data["den"], tree) or (
                None if code == 0 else "exit %d" % code
            )

        return self._op(rng, "impedance", argv, check)

    def make_transform(self, rng, _):
        tree = random_tree(rng, rng.randint(1, 7))
        t = rng.choice(("inv", "dual", "gdu"))
        fmt = rng.choice(("json", "spice", "text"))
        argv = ["transform", "--op", t, json.dumps(oracle.tree_to_json(tree))]

        def check(code, out, err):
            if code != 0:
                return "exit %d" % code
            if fmt == "json":
                image = oracle.tree_from_json(json.loads(out)["netlist"])
                transformed = lambda s: oracle.tree_impedance(image, s)
            else:
                transformed = lambda s: oracle.spice_impedance(out, s)[0]
            return oracle.check_transform(t, lambda s: oracle.tree_impedance(tree, s), transformed)

        return self._op(rng, "transform", argv, check, fmt)

    def make_roots(self, rng, _):
        coeffs, roots, lo, hi = random_root_problem(rng)
        width = Fraction(1, 10 ** rng.randint(5, 30))
        expected = oracle.count_roots_in(roots, lo, hi)
        argv = ["roots", "--poly", json.dumps([str(c) for c in coeffs]), "--lo=%s" % lo, "--hi=%s" % hi, "--width", str(width)]

        def check(code, out, err):
            data = json.loads(out)
            if code != 0 or data["count"] != expected:
                return "count %s (exit %d), expected %d" % (data.get("count"), code, expected)
            if expected == 1:
                root = next(r for r in roots if lo < r <= hi)
                ilo, ihi = (Fraction(x) for x in data["interval"])
                if not (ilo <= root <= ihi and ihi - ilo <= width):
                    return "interval [%s, %s] misses root %s" % (ilo, ihi, root)
            return None

        return self._op(rng, "roots", argv, check, precision=False)

    def make_pr_check(self, rng, _):
        eta = sweep_eta(rng)
        z = rational(oracle.log_uniform(rng, 0.2, 5.0), 100)
        target = {"k": "1", "z": str(z), "p": str(z * eta)}
        expected = eta * eta - 6 * eta + 1 <= 0
        argv = ["pr-check", "--target", json.dumps(target)]

        def check(code, out, err):
            got = json.loads(out)["positive_real"]
            if got != expected or code != (0 if expected else 1):
                return "positive_real=%s (exit %d), expected %s" % (got, code, expected)
            return None

        return self._op(rng, "pr-check", argv, check, precision=False)

    def make_enumerate(self, rng, _):
        if rng.random() < 0.5:
            n = rng.randint(1, 4)
            argv = ["enumerate", "--n", str(n)]
            filters = None
        else:
            n = 3
            filters = ["cutset", "reactive-arm", "mergeable"] + rng.choice(([], ["reactive-count=2"], ["min-resistors=1"]))
            argv = ["enumerate", "--n", "3", "--filters", ",".join(filters)]

        def check(code, out, err):
            data = json.loads(out)
            shapes = data["topologies"]
            if code != 0 or data["count"] != len(shapes):
                return "count %s for %d topologies (exit %d)" % (data["count"], len(shapes), code)
            if filters is None:
                expected = oracle.UNLABELED_SP_COUNTS[n]
                return None if len(shapes) == expected else "%d shapes, expected %d" % (len(shapes), expected)
            if len({json.dumps(s, sort_keys=True) for s in shapes}) != len(shapes):
                return "duplicate labelings"
            for shape in shapes:
                kinds = [kind for kind, _ in oracle.tree_leaves(oracle.tree_from_json(shape))]
                reactive = sum(1 for kind in kinds if kind in "LC")
                if len(kinds) != n or ("reactive-count=2" in filters and reactive != 2):
                    return "labeling violates its filters: %s" % kinds
                if "min-resistors=1" in filters and "R" not in kinds:
                    return "labeling violates min-resistors=1: %s" % kinds
            return None

        return self._op(rng, "enumerate", argv, check, precision=False)

    def observe(self, op, output):
        super().observe(op, output)
        if op.meta.get("prec"):
            self.counts["cmd.precision-bits-%d" % op.meta["prec"]] += 1
        self.counts["cmd.format-" + op.meta["fmt"]] += 1

    def defect_probes(self):
        """One operation on the input of each known CLI defect, from the
        run's seed: classify just off eta = 3 and 1/3 (a false FourElement)
        and synth at ``--precision-bits 64`` (fails its own verification)."""
        rng = random.Random("%s:%d:probes" % (self.name, self.seed))
        return [
            self.make_classify(rng, 0, eta=Fraction(3) + Fraction(1, 10**25)),
            self.make_classify(rng, 0, eta=Fraction(1, 3) - Fraction(1, 10**35)),
            self.make_synth(rng, 0, precision=64),
        ]

    def known_defect(self, op, output, reason):
        if output is None:
            return None
        code, out, err = output
        if op.meta.get("prec") == 64 and ("failed verification" in err or "verification failed" in out):
            return "precision-64-verification"
        if op.kind == "classify" and oracle.false_four_element(op.meta["eta"]) and oracle.FOUR in out:
            return "false-four-element"
        return None


WORKLOADS = {w.name: w for w in (CliSession, ClassifySweep, ExactAlgebra, Falsify)}
