"""Command-line front end.

Every operation is exposed as a subcommand with machine-readable JSON output
(``--format spice`` switches netlist-producing commands to a SPICE-like
listing).  Exit codes: 0 success; 1 for NotPositiveReal / UnknownWithinScope
outcomes and verification failures; 2 for invalid input, usage errors (a
missing or unknown option, a value of the wrong type) among them, each
reported as one ``{"error": ...}`` JSON line on stderr; 3 when the program
fails its own checks, for example when a synthesized fig3a network does
not re-verify; 141 when stdout is closed before the output is written, as
by ``| head`` or ``>&-``.  A netlist or target nested too deeply for
Python's recursion limit is invalid input too.  ``--precision-bits`` runs
from 64 to 14280; every value prints through ``ratpoly`` at any precision,
and whether the cap stays is left to the removal of mpmath (ROADMAP item 17).

A command run as a process (``python -m biquadrlc.cli`` or the
``biquadrlc`` script) exits as soon as its atexit handlers have run and its
output is flushed, without the interpreter's teardown (``run_and_exit``).
A tool that wraps the module in its own process, such as
``python -m cProfile -m biquadrlc.cli``, therefore never gets to report;
profile ``main(argv)`` in-process instead.

Only ``falsify`` loads numpy (through ``verify``).  mpmath is loaded by
``ratpoly`` when a value needs an mpf: in ``classify`` and ``synth`` on an
n4a/n5a locus, whose element values are mpf although p1 is found exactly.
The other commands, ``classify`` and ``synth`` on a rational fig3a target
and ``falsify``, which certifies its fits exactly, among them, keep their
values exact and never load it.

Every number read from an option, a netlist, a target or a ``--poly`` array
goes through ``ratpoly.scalar_from_str``: "3/2", "0.25" and "1e-6" are exact
rationals, negative ones too ("--lo -3/2"), and a non-finite or
unparseable number ("inf", "nan", "1/0", "abc") exits 2.  Outputs carry
exact rational strings where available and 50-digit decimal strings plus
the working precision otherwise.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import re
import sys
from pathlib import Path
from typing import NoReturn

from .biquad import (
    CanonicalBiquad,
    GeneralBiquad,
    PoleSquaredForm,
    canonical_positive_real,
    is_positive_real,
    pole_squared_to_general,
    target_from_json,
    target_to_json,
    to_rational_fn,
)
from .check import verify_numeric
from .network import (
    TRANSFORMS,
    apply_transform,
    enumerate_labeled,
    enumerate_topologies,
    from_netlist_json,
    impedance,
    to_netlist_json,
    to_spice,
)
from .ratpoly import (
    Poly,
    RationalFn,
    _isolate,
    decimal_str,
    scalar_from_str,
    scalar_to_str,
    workprec,
)
from .realize import (
    _CATALOG,
    NotRealizableError,
    RealizationClass,
    classify,
    synthesize,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended

MIN_PRECISION_BITS = 64
# the cap that a 50-digit print inside mpmath once needed; ratpoly prints
# every value at any precision now, and ROADMAP item 17 decides the cap
MAX_PRECISION_BITS = 14280


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _load_json_arg(text: str):
    """Accept inline JSON or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise CliError("invalid JSON: %s" % exc)
    path = Path(text)
    if not path.exists():
        raise CliError("no such file: %s" % text)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError("invalid JSON in %s: %s" % (text, exc))


def _load_target(arg):
    data = _load_json_arg(arg)
    try:
        return target_from_json(data)
    except (ValueError, KeyError) as exc:
        raise CliError("invalid target: %s" % exc)


def _target_rational(arg) -> RationalFn:
    target = _load_target(arg)
    if isinstance(target, RationalFn):
        return target
    return to_rational_fn(target)


def _emit(obj, args) -> None:
    print(json.dumps(obj, indent=2))


def _emit_netlist(net, args, extra=None) -> None:
    if args.format == "spice":
        print(to_spice(net), end="")
        return
    payload = {"netlist": to_netlist_json(net)}
    if extra:
        payload.update(extra)
    if args.format == "text":
        print(to_spice(net).strip())
        for key, value in (extra or {}).items():
            print("%s: %s" % (key, value))
        return
    _emit(payload, args)


def _canonical_target(args) -> CanonicalBiquad:
    return CanonicalBiquad(*(scalar_from_str(v) for v in (args.k, args.z, args.p)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    b = _canonical_target(args)
    report = classify(b, precision_bits=args.precision_bits, tol=args.tol)
    data = report.to_json()
    data["target"] = target_to_json(b)
    if args.format == "text":
        print("class: %s" % data["class"])
        for cond in data["conditions"]:
            print(
                "  %s = %s [%s]"
                % (cond["name"], cond["value"], "pass" if cond["pass"] else "fail")
            )
    else:
        _emit(data, args)
    if report.klass in (
        RealizationClass.NOT_POSITIVE_REAL,
        RealizationClass.UNKNOWN_WITHIN_SCOPE,
    ):
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_synth(args) -> int:
    b = _canonical_target(args)
    if args.config:
        try:
            net, residual = synthesize(
                b, args.config, precision_bits=args.precision_bits, tol=args.tol
            )
        except NotRealizableError as exc:
            _emit({"error": str(exc)}, args)
            return EXIT_NEGATIVE
        config, transform = args.config, None
    else:
        report = classify(b, precision_bits=args.precision_bits, tol=args.tol)
        if report.network is None:
            _emit(
                {
                    "error": "no closed-form synthesis for class %s" % report.klass.value,
                    "class": report.klass.value,
                },
                args,
            )
            return EXIT_NEGATIVE
        net, config, transform, residual = (
            report.network,
            report.config,
            report.transform,
            report.residual,
        )
    _emit_netlist(
        net,
        args,
        extra={
            "config": config,
            "transform": transform,
            "residual": scalar_to_str(residual),
            "precision_bits": args.precision_bits,
        },
    )
    return EXIT_OK


def _cmd_impedance(args) -> int:
    z = impedance(_load_netlist(args.netlist))
    _emit({"num": z.num.to_json(), "den": z.den.to_json()}, args)
    return EXIT_OK


def _cmd_transform(args) -> int:
    _emit_netlist(apply_transform(_load_netlist(args.netlist), args.op), args)
    return EXIT_OK


def _load_netlist(arg):
    data = _load_json_arg(arg)
    try:
        return from_netlist_json(data)
    except (KeyError, ValueError) as exc:
        raise CliError("invalid netlist: %s" % exc)


def _cmd_verify(args) -> int:
    net = _load_netlist(args.netlist)
    target = _target_rational(args.target)
    ok, residual = verify_numeric(
        net, target, tol=args.tol, precision_bits=args.precision_bits
    )
    _emit({"ok": bool(ok), "residual": scalar_to_str(residual)}, args)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_enumerate(args) -> int:
    payload = {"n": args.n}
    if args.filters is None:
        shapes = enumerate_topologies(args.n)
    else:
        payload["filters"] = [f for f in args.filters.split(",") if f]
        shapes = enumerate_labeled(args.n, payload["filters"])
    payload["count"] = len(shapes)
    payload["topologies"] = [to_netlist_json(s) for s in shapes]
    _emit(payload, args)
    return EXIT_OK


def _cmd_roots(args) -> int:
    data = _load_json_arg(args.poly)
    if not isinstance(data, list):
        raise CliError("--poly expects a JSON array of coefficients")
    poly = Poly.from_json(data)
    lo, hi, width = (scalar_from_str(v) for v in (args.lo, args.hi, args.width))
    count, interval = _isolate(poly, lo, hi, width)
    payload = {"count": count}
    if interval is not None:
        payload["interval"] = [scalar_to_str(v) for v in interval]
        payload["midpoint"] = decimal_str(sum(interval) / 2)
    _emit(payload, args)
    return EXIT_OK


def _cmd_pr_check(args) -> int:
    target = _load_target(args.target)
    if isinstance(target, CanonicalBiquad):
        ok = canonical_positive_real(target)
    elif isinstance(target, GeneralBiquad):
        ok = is_positive_real(target)
    elif isinstance(target, PoleSquaredForm):
        ok = is_positive_real(pole_squared_to_general(target))
    else:
        raise CliError("pr-check expects a biquadratic target, not a raw rational fn")
    _emit({"positive_real": bool(ok)}, args)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_falsify(args) -> int:
    from .verify import falsify_small  # the one command that needs numpy

    target = _target_rational(args.target)
    # without --tol, falsify_small's 1e-8, which a float64 fit can meet
    tol = {} if args.tol is None else {"tol": args.tol}
    report = falsify_small(
        target,
        args.nmax,
        budget=args.budget,
        seed=args.seed,
        stop_at_first_success=args.stop_at_first_success,
        **tol,
    )
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, but a usage error is invalid input like any other
    (a CliError: one JSON line on stderr, exit 2), and an argument that
    starts like a negative number ("-3/2", "-1e-3") is a value, as
    ``scalar_from_str`` reads it, not an unknown option.  No option of the
    CLI starts with a dash and a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes only "-7" and "-0.5" as numbers
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message) -> NoReturn:
        raise CliError(message)


def _add_global_options(parser, suppress: bool):
    default = lambda v: argparse.SUPPRESS if suppress else v
    parser.add_argument(
        "--precision-bits",
        type=int,
        default=default(256),
        help="working precision for numeric synthesis/verification "
        "(%d to %d)" % (MIN_PRECISION_BITS, MAX_PRECISION_BITS),
    )
    parser.add_argument(
        "--tol",
        type=str,
        default=default(None),
        help="verification tolerance (max relative coefficient error); "
        "default max(1e-20, 2^(16 - precision bits)), which is also the band "
        "of the equalities decided inexactly; falsify: 1e-8",
    )
    parser.add_argument(
        "--format", choices=("json", "spice", "text"), default=default("json")
    )
    parser.add_argument("--seed", type=int, default=default(0))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="biquadrlc",
        description="Realizability and synthesis of biquadratic impedances "
        "k(s+z)^2/(s+p)^2 as series-parallel RLC networks.",
    )
    _add_global_options(parser, suppress=False)
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="decide the realizability class")
    p.add_argument("--k", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--p", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("synth", parents=[common], help="closed-form seven-element synthesis")
    p.add_argument("--k", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--config", choices=tuple(_CATALOG), default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("impedance", parents=[common], help="symbolic impedance of a netlist")
    p.add_argument("netlist", help="netlist JSON (inline or file path)")
    p.set_defaults(func=_cmd_impedance)

    p = sub.add_parser("transform", parents=[common], help="apply inv/dual/gdu to a netlist")
    p.add_argument("--op", required=True, choices=tuple(TRANSFORMS))
    p.add_argument("netlist")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", parents=[common], help="check a netlist against a target")
    p.add_argument("netlist")
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[common], help="series-parallel topology enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--filters",
        default=None,
        help="comma-separated labeling filters (cutset, reactive-path, "
        "reactive-arm, reactive-branch, mergeable, twin, min-resistors=N, "
        "reactive-count=N, ends-order=rising|flat|falling); labeled output",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("roots", parents=[common], help="exact distinct-root count (and isolation)")
    p.add_argument("--poly", required=True, help="JSON array, ascending degree")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.add_argument("--width", default="1e-30")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("pr-check", parents=[common], help="positive-realness of a target")
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_pr_check)

    p = sub.add_parser("falsify", parents=[common], help="brute-force fit over small topologies")
    p.add_argument("--target", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--budget", type=int, default=4000)
    p.add_argument("--stop-at-first-success", action="store_true")
    p.set_defaults(func=_cmd_falsify)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: the library and test entry.
    The process entry is ``run_and_exit``; ``--help`` raises SystemExit."""
    try:
        args = build_parser().parse_args(argv)
        bits = args.precision_bits
        if not MIN_PRECISION_BITS <= bits <= MAX_PRECISION_BITS:
            bound = ">= %d" % MIN_PRECISION_BITS if bits < MIN_PRECISION_BITS else "<= %d" % MAX_PRECISION_BITS
            raise CliError("--precision-bits must be " + bound)
        with workprec(bits):
            if args.tol is not None:
                args.tol = scalar_from_str(args.tol)
                if not args.tol > 0:
                    raise CliError("--tol must be positive")
            code = args.func(args)
            if sys.stdout is None:  # closed at start: the output went nowhere
                return EXIT_CLOSED_STDOUT
            _flush(sys.stdout)  # a reader that has gone (``| head``) shows here
            return code
    except BrokenPipeError:
        return EXIT_CLOSED_STDOUT
    except CliError as exc:
        _report_error(str(exc))
        return exc.code
    except NotRealizableError as exc:
        _report_error(str(exc))
        return EXIT_NEGATIVE
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        _report_error(str(exc))
        return EXIT_INVALID
    except RecursionError as exc:  # JSON nested too deeply to read or walk
        _report_error("input nested too deeply: %s" % exc)
        return EXIT_INVALID
    except RuntimeError as exc:
        _report_error(str(exc))
        return EXIT_INTERNAL


def run_and_exit() -> NoReturn:
    """The process entry of ``python -m biquadrlc.cli`` and the ``biquadrlc``
    console script: ``main``, then what CPython's finalization does first,
    in its order (the atexit handlers, then a flush of stdout and stderr),
    then ``os._exit``.  The interpreter's teardown of modules and its last
    garbage collections do nothing a command's output needs.

    ``SystemExit`` from ``--help`` and an uncaught exception leave through
    Python's normal exit."""
    code = main()
    atexit._run_exitfuncs()
    try:
        _flush(sys.stdout)
    except BrokenPipeError:
        code = EXIT_CLOSED_STDOUT
    _flush(sys.stderr)
    os._exit(code)


def _report_error(message: str) -> None:
    # the error's JSON line on stderr, skipped where stderr is None or closed
    # (as in _flush) or where the write fails (its descriptor was closed at
    # start, ``2>&-``), so that the exit code stays the documented one
    stream = sys.stderr
    if stream is not None and not stream.closed:
        try:
            print(json.dumps({"error": message}), file=stream)
        except OSError:
            pass


def _flush(stream) -> None:
    # the streams that CPython's finalization flushes: a stream set to None
    # (its descriptor was closed at start) or closed since is skipped
    if stream is not None and not stream.closed:
        stream.flush()


if __name__ == "__main__":
    run_and_exit()
