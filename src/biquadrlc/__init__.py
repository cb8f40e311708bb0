"""Realizability and synthesis of biquadratic impedances k(s+z)^2/(s+p)^2
as series-parallel RLC networks.

The package decides which element count realizes such an impedance (four,
five, or one of three cataloged seven-element configurations), synthesizes
element values where a closed form exists, and verifies every synthesis by
impedance expansion, exactly or at arbitrary precision.

Importing the package loads neither mpmath nor numpy.  ``ratpoly`` loads
mpmath the first time a value needs an mpf, so exact arithmetic never does,
nor the decimal string or float of a quadratic irrational, nor the fitter,
which certifies its fits exactly.  The fitting names (``FitResult``,
``fit_topology``, ``falsify_small``) live in ``verify``, the one module
that needs numpy; they are served from it on first access.  The value types (targets, networks, reports) are plain
classes on one base, ``ratpoly._Record``, that compares, hashes, prints and
pickles them by their fields.  Defining them imports no module and compiles
no generated code, so importing the package does not load the standard
library's record generator or the ``inspect`` it needs; in turn, that
generator's ``fields``, ``replace`` and ``asdict`` do not take them.
"""

from .biquad import (
    CanonicalBiquad,
    GeneralBiquad,
    PoleSquaredForm,
    canonical_positive_real,
    canonical_to_general,
    is_positive_real,
    to_rational_fn,
    transform_params,
)
from .check import verify_exact, verify_numeric
from .network import (
    Leaf,
    Parallel,
    Series,
    apply_transform,
    build_config,
    config_ids,
    config_slots,
    config_template,
    enumerate_labeled,
    enumerate_topologies,
    from_netlist_json,
    has_pure_reactive_series_arm,
    impedance,
    parallel,
    series,
    to_netlist_json,
    to_spice,
    violates_cutset_rule,
)
from .ratpoly import (
    Poly,
    QuadraticRational,
    RationalFn,
    gcd,
    isolate_root,
    resultant,
    sturm_count,
)
from .realize import (
    NotRealizableError,
    RealizationClass,
    RealizationReport,
    check_fig3a_condition,
    check_n4a_condition,
    check_n5a_condition,
    classify,
    lemma_five_element_two_reactive,
    lemma_four_element,
    lemma_three_element,
    n4a_root_interval,
    n5a_root_interval,
    synth_fig3a,
    synth_n4a,
    synth_n5a,
)

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "RationalFn",
    "QuadraticRational",
    "gcd",
    "resultant",
    "sturm_count",
    "isolate_root",
    "Leaf",
    "Series",
    "Parallel",
    "series",
    "parallel",
    "impedance",
    "apply_transform",
    "enumerate_topologies",
    "enumerate_labeled",
    "violates_cutset_rule",
    "has_pure_reactive_series_arm",
    "build_config",
    "config_ids",
    "config_slots",
    "config_template",
    "to_netlist_json",
    "from_netlist_json",
    "to_spice",
    "CanonicalBiquad",
    "GeneralBiquad",
    "PoleSquaredForm",
    "canonical_to_general",
    "canonical_positive_real",
    "is_positive_real",
    "transform_params",
    "to_rational_fn",
    "RealizationClass",
    "RealizationReport",
    "NotRealizableError",
    "classify",
    "check_fig3a_condition",
    "check_n4a_condition",
    "check_n5a_condition",
    "synth_fig3a",
    "synth_n4a",
    "synth_n5a",
    "n4a_root_interval",
    "n5a_root_interval",
    "lemma_three_element",
    "lemma_four_element",
    "lemma_five_element_two_reactive",
    "verify_exact",
    "verify_numeric",
    "fit_topology",
    "falsify_small",
    "FitResult",
    "__version__",
]


_FITTING = ("FitResult", "fit_topology", "falsify_small")


def __getattr__(name):
    if name in _FITTING:
        from . import verify

        return getattr(verify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
