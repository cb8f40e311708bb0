"""The closed-form impedances of the catalog configurations, transcribed
from the paper independently of ``network``'s shapes, kept as the test
oracle those shapes are checked against.

Values may be exact scalars, mpf or sympy symbols: ``RationalFn`` divides
its coefficients duck-typed.
"""

from typing import Callable, Dict

from biquadrlc.network import canonical_config_id
from biquadrlc.ratpoly import Poly, RationalFn


def _rf(num_coeffs, den_coeffs) -> RationalFn:
    return RationalFn(Poly(num_coeffs), Poly(den_coeffs))


_FORMULAS: Dict[str, Callable[[dict], RationalFn]] = {
    "fig7a": lambda v: _rf(
        [v["R1"], v["R1"] * v["R2"] * v["C1"]],
        [1, (v["R1"] + v["R2"]) * v["C1"]],
    ),
    "fig7b": lambda v: _rf(
        [v["R1"] * v["R2"], v["R1"] * v["L1"]],
        [v["R1"] + v["R2"], v["L1"]],
    ),
    "fig8a": lambda v: _rf(
        [0, v["R1"] * v["L1"]],
        [v["R1"], v["L1"], v["R1"] * v["L1"] * v["C1"]],
    ),
    "fig8b": lambda v: _rf(
        [v["R1"], 0, v["R1"] * v["L1"] * v["C1"]],
        [1, v["R1"] * v["C1"], v["L1"] * v["C1"]],
    ),
    "fig8c": lambda v: _rf(
        [0, v["L1"], v["R1"] * v["L1"] * v["C1"]],
        [1, v["R1"] * v["C1"], v["L1"] * v["C1"]],
    ),
    "fig8d": lambda v: _rf(
        [v["R1"], v["L1"]],
        [1, v["R1"] * v["C1"], v["L1"] * v["C1"]],
    ),
    "fig9a": lambda v: _rf(
        [v["R21"], 0, v["R21"] * v["L21"] * v["C22"]],
        [
            1,
            v["R21"] * (v["C21"] + v["C22"]),
            v["L21"] * v["C22"],
            v["R21"] * v["L21"] * v["C21"] * v["C22"],
        ],
    ),
    "fig9b": lambda v: _rf(
        [0, v["R21"] * v["L21"], 0, v["R21"] * v["L21"] * v["L22"] * v["C21"]],
        [
            v["R21"],
            v["L21"],
            v["R21"] * v["C21"] * (v["L21"] + v["L22"]),
            v["L21"] * v["L22"] * v["C21"],
        ],
    ),
    "fig9c": lambda v: _rf(
        [0, v["L21"], v["R21"] * v["L21"] * v["C22"]],
        [
            1,
            v["R21"] * v["C22"],
            v["L21"] * (v["C21"] + v["C22"]),
            v["R21"] * v["L21"] * v["C21"] * v["C22"],
        ],
    ),
    "fig9d": lambda v: _rf(
        [0, v["R21"] * v["L21"], v["L21"] * v["L22"]],
        [
            v["R21"],
            v["L21"] + v["L22"],
            v["R21"] * v["L21"] * v["C21"],
            v["L21"] * v["L22"] * v["C21"],
        ],
    ),
    "fig9e": lambda v: _rf(
        [v["R21"], v["L21"], v["R21"] * v["L21"] * v["C22"]],
        [
            1,
            v["R21"] * v["C21"],
            v["L21"] * (v["C21"] + v["C22"]),
            v["R21"] * v["L21"] * v["C21"] * v["C22"],
        ],
    ),
    "fig9f": lambda v: _rf(
        [v["R21"], v["L21"], v["R21"] * v["L21"] * v["C22"]],
        [
            1,
            v["R21"] * (v["C21"] + v["C22"]),
            v["L21"] * v["C21"],
            v["R21"] * v["L21"] * v["C21"] * v["C22"],
        ],
    ),
    "fig9g": lambda v: _rf(
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
    "fig9h": lambda v: _rf(
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
}
# seven-element assemblies: a three-element and a four-element subnetwork in
# series
_ASSEMBLIES = {
    "fig3a": ("fig7a", "fig9g"),
    "fig4a": ("fig8b", "fig9e"),
    "fig5a": ("fig8c", "fig9e"),
}
_FORMULAS.update(
    {
        name: lambda v, a=a, b=b: _FORMULAS[a](v) + _FORMULAS[b](v)
        for name, (a, b) in _ASSEMBLIES.items()
    }
)


def config_formula(config_id: str, values: dict) -> RationalFn:
    """The cataloged closed-form impedance evaluated at the given values."""
    return _FORMULAS[canonical_config_id(config_id)](values)
