"""Maximal existence time and collapse classification from intersection data.

The volume along the flow on a compact complex surface is the quadratic

    V(t) = vol0 - 2 t * pairing + t^2 * c1sq,

with vol0 the initial volume, ``pairing`` the intersection of the initial
form with the first Bott-Chern class, and c1sq that class's self
intersection (the 2*pi-free convention is used for the class, so divisor
volumes carry explicit 2*pi factors: a divisor D evolves as

    vol_D(t) = vol_D(0) + 2*pi * t * (D . K).

The maximal time is the first t where V or a listed negative
self-intersection divisor volume reaches zero; case labels follow the
trichotomy (a) infinite time, (b) volume collapse, (c) divisor collapse.
"""

import math
from dataclasses import dataclass

from .errors import FlagContradiction, InconsistentData

_TWO_PI = 2.0 * math.pi
_DISCRIMINANT_GUARD = 1e-14


@dataclass(frozen=True)
class Divisor:
    """Irreducible effective divisor with negative self-intersection."""

    name: str
    d_self: int
    d_dot_K: int
    omega0_vol: float

    def __post_init__(self):
        if self.d_self >= 0:
            raise InconsistentData(
                f"divisor {self.name}: only D^2 < 0 divisors enter the criterion"
            )
        if not self.omega0_vol > 0.0:  # NaN fails
            raise InconsistentData(f"divisor {self.name}: initial volume must be > 0")

    def is_minus_one_curve(self):
        return self.d_self == -1 and self.d_dot_K == -1


@dataclass(frozen=True)
class SurfaceFlags:
    minimal: bool
    kodaira: float  # -inf, 0, 1 or 2
    class_vii_b2: int = None
    kahler: bool = False


@dataclass(frozen=True)
class SurfaceClassData:
    """Intersection data of a surface; frozen, like `Divisor`, so the checks
    made when it is built hold for as long as it lives."""

    name: str
    vol0: float
    pairing: float
    c1sq: float
    divisors: tuple = ()
    flags: SurfaceFlags = None

    def __post_init__(self):
        if not self.vol0 > 0.0:  # NaN fails
            raise InconsistentData("vol0 must be strictly positive")
        object.__setattr__(self, "divisors", tuple(self.divisors))


@dataclass
class MaxTimeResult:
    T: float  # math.inf when unbounded
    binding: str  # "volume-collapse", "divisor-collapse(<name>)" or "none"
    case: str  # "a", "b" or "c"
    volume_poly: tuple  # (vol0, -2*pairing, c1sq)

    @property
    def finite(self):
        return math.isfinite(self.T)


def volume_polynomial(data, t):
    """V(t) = vol0 - 2 t pairing + t^2 c1sq."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return data.vol0 - 2.0 * t * data.pairing + t * t * data.c1sq


def divisor_volume(divisor, t):
    """vol_D(t) = vol_D(0) + 2 pi t (D . K)."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return divisor.omega0_vol + _TWO_PI * t * divisor.d_dot_K


def _volume_root(data):
    """Smallest positive root of V, or inf when V stays positive."""
    a = data.c1sq
    b = -2.0 * data.pairing
    c = data.vol0
    scale = max(abs(a), abs(b), abs(c), 1.0)
    if abs(a) <= _DISCRIMINANT_GUARD * scale:
        # effectively linear: root only when the volume decreases
        if b < 0.0:
            return -c / b
        return math.inf
    disc = b * b - 4.0 * a * c
    if a > 0.0:
        # opens upward with V(0) > 0: roots, when real, share a sign
        if abs(disc) <= _DISCRIMINANT_GUARD * scale * scale:
            root = -b / (2.0 * a)  # tangency counts as a root
            return root if root > 0.0 else math.inf
        if disc < 0.0 or b >= 0.0:
            return math.inf
        return (-b - math.sqrt(disc)) / (2.0 * a)
    # a < 0: opens downward, exactly one positive root
    disc = max(disc, 0.0)
    return (-b - math.sqrt(disc)) / (2.0 * a)


def maximal_time(data):
    """First vanishing among the volume polynomial and divisor volumes.

    Returns a MaxTimeResult with the binding constraint and the trichotomy
    label: (a) T infinite, (b) volume collapse, (c) divisor collapse with
    positive total volume. A simultaneous volume/divisor root counts as
    volume collapse. The volumes at t = 0 are positive: `SurfaceClassData`
    and `Divisor` check them when they are built.
    """
    t_vol = _volume_root(data)
    t_div = math.inf
    binding_divisor = None
    for d in data.divisors:
        if d.d_dot_K < 0:
            t_d = d.omega0_vol / (_TWO_PI * (-d.d_dot_K))
            if t_d < t_div:
                t_div = t_d
                binding_divisor = d
    T = min(t_vol, t_div)
    poly = (data.vol0, -2.0 * data.pairing, data.c1sq)
    if math.isinf(T):
        return MaxTimeResult(math.inf, "none", "a", poly)
    if t_vol <= t_div * (1.0 + 1e-12):
        return MaxTimeResult(t_vol, "volume-collapse", "b", poly)
    return MaxTimeResult(
        t_div, f"divisor-collapse({binding_divisor.name})", "c", poly
    )


@dataclass
class ClassificationReport:
    case: str
    narrative: tuple


_DIVISOR_CAVEAT = (
    "divisor scan covers only the listed divisors; the maximal-time "
    "criterion quantifies over all irreducible effective divisors with "
    "negative self-intersection"
)


def classify(data, result):
    """Narrative consequences of the computed case, cross-checked against
    the user-supplied classification flags; contradictions raise instead of
    silently proceeding."""
    flags = data.flags
    notes = []
    if flags is not None and flags.minimal:
        for d in data.divisors:
            if d.is_minus_one_curve():
                raise FlagContradiction(
                    f"{data.name}: flagged minimal but lists the (-1)-curve {d.name}"
                )
    if result.case == "a":
        notes.append("flow exists for all time; the surface must be minimal")
        if flags is not None and not flags.minimal:
            raise FlagContradiction(
                f"{data.name}: infinite maximal time contradicts minimal = false"
            )
    elif result.case == "b":
        notes.append(
            "volume collapses at the maximal time; the surface is birational "
            "to a ruled surface or of class VII"
        )
        notes.append("it cannot be an Inoue surface (those flow for all time)")
        if flags is not None and flags.kodaira >= 0:
            raise FlagContradiction(
                f"{data.name}: volume collapse forces negative Kodaira "
                f"dimension, got {flags.kodaira}"
            )
        if flags is not None and flags.class_vii_b2 is not None:
            notes.append(
                f"class VII with b2 = {flags.class_vii_b2}: collapsing, not Inoue"
            )
    else:
        notes.append(
            "volume stays positive at the maximal time; the binding divisor "
            "must be a (-1)-curve and the surface is non-minimal"
        )
        if flags is not None and flags.minimal:
            raise FlagContradiction(
                f"{data.name}: divisor collapse with positive volume "
                "contradicts minimality"
            )
        name = result.binding[len("divisor-collapse(") : -1]
        binding = next(d for d in data.divisors if d.name == name)
        if not binding.is_minus_one_curve():
            notes.append(
                f"warning: binding divisor {binding.name} has (D^2, D.K) = "
                f"({binding.d_self}, {binding.d_dot_K}), not a (-1)-curve; "
                "check the input data"
            )
    notes.append(_DIVISOR_CAVEAT)
    return ClassificationReport(result.case, tuple(notes))

