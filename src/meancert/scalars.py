"""Scalar means, ratio/gap functions, and the named bound constants.

All functions here are total on their stated domains and raise DomainError
instead of returning NaN, so the certifier's reports stay unambiguous.
The removable singularities (Specht ratio at 1, logarithmic mean on the
diagonal) take their limits there.  Specht's ratio, the Kantorovich
constant and the logarithmic mean use forms that stay finite and accurate
from 1e-300 to 1e300.
"""

from __future__ import annotations

import math

from .errors import DomainError


def _require_positive(name: str, x: float):
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {x}")


def _require_finite(v: float):
    if not math.isfinite(v):
        raise DomainError(f"weight {v} must be finite")


def _require_unit(v: float):
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"weight {v} outside [0, 1]")


def scalar_nabla(a: float, b: float, v: float) -> float:
    """Weighted arithmetic mean (1-v)a + vb."""
    _require_positive("a", a)
    _require_positive("b", b)
    _require_finite(v)
    return (1.0 - v) * a + v * b


def scalar_sharp(a: float, b: float, v: float) -> float:
    """Weighted geometric mean a^(1-v) b^v."""
    _require_positive("a", a)
    _require_positive("b", b)
    _require_finite(v)
    return a ** (1.0 - v) * b ** v


def scalar_harm(a: float, b: float, v: float) -> float:
    """Weighted harmonic mean; the weight must stay in [0, 1]."""
    _require_positive("a", a)
    _require_positive("b", b)
    _require_unit(v)
    return 1.0 / ((1.0 - v) / a + v / b)


def f_v(x: float, v: float) -> float:
    """Ratio of arithmetic to geometric mean of (1, x): ((1-v)+vx) / x^v."""
    _require_positive("x", x)
    _require_finite(v)
    return ((1.0 - v) + v * x) / x ** v


def g_v(x: float, v: float) -> float:
    """Gap of arithmetic over geometric mean of (1, x): (1-v)+vx-x^v."""
    _require_positive("x", x)
    _require_finite(v)
    return (1.0 - v) + v * x - x ** v


def kantorovich(h: float) -> float:
    """Kantorovich constant (h+1)^2 / (4h), as (h + 2 + 1/h) / 4 so it never overflows."""
    _require_positive("h", h)
    return (h + 2.0 + 1.0 / h) / 4.0


def _log_specht(t: float) -> float:
    """log S(t) = L - 1 - log L, L = log t / (t - 1) = log t^(1/(t-1)); 0 at t = 1."""
    if t == 1.0:
        return 0.0
    lg = math.log(t) / (t - 1.0)
    return lg - 1.0 - math.log(lg)


def specht(t: float) -> float:
    """Specht's ratio t^(1/(t-1)) / (e log t^(1/(t-1))), extended by 1 at t=1."""
    _require_positive("t", t)
    return math.exp(_log_specht(t))


def log_mean(x: float, y: float) -> float:
    """Logarithmic mean (y-x)/(log y - log x), extended by x on the diagonal.
    log1p((hi-lo)/lo) is the denominator without cancellation; the logs serve
    when that ratio overflows."""
    _require_positive("x", x)
    _require_positive("y", y)
    lo, hi = min(x, y), max(x, y)
    if lo == hi:
        return lo
    ratio = (hi - lo) / lo
    return (hi - lo) / (math.log1p(ratio) if ratio < math.inf else math.log(hi) - math.log(lo))


def zuo_constant(h: float, v: float) -> float:
    """K(h,2)^r, the Kantorovich-power refinement constant."""
    _require_positive("h", h)
    _require_unit(v)
    return kantorovich(h) ** min(v, 1.0 - v)


def specht_constant(h: float, v: float) -> float:
    """S(h^r), the Specht-ratio refinement constant."""
    _require_positive("h", h)
    _require_unit(v)
    return specht(h ** min(v, 1.0 - v))


def dragomir_constant(h: float, v: float) -> float:
    """exp(v(1-v)(h-1)^2 / 2), the exponential reverse constant."""
    _require_positive("h", h)
    _require_unit(v)
    try:
        return math.exp(0.5 * v * (1.0 - v) * (h - 1.0) ** 2)
    except OverflowError:
        return math.inf


def dragomir_refinement_constant(h: float, v: float) -> float:
    """exp(v(1-v)(1-1/h)^2 / 2), the exponential refinement constant: the
    reverse constant at 1/h.

    S. S. Dragomir, "A note on Young's inequality", RACSAM 111 (2017) 349-354.
    """
    _require_positive("h", h)
    return dragomir_constant(1.0 / h, v)


def tominaga_additive(h: float) -> float:
    """L(1,h) log S(h), the classical additive reverse constant.

    Near h = 1 its relative error grows like 1e-15/|h-1|, as its condition number does."""
    _require_positive("h", h)
    return log_mean(1.0, h) * _log_specht(h)
