"""The bound table, numerical certification, and constant comparison.

``TABLE`` lists every named bound with a gate and a constant function;
``catalog`` evaluates it for one sandwich and weight, ``verify`` turns each
applicable bound into a residual matrix and a Loewner verdict, and
``compare_constants`` tabulates the competing refinement constants on a
grid point.

Literature bounds (zuo, specht, dragomir, tominaga) are certified like the
rest, but a violation is recorded as a finding rather than an overall
failure: their original hypotheses are assumed, not re-derived, from the
sandwich data at hand.  A literature bound that floating point cannot check
(its constant or residual overflows, or its Loewner check raises a
numerical failure) is reported inapplicable with the reason; any other
bound that overflows is a numerical failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import scalars
from .eigen import (
    DEFAULT_LOEWNER_TOL,
    MAX_DIM,
    LoewnerVerdict,
    SymPDMatrix,
    loewner_geq_zero,
    mat_fpow,
)
from .errors import DomainError, InputError, NumericalError
from .means import op_harm, op_nabla, op_sharp
from .sandwich import (
    ABOVE,
    STRADDLE,
    SandwichInterval,
    SpectralBox,
    UniformBox,
    box_bands,
    sandwich_from_box,
)

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
LOWER = "lower"
UPPER = "upper"
NABLA_VS_SHARP = "nabla_vs_sharp"
HARM_VS_SHARP = "harm_vs_sharp"
SHARP_VS_NABLA_EXTENDED = "sharp_vs_nabla_extended"


@dataclass(frozen=True)
class BoundStatement:
    name: str
    form: str
    side: str
    relation: str
    constant: float | None
    reference_matrix: str = "A"
    applicable: bool = True
    applicability_reason: str = ""
    source: str = ""
    literature: bool = False


@dataclass(frozen=True)
class Verdict:
    holds: bool
    min_eig: float
    min_eig_normalized: float


@dataclass(frozen=True)
class BoundResult:
    statement: BoundStatement
    verdict: Verdict | None


@dataclass(frozen=True)
class CertReport:
    instance: dict
    results: tuple
    comparison: dict | None

    def _failed(self, literature: bool) -> list[BoundResult]:
        return [r for r in self.results
                if r.verdict is not None and not r.verdict.holds
                and r.statement.literature == literature]

    @property
    def overall_pass(self) -> bool:
        """Every applicable bound holds, literature bounds aside."""
        return not self._failed(literature=False)

    @property
    def findings(self) -> tuple:
        """One line per violated literature bound: a finding, not a failure."""
        return tuple(f"literature bound {r.statement.name} violated: "
                     f"min residual eigenvalue {r.verdict.min_eig:.6e}"
                     for r in self._failed(literature=True))

    def to_dict(self) -> dict:
        return {
            "instance": dict(self.instance),
            "bounds": [{"statement": dict(vars(r.statement)),
                        "verdict": dict(vars(r.verdict)) if r.verdict else None}
                       for r in self.results],
            "comparison": dict(self.comparison) if self.comparison else None,
            "findings": list(self.findings),
            "overall_pass": self.overall_pass,
        }


def _in_unit(v: float) -> bool:
    return 0.0 <= v <= 1.0


class _Point:
    """What the gates and constants read for one sandwich, weight and boxes.

    ``near``/``far`` are the sandwich's endpoints nearer to and farther from
    1, and ``box_near``/``box_far`` those of the spectral box's sandwich.
    The identity-referenced box bounds are scaled by A's band of the box.
    """

    def __init__(self, sw, v, uniform_box, spectral_box, box_order):
        self.s, self.t, self.v = sw.s, sw.t, v
        self.in_unit = _in_unit(v)
        self.straddle = sw.regime == STRADDLE
        self.above = sw.regime == ABOVE
        self.near, self.far = sw.near_far
        self.uniform_box = uniform_box
        self.box_near = None  # stays None without a box; a given box and order are always read
        if spectral_box is not None:
            self.box_near, self.box_far = sandwich_from_box(spectral_box, box_order).near_far
            (self.box_lo_ref, self.box_hi_ref), _ = box_bands(spectral_box, box_order)

    def f(self, x: float) -> float:
        return scalars.f_v(x, self.v)

    def g(self, x: float) -> float:
        return scalars.g_v(x, self.v)

    def dual(self, x: float) -> float:
        """Geometric-harmonic ratio through the dual mean-ratio function."""
        return 1.0 / scalars.f_v(x, 1.0 - self.v)

    @property
    def h_lit(self) -> float:
        """The one-sided ratio fed to the literature constants."""
        return self.near if self.above else 1.0 / self.near


# Gates: "" when the bound applies, else the reason it does not.
def _unit(p):
    return "" if p.in_unit else "weight outside [0, 1]"


def _one_sided(p):
    return _unit(p) or ("straddle regime: interval contains 1" if p.straddle else "")


def _straddle(p):
    return _unit(p) or ("" if p.straddle else "not a straddle instance")


def _uniform_box(p):
    return _unit(p) or ("" if p.uniform_box is not None else "no uniform box supplied")


def _literature(p):
    return _unit(p) or (
        "straddle regime: no one-sided ratio to feed the literature constants"
        if p.straddle else "")


def _extended(p):
    return "weight inside [0, 1]" if p.in_unit else ""


def _spectral_box(p):
    return _extended(p) or ("" if p.box_near is not None else "no spectral box supplied")


_THM1 = "sharp multiplicative bounds from the endpoint values of the mean-ratio function"
_PROP2 = "sharp additive bounds from the endpoint values of the mean-gap function"
_HARM = "geometric-harmonic bounds via the dual mean-ratio function"
_BOX = "extended-weight reversed-gap bounds from the spectral box"

# (name, form, side, relation, reference matrix, literature, source, gate,
# constant), in report and CSV order.  A constant is read only when its gate
# passes.
TABLE = (
    ("thm1.lower", MULTIPLICATIVE, LOWER, NABLA_VS_SHARP, "A", False, _THM1,
     _one_sided, lambda p: p.f(p.near)),
    ("thm1.upper", MULTIPLICATIVE, UPPER, NABLA_VS_SHARP, "A", False, _THM1,
     _one_sided, lambda p: p.f(p.far)),
    ("young.classical", MULTIPLICATIVE, LOWER, NABLA_VS_SHARP, "A", False,
     "classical arithmetic-geometric chain; the straddle lower bound",
     _unit, lambda p: 1.0),
    ("straddle.mult.upper", MULTIPLICATIVE, UPPER, NABLA_VS_SHARP, "A", False,
     "derived: endpoint maximum of the mean-ratio function; "
     "not one of the cited sharp results",
     _straddle, lambda p: max(p.f(p.s), p.f(p.t))),
    ("prop2.lower", ADDITIVE, LOWER, NABLA_VS_SHARP, "A", False, _PROP2,
     _one_sided, lambda p: p.g(p.near)),
    ("prop2.upper", ADDITIVE, UPPER, NABLA_VS_SHARP, "A", False, _PROP2,
     _one_sided, lambda p: p.g(p.far)),
    ("thm3.upper", ADDITIVE, UPPER, NABLA_VS_SHARP, "A", False,
     "additive reverse: endpoint maximum of the mean-gap function (any regime)",
     _unit, lambda p: max(p.g(p.s), p.g(p.t))),
    ("harm.lower", MULTIPLICATIVE, LOWER, HARM_VS_SHARP, "A", False, _HARM,
     _unit, lambda p: min(p.dual(p.s), p.dual(p.t)) if p.straddle else p.dual(p.far)),
    ("harm.upper", MULTIPLICATIVE, UPPER, HARM_VS_SHARP, "A", False, _HARM,
     _unit, lambda p: 1.0 if p.straddle else p.dual(p.near)),
    ("xi.upper", ADDITIVE, UPPER, NABLA_VS_SHARP, "A", False,
     "additive reverse from the normalized endpoint gaps of the uniform box",
     _uniform_box, lambda p: max(p.g(p.uniform_box.h), p.g(1.0 / p.uniform_box.h))),
    ("tominaga.upper", ADDITIVE, UPPER, NABLA_VS_SHARP, "A", True,
     "literature: logarithmic-mean times log-Specht additive reverse",
     _uniform_box, lambda p: scalars.tominaga_additive(p.uniform_box.h)),
    ("zuo", MULTIPLICATIVE, LOWER, NABLA_VS_SHARP, "A", True,
     "literature: Kantorovich-power refinement constant, condition assumed",
     _literature, lambda p: scalars.zuo_constant(p.h_lit, p.v)),
    ("specht", MULTIPLICATIVE, LOWER, NABLA_VS_SHARP, "A", True,
     "literature: Specht-ratio refinement constant, condition assumed",
     _literature, lambda p: scalars.specht_constant(p.h_lit, p.v)),
    ("dragomir", MULTIPLICATIVE, UPPER, NABLA_VS_SHARP, "A", True,
     "literature: exponential reverse constant, condition assumed",
     _literature, lambda p: scalars.dragomir_constant(p.h_lit, p.v)),
    # Extended weights: the arithmetic-geometric gap flips sign.
    ("ext.lower", ADDITIVE, LOWER, NABLA_VS_SHARP, "A", False,
     "extended-weight additive lower bound: endpoint minimum of the "
     "(concave) mean-gap function",
     _extended, lambda p: min(p.g(p.s), p.g(p.t))),
    # on a straddle the gap function peaks at 1, where it is 0
    ("ext.upper", ADDITIVE, UPPER, NABLA_VS_SHARP, "A", False,
     "extended-weight additive upper bound: regime maximum of the mean-gap function",
     _extended, lambda p: 0.0 if p.straddle else p.g(p.near)),
    ("ext.box.lower", ADDITIVE, LOWER, SHARP_VS_NABLA_EXTENDED, "A", False, _BOX,
     _spectral_box, lambda p: -p.g(p.box_near)),
    ("ext.box.upper", ADDITIVE, UPPER, SHARP_VS_NABLA_EXTENDED, "A", False, _BOX,
     _spectral_box, lambda p: -p.g(p.box_far)),
    ("ext.ibox.lower", ADDITIVE, LOWER, SHARP_VS_NABLA_EXTENDED, "I", False, _BOX,
     _spectral_box, lambda p: p.box_lo_ref * -p.g(p.box_near)),
    ("ext.ibox.upper", ADDITIVE, UPPER, SHARP_VS_NABLA_EXTENDED, "I", False, _BOX,
     _spectral_box, lambda p: p.box_hi_ref * -p.g(p.box_far)),
)

CATALOG_ORDER = tuple(row[0] for row in TABLE)


def catalog(
    sw: SandwichInterval,
    v: float,
    uniform_box: UniformBox | None = None,
    spectral_box: SpectralBox | None = None,
    box_order: str | None = None,
) -> list[BoundStatement]:
    """Every named bound for this sandwich/weight, applicable or not.

    Inapplicable entries are kept (with constant None and a reason) so the
    report always enumerates the full catalog in a stable order.
    """
    p = _Point(sw, v, uniform_box, spectral_box, box_order)
    out = []
    for name, form, side, relation, ref, literature, source, gate, constant in TABLE:
        reason = gate(p)
        try:
            value = None if reason else constant(p)
        except OverflowError as exc:  # Python's float power
            raise NumericalError(f"bound {name}: constant overflowed at weight {v}") from exc
        out.append(BoundStatement(name, form, side, relation, value, ref, not reason,
                                  reason, source, literature))
    return out


def _residual(bound: BoundStatement, nabla, sharp, harm, amat) -> np.ndarray:
    c = bound.constant
    if bound.form == MULTIPLICATIVE:
        lhs = harm if bound.relation == HARM_VS_SHARP else nabla
        return lhs - c * sharp if bound.side == LOWER else c * sharp - lhs
    gap = nabla - sharp
    if bound.relation == SHARP_VS_NABLA_EXTENDED:
        gap = -gap
    ref = amat if bound.reference_matrix == "A" else np.eye(len(amat))
    return gap - c * ref if bound.side == LOWER else c * ref - gap


def verify(
    a: SymPDMatrix,
    b: SymPDMatrix,
    v: float,
    bounds: list[BoundStatement],
    tol_rel: float = DEFAULT_LOEWNER_TOL,
    instance: dict | None = None,
    comparison: dict | None = None,
) -> CertReport:
    """Certify every applicable bound against (A, B, v).

    Each bound becomes a residual matrix R whose Loewner nonnegativity is
    checked at ``tol_rel``; the smallest eigenvalue of R is reported raw and
    divided by max(1, ||R||_F), the scale the check compares it against.
    """
    nabla = op_nabla(a, b, v)
    sharp = op_sharp(a, b, v).mat
    harm = (op_harm(a, b, v).mat
            if any(x.applicable and x.relation == HARM_VS_SHARP for x in bounds) else None)
    results = []
    for bound in bounds:
        if not bound.applicable:
            results.append(BoundResult(bound, None))
            continue
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                res = _residual(bound, nabla, sharp, harm, a.mat)
                scale = float(np.maximum(1.0, np.linalg.norm(res)))  # keeps a NaN norm
            if not np.isfinite(scale):
                raise NumericalError(
                    f"{'constant' if np.isinf(bound.constant) else 'residual'} overflowed")
            lv: LoewnerVerdict = loewner_geq_zero(res, tol_rel)
        except NumericalError as exc:
            if not bound.literature:
                raise NumericalError(f"bound {bound.name}: {exc}") from exc
            results.append(BoundResult(replace(
                bound, constant=None, applicable=False,
                applicability_reason=f"not checkable in floating point: {exc}"), None))
            continue
        results.append(BoundResult(bound, Verdict(lv.holds, lv.min_eig, lv.min_eig / scale)))
    return CertReport(instance=instance or {}, results=tuple(results), comparison=comparison)


def compare_constants(h: float, v: float) -> dict:
    """One comparison row of the competing refinement constants at (h, v)."""
    h, v = float(h), float(v)
    if not h >= 1.0:
        raise DomainError(f"comparison needs h >= 1, got {h}")
    if not _in_unit(v):
        raise DomainError(f"comparison needs v in [0, 1], got {v}")
    f = scalars.f_v(h, v)
    zuo = scalars.zuo_constant(h, v)
    spc = scalars.specht_constant(h, v)
    drg = scalars.dragomir_constant(h, v)
    # which refinement is sharper: Dragomir's exponential one or Zuo's K(h,2)^r
    drg_ref = scalars.dragomir_refinement_constant(h, v)
    if drg_ref < zuo:
        drg_vs_zuo = "lt"
    elif drg_ref > zuo:
        drg_vs_zuo = "gt"
    else:
        drg_vs_zuo = "eq"
    return {
        "h": h,
        "v": v,
        "f_v": f,
        "zuo": zuo,
        "specht": spc,
        "dragomir": drg,
        "specht_le_zuo": spc <= zuo + 1e-12,
        "zuo_le_f": zuo <= f + 1e-12,
        "dragomir_vs_zuo": drg_vs_zuo,
    }


def comparison_of(sw: SandwichInterval, v: float) -> dict | None:
    """The comparison row at the literature ratio when those bounds apply and it is >= 1."""
    p = _Point(sw, v, None, None, None)
    return None if _literature(p) or not p.h_lit >= 1.0 else compare_constants(p.h_lit, v)


def _random_pd(rng: np.random.Generator, evals) -> SymPDMatrix:
    """The PD matrix with spectrum ``evals`` in a random orthonormal basis."""
    n = len(evals)
    if n == 1:
        return SymPDMatrix.from_spectrum(evals, [[1.0 if rng.random() < 0.5 else -1.0]])
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return SymPDMatrix.from_spectrum(evals, q * np.sign(np.diag(r)))


def _pinned_log_uniform(rng, n, lo, hi):
    """n values log-uniform in [lo, hi] with both endpoints attained (n >= 2)."""
    if n == 1:
        return np.array([lo])
    inner = np.exp(rng.uniform(np.log(lo), np.log(hi), n - 2)) if n > 2 else []
    return np.concatenate([[lo, hi], inner])


def gen_instance(dim: int, s0: float, t0: float, seed: int) -> tuple[SymPDMatrix, SymPDMatrix]:
    """Deterministic PD pair whose tight sandwich scalars are (s0, t0).

    A gets a log-uniform spectrum in [0.5, 2]; B = A^(1/2) C A^(1/2) with C
    PD having extreme eigenvalues exactly s0 and t0, so the congruence
    A^(-1/2) B A^(-1/2) = C pins the sandwich by construction.
    """
    if not 0.0 < s0 <= t0:
        raise InputError(f"need 0 < s0 <= t0, got ({s0}, {t0})")
    if not 1 <= dim <= MAX_DIM:
        raise InputError(f"dimension {dim} out of range [1, {MAX_DIM}]")
    if dim == 1 and s0 != t0:
        raise InputError("a 1x1 instance cannot realize s0 < t0")
    rng = np.random.default_rng(seed)
    a = _random_pd(rng, np.exp(rng.uniform(np.log(0.5), np.log(2.0), dim)))
    c = _random_pd(rng, _pinned_log_uniform(rng, dim, s0, t0))
    half = mat_fpow(a, 0.5)
    b = SymPDMatrix(half.mat @ c.mat @ half.mat)
    return a, b


def gen_box_instance(
    dim: int, box: SpectralBox, order: str, seed: int
) -> tuple[SymPDMatrix, SymPDMatrix]:
    """Deterministic PD pair satisfying the spectral-box hypothesis.

    Under A_BELOW_B the spectrum of A fills [m', m] and that of B fills
    [M, M'] (endpoints attained for dim >= 2); B_BELOW_A swaps the roles.
    """
    if not 1 <= dim <= MAX_DIM:
        raise InputError(f"dimension {dim} out of range [1, {MAX_DIM}]")
    a_band, b_band = box_bands(box, order)
    rng = np.random.default_rng(seed)
    a = _random_pd(rng, _pinned_log_uniform(rng, dim, *a_band))
    b = _random_pd(rng, _pinned_log_uniform(rng, dim, *b_band))
    return a, b
