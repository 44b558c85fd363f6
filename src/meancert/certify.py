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

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import scalars
from .eigen import (
    DEFAULT_LOEWNER_TOL,
    MAX_DIM,
    ROUND_ROBIN_MIN_DIM,
    STACK_MAX_ENTRIES,
    SymPDMatrix,
    _frobenius_norm,
    _loewner_verdict,
    _spectrum_ends,
    loewner_geq_zero,
    mat_fpow,
)
from .errors import DomainError, InputError, MeanCertError, NumericalError
from .means import mean_ends, op_harm, op_nabla, op_sharp, require_pd_mean
from .sandwich import (
    ABOVE,
    STRADDLE,
    PairContext,
    SandwichInterval,
    SpectralBox,
    UniformBox,
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

    @cached_property
    def _failed(self) -> tuple:
        """The rows whose bound did not hold, found in one scan of the results."""
        return tuple(r for r in self.results if r.verdict is not None and not r.verdict.holds)

    @property
    def overall_pass(self) -> bool:
        """Every applicable bound holds, literature bounds aside."""
        return all(r.statement.literature for r in self._failed)

    @property
    def findings(self) -> tuple:
        """One line per violated literature bound: a finding, not a failure."""
        return tuple(f"literature bound {r.statement.name} violated: "
                     f"min residual eigenvalue {r.verdict.min_eig:.6e}"
                     for r in self._failed if r.statement.literature)

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

    def __init__(self, sw, v, uniform_box, spectral_box):
        self.s, self.t, self.v = sw.s, sw.t, v
        self.in_unit = _in_unit(v)
        self.straddle = sw.regime == STRADDLE
        self.above = sw.regime == ABOVE
        self.near, self.far = sw.near_far
        self.uniform_box = uniform_box
        self.box_near = None  # stays None without a box; a given box is always read
        if spectral_box is not None:
            self.box_near, self.box_far = spectral_box.sandwich.near_far
            self.box_lo_ref, self.box_hi_ref = spectral_box.a_band

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

# An inapplicable row's statement, keyed by (name, reason): it depends on
# nothing else, and statements are frozen, so each is built once and shared.
# A gate has few reasons, so this stays small.
_INAPPLICABLE: dict[tuple[str, str], BoundStatement] = {}


def catalog(
    sw: SandwichInterval,
    v: float,
    uniform_box: UniformBox | None = None,
    spectral_box: SpectralBox | None = None,
) -> list[BoundStatement]:
    """Every named bound for this sandwich/weight, applicable or not.

    Inapplicable entries are kept (with constant None and a reason) so the
    report always enumerates the full catalog in a stable order.
    """
    p = _Point(sw, v, uniform_box, spectral_box)
    out = []
    for name, form, side, relation, ref, literature, source, gate, constant in TABLE:
        reason = gate(p)
        if reason:
            st = _INAPPLICABLE.get((name, reason))
            if st is None:
                st = _INAPPLICABLE[name, reason] = BoundStatement(
                    name, form, side, relation, None, ref, False, reason, source, literature)
            out.append(st)
            continue
        try:
            value = constant(p)
        except OverflowError as exc:  # Python's float power
            raise NumericalError(f"bound {name}: constant overflowed at weight {v}") from exc
        out.append(BoundStatement(name, form, side, relation, value, ref, True, "", source,
                                  literature))
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


def _checks(residuals: dict, means: dict, tol_rel: float, stacked: bool) -> dict:
    """Each residual's and mean's check, keyed as given, from one pass: a
    residual's ``LoewnerVerdict``, or the NumericalError its solve raised,
    and its scale max(1, ||R||_F); a mean's two ends, or the error in their
    place.  The residuals of finite norm are moved out of their dict, so each
    is held once, and solved with the means as one stack when ``stacked``,
    else one at a time.  A residual whose norm is not finite is not solved:
    its check is None and its scale that norm, and each row that reaches it
    reports the overflow (max(1.0, nan) would be 1.0, so the norm is tested
    first).
    """
    norms = {key: _frobenius_norm(res) for key, res in residuals.items()}
    checked = {key: (None, norm) for key, norm in norms.items() if not math.isfinite(norm)}
    keys = [key for key in norms if key not in checked]
    mats = [residuals.pop(key) for key in keys]
    if not stacked:
        ends, verdicts = [mean_ends(mean) for mean in means.values()], []
        for res in mats:
            try:
                verdicts.append(loewner_geq_zero(res, tol_rel))
            except NumericalError as exc:
                verdicts.append(exc)
    else:
        ends = _spectrum_ends(np.stack(mats + list(means.values()))) if mats or means else []
        verdicts = [e if isinstance(e, NumericalError)
                    else _loewner_verdict(e[0], max(1.0, norms[key]), tol_rel)
                    for key, e in zip(keys, ends)]
        ends = ends[len(keys):]
    checked.update((key, (lv, max(1.0, norms[key]))) for key, lv in zip(keys, verdicts))
    checked.update(zip(means, ends))
    return checked


def _residual_rows(pair: PairContext, v: float, bounds: list[BoundStatement],
                   residuals: dict, means: dict, place: int) -> list:
    """Each bound with the key of its residual at weight v, None when it does
    not apply; each new residual is added to ``residuals`` under its key,
    and the means, unchecked, to ``means`` under ``(place, name)``.

    A key is ``place``, the weight's place in its chunk, and the residual's
    bytes after adding 0.0, which turns every -0.0 entry into 0.0: so rows
    of one weight whose residuals are equal up to the signs of zero entries
    share the first one's residual, and no two weights share one.
    """
    nabla = op_nabla(pair.a, pair.b, v)
    sharp = means[place, "geometric"] = op_sharp(pair, v, checked=False)
    harm = None
    if any(x.applicable and x.relation == HARM_VS_SHARP for x in bounds):
        harm = means[place, "harmonic"] = op_harm(pair, v, checked=False)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check
        for bound in bounds:
            key = None
            if bound.applicable:
                res = _residual(bound, nabla, sharp, harm, pair.a.mat)
                key = (place, (res + 0.0).tobytes())
                residuals.setdefault(key, res)
            rows.append((bound, key))
    return rows


def _judge(rows: list, checked: dict, instance: dict | None,
           comparison: dict | None) -> CertReport:
    """One weight's report from its rows, read in table order, and the
    checks of their residuals."""
    results = []
    for bound, key in rows:
        if key is None:
            results.append(BoundResult(bound, None))
            continue
        lv, scale = checked[key]
        if lv is None:
            lv = NumericalError(
                f"{'constant' if math.isinf(bound.constant) else 'residual'} overflowed")
        if isinstance(lv, NumericalError):
            if not bound.literature:
                raise NumericalError(f"bound {bound.name}: {lv}") from lv
            results.append(BoundResult(replace(
                bound, constant=None, applicable=False,
                applicability_reason=f"not checkable in floating point: {lv}"), None))
            continue
        results.append(BoundResult(bound, Verdict(lv.holds, lv.min_eig, lv.min_eig / scale)))
    return CertReport(instance=instance or {}, results=tuple(results), comparison=comparison)


def verify_weights(pair: PairContext, weights, tol_rel: float = DEFAULT_LOEWNER_TOL) -> list:
    """``verify`` at each weight of ``weights``, an iterable of
    ``(v, bounds, instance, comparison)`` read one weight at a time; the
    reports in order.

    The weights are certified in chunks.  A chunk builds every weight's
    means, unchecked, and residuals, checks them in one pass, and then
    judges the weights one by one, each weight's means (geometric, then
    harmonic) before its rows.  It closes once it holds ``STACK_MAX_ENTRIES``
    matrix entries, so memory does not grow with the number of weights.  The
    pass is one stacked solve, whose kernels ``eigen`` alone picks; only a
    chunk of one weight below ``ROUND_ROBIN_MIN_DIM`` is checked one matrix
    at a time.  A weight whose means or entry of ``weights`` raise a
    MeanCertError while built ends the chunk: the weights before it are
    judged first, then that error is raised.  So the first error raised is
    the one a run of one weight at a time would raise.
    """
    n, reports, weights, done = pair.a.dim, [], iter(weights), False
    while not done:
        pending, residuals, means, error = [], {}, {}, None
        try:
            for v, bounds, instance, comparison in weights:
                rows = _residual_rows(pair, v, bounds, residuals, means, len(pending))
                pending.append((v, rows, instance, comparison))
                if (len(residuals) + len(means)) * n * n >= STACK_MAX_ENTRIES:
                    break
            else:
                done = True
        except MeanCertError as exc:
            error = exc
        # one weight below ROUND_ROBIN_MIN_DIM is checked one matrix at a time only
        # for perfbench, whose dim-6 pin counts 11 eig_sym and 7 loewner_geq_zero
        # calls and whose lying-verifier control patches the one-matrix call
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the check
            checked = _checks(residuals, means, tol_rel,
                              n >= ROUND_ROBIN_MIN_DIM or len(pending) > 1)
        for place, (v, rows, instance, comparison) in enumerate(pending):
            for name in ("geometric", "harmonic"):
                if (place, name) in checked:
                    require_pd_mean(checked[place, name], name, v)
            reports.append(_judge(rows, checked, instance, comparison))
        if error is not None:
            raise error
    return reports


def verify(
    pair: PairContext,
    v: float,
    bounds: list[BoundStatement],
    tol_rel: float = DEFAULT_LOEWNER_TOL,
    instance: dict | None = None,
    comparison: dict | None = None,
) -> CertReport:
    """Certify every applicable bound against the pair's (A, B) at weight v.

    Each bound becomes a residual matrix R whose Loewner nonnegativity is
    checked at ``tol_rel``; the smallest eigenvalue of R is reported raw and
    divided by max(1, ||R||_F), the scale the check compares it against.
    Rows whose residuals are equal, up to the signs of zero entries, share
    one check and so one verdict.  This is the one-weight case of
    ``verify_weights``: the means are judged first, then the rows in table
    order, so a row that raises raises in table order.
    """
    (report,) = verify_weights(pair, ((v, bounds, instance, comparison),), tol_rel)
    return report


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
        # the constants are >= 1, so a relative slack covers their last-ulp rounding
        "specht_le_zuo": spc <= zuo * (1 + 1e-12),
        "zuo_le_f": zuo <= f * (1 + 1e-12),
        "dragomir_vs_zuo": drg_vs_zuo,
    }


def comparison_of(sw: SandwichInterval, v: float) -> dict | None:
    """The comparison row at the literature ratio when those bounds apply and it is >= 1."""
    p = _Point(sw, v, None, None)
    return None if _literature(p) or not p.h_lit >= 1.0 else compare_constants(p.h_lit, v)


def _random_pd(rng: np.random.Generator, evals) -> SymPDMatrix:
    """The PD matrix with spectrum ``evals`` in a random orthonormal basis."""
    n = len(evals)
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


def gen_box_instance(dim: int, box: SpectralBox, seed: int) -> tuple[SymPDMatrix, SymPDMatrix]:
    """Deterministic PD pair satisfying the spectral-box hypothesis: the
    spectrum of A fills A's band and that of B fills B's band (endpoints
    attained for dim >= 2).
    """
    if not 1 <= dim <= MAX_DIM:
        raise InputError(f"dimension {dim} out of range [1, {MAX_DIM}]")
    rng = np.random.default_rng(seed)
    a = _random_pd(rng, _pinned_log_uniform(rng, dim, *box.a_band))
    b = _random_pd(rng, _pinned_log_uniform(rng, dim, *box.b_band))
    return a, b
