"""Weighted operator means on PD matrices and numerical certification of
their sharp multiplicative and additive bounds."""

from .eigen import (
    LoewnerVerdict,
    SpectralDecomposition,
    SymPDMatrix,
    congruence,
    eig_sym,
    loewner_geq_zero,
    mat_fpow,
)
from .errors import DomainError, InputError, MeanCertError, NumericalError
from .means import op_harm, op_nabla, op_sharp
from .sandwich import (
    SandwichInterval,
    SpectralBox,
    UniformBox,
    sandwich_of,
    uniform_box_of,
)
from .scalars import (
    dragomir_constant,
    dragomir_refinement_constant,
    f_v,
    g_v,
    kantorovich,
    log_mean,
    scalar_harm,
    scalar_nabla,
    scalar_sharp,
    specht,
    specht_constant,
    tominaga_additive,
    zuo_constant,
)
from .certify import (
    BoundStatement,
    CertReport,
    catalog,
    compare_constants,
    gen_box_instance,
    gen_instance,
    verify,
)

__version__ = "0.1.0"
