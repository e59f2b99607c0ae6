"""qcong: exact truncated q-series arithmetic and mechanical verification
of eta-quotient congruences and Hecke eigenform identities."""

from .diamond import (
    SuiteConfig,
    c_series,
    delta_series,
    run_suite,
    verify_eq_1_2,
    verify_eq_1_4,
    verify_g_combination,
    verify_remark,
    verify_section_2_chain,
    verify_theorem_1_1,
    verify_theorem_1_2,
    verify_theorem_3_1,
)
from .eta import EtaQuotient, eta_quotient_series, eta_series
from .forms import (
    cm_coefficient,
    eisenstein_int,
    form_F,
    form_f,
    form_f1,
    form_f2,
    form_g,
    form_h,
    resolve_form,
    sigma,
    theta0,
    two_squares,
)
from .operators import hecke, twist, u_operator
from .qseries import QSeries
from .ring import (
    QQ,
    QUAD,
    ZZ,
    ModRing,
    QuadInt,
    bernoulli,
    kronecker,
)
from .store import Cache, CacheKey, default_cache
from .sturm import ClaimReport, index_gamma0, sturm_bound, verify_eigenform
from .sturm import SpaceTag, eta_quotient_metadata

__version__ = "0.1.0"
