"""Exact computer algebra for quadratic algebras of the pure virtual braid
family: chain-gang and Up-Down forest bases of the dual, pruning and lex
rewriting, syzygy bookkeeping, and the degree-2/3 quadraticity checks."""

from .exact_core import (
    AmbientMismatchError,
    FreeElement,
    Generator,
    SparseMatrix,
    all_generators,
    gen,
    span_membership,
)
from .graph_basis import (
    Forest,
    WedgeMonomial,
    confluence_check,
    coproduct_table_check,
    enumerate_chain_gangs,
    enumerate_down,
    enumerate_up,
    enumerate_updown,
    lah,
    lah_by_enumeration,
    lex_normal_form,
    parse_wedge_word,
    prune_normal_form,
    stirling1,
    stirling2,
)
from .pvb_family import (
    AlgebraFamily,
    Family,
    RelatorSymbol,
    presentation,
    psi_image_check,
    quadratic_relators,
    relator_symbols,
)
from .pvh_checker import (
    InfinitesimalSyzygy,
    NotASyzygyError,
    SyzygyElement,
    c_commutation_syzygy,
    degree2_report,
    delta_K,
    kernel_deg3,
    project_to_infinitesimal,
    pvh_report,
    trivial_syzygies,
    y_commutation_syzygy,
    zamolodchikov,
)
from .quad_algebra import (
    DEFAULT_BUDGET,
    QuadraticPresentation,
    SizeBudgetError,
    annihilator,
    graded_dim,
    graded_dims,
    koszul_euler_check,
)
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
