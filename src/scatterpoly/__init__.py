"""Scatteredness of linearized polynomials over small finite fields.

Core pieces:

* :mod:`scatterpoly.field` -- deterministic construction of F_{q^n}: its
  parameters, and its context, whose Zech-log table is built on first use;
* :mod:`scatterpoly.linpoly` -- linearized polynomials: parsing, evaluation
  and the rho transform;
* :mod:`scatterpoly.cyclotomic` -- the cyclotomic form of a linearized
  polynomial: its factorization and coset-indexed multiplier table;
* :mod:`scatterpoly.scatter` -- the exhaustive scatteredness oracle, deciding
  pair census, permutation tests and extension-tower certificates;
* :mod:`scatterpoly.criteria` -- scan-free criteria with hypothesis reports;
* :mod:`scatterpoly.verify` -- suites replaying every criterion against the
  oracle;
* :mod:`scatterpoly.cli` -- the ``scatterpoly`` command.
"""

from .errors import (
    BadIndex,
    DivisionByZero,
    EvenCharacteristicRejected,
    FieldTooLarge,
    HypothesisViolated,
    NeedsFieldAddition,
    NonPrime,
    NotABinomial,
    ParseError,
    PrimalityUndecided,
    RhoInBaseField,
    ScatterpolyError,
    WouldBeZero,
    ZeroPolynomial,
)
from .field import DEFAULT_CAP, FFElement, FieldCtx, FieldParams, build_field, field_basis
from .linpoly import (
    LinearizedPolynomial,
    evaluate,
    evaluate_many,
    normalize,
    parse_poly,
    ratio_map,
    rho_transform,
)
from .cyclotomic import (
    CoefficientTable,
    coefficient_table,
    cyclotomic_eval,
    lemma_relation_check,
)
from .scatter import (
    DecidingPairCensus,
    ScatterReport,
    TowerVerdict,
    deciding_pairs,
    is_exceptional_desk,
    is_permutation,
    is_scattered_bruteforce,
    scattered_via_pp,
)
from .criteria import (
    CriterionVerdict,
    Hypothesis,
    affine_binomial_criterion,
    binomial_criterion,
    csajbok_family_check,
    exceptional_family_certificate,
    index_shift_reduction,
    lp_membership,
    pseudoregulus_criterion,
    subfield_exponent_criterion,
)

__version__ = "0.1.0"
