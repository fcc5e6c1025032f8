"""Scatteredness of linearized polynomials over small finite fields.

Core pieces:

* :mod:`scatterpoly.field` -- deterministic construction of F_{q^n}: its
  parameters, and its context, whose Zech-log table is built on first use;
* :mod:`scatterpoly.linpoly` -- linearized polynomials and their index-shift
  transforms;
* :mod:`scatterpoly.cyclotomic` -- coset decompositions and the coset-indexed
  form of a linearized polynomial;
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
    IndexExceedsMinExponent,
    NeedsFieldAddition,
    NonPrime,
    NotABinomial,
    NotADivisor,
    ParseError,
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
    shift_down,
    strip_min_term,
    t_transform,
)
from .cyclotomic import (
    CoefficientTable,
    CyclotomicDecomposition,
    coefficient_table,
    cyclotomic_eval,
    decompose,
    factorize_poly,
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
