"""Tensor products of even real spectral triples, two real-structure choices.

Both modes share

    D     = D1 (x) I + Omega1 (x) D2,
    Omega = Omega1 (x) Omega2,

and differ in the real structure:

    natural   J = J1 (x) J2            (linear part K1 (x) K2),
    modified  J = J1 (x) J2 Omega2     (linear part K1 (x) K2 conj(Omega2)).

Requiring a single uniform sign for J against both terms of D forces a
consistency constraint between the component signs; when it fails there
is no uniform sign at all, which the matrix level exhibits on a concrete
vector whenever both component Dirac operators are nonzero.

The factors' signs are read from their validation reports, which
``product_triple`` and ``verify_product`` take as an optional ``reports``
pair; without it each factor is validated once.

Composition rules (the middle line is the constraint):

    natural             modified
    eps   = eps1*eps2   eps   = eps1*eps2*eps2''
    eps'  = eps1'  and  eps1' = eps1''*eps2'      /  eps1' = -eps1''*eps2'
    eps'' = eps1''*eps2''
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import (
    IncompleteSigns,
    IndefiniteSign,
    InvalidArgument,
    InvalidComponent,
    NoChirality,
    NoTableMatch,
)
from .linalg import ExactMatrix
from .triples import (
    EPSILON_TABLE,
    FiniteSpectralTriple,
    SignTriple,
    ValidationReport,
    _validate,
    extract_signs,
    ko_from_signs,
    validate_triple,
)


class ProductMode(enum.Enum):
    NATURAL = "natural"
    MODIFIED = "modified"


@dataclass(frozen=True)
class Incompatible:
    """Returned by predicted_signs when the consistency constraint fails."""

    violated_relation: str


def product_triple(
    t1: FiniteSpectralTriple,
    t2: FiniteSpectralTriple,
    mode: ProductMode,
    reports: tuple[ValidationReport, ValidationReport] | None = None,
) -> FiniteSpectralTriple:
    """Build the tensor-product triple; both factors must be valid and even.

    ``reports`` are the factors' ``validate_triple`` reports, for a caller
    that has them already; without them each factor is validated here.
    """
    if t1.chirality is None:
        raise NoChirality("first factor needs a chirality operator")
    if t2.chirality is None:
        raise NoChirality("second factor needs a chirality operator")
    for idx, (which, t) in enumerate((("first", t1), ("second", t2))):
        report = validate_triple(t) if reports is None else reports[idx]
        if not report.passed:
            names = ", ".join(c.name for c in report.failures)
            raise InvalidComponent(f"{which} factor fails validation: {names}")

    eye1 = ExactMatrix.identity(t1.dim)
    eye2 = ExactMatrix.identity(t2.dim)
    dirac = t1.dirac.kron(eye2) + t1.chirality.kron(t2.dirac)
    omega = t1.chirality.kron(t2.chirality)
    if mode is ProductMode.NATURAL:
        j2 = t2.real_structure
    elif mode is ProductMode.MODIFIED:
        j2 = t2.real_structure.precompose_linear(t2.chirality)
    else:
        raise InvalidArgument(f"unknown mode {mode!r}")
    gens = tuple(a.kron(eye2) for a in t1.algebra_gens) + tuple(
        eye1.kron(b) for b in t2.algebra_gens
    )
    return FiniteSpectralTriple(
        dim=t1.dim * t2.dim,
        algebra_gens=gens,
        dirac=dirac,
        chirality=omega,
        real_structure=t1.real_structure.tensor(j2),
    )


def predicted_signs(
    s1: SignTriple, s2: SignTriple, mode: ProductMode
) -> SignTriple | Incompatible:
    """Compose two sign triples, or report the violated constraint.

    The first factor must be even (eps1'' present) and both eps' must be
    known; the modified mode additionally needs eps2'' because the
    second factor's chirality enters the real structure itself.  A
    missing eps2'' in the natural mode simply leaves the product without
    a chirality sign.
    """
    if s1.eps_dprime is None:
        raise IncompleteSigns("composition needs eps'' of the first factor")
    if s1.eps_prime is None or s2.eps_prime is None:
        raise IncompleteSigns("composition needs eps' of both factors")

    if mode is ProductMode.NATURAL:
        required = s1.eps_dprime * s2.eps_prime
        if s1.eps_prime != required:
            return Incompatible(
                "natural-mode constraint eps1' = eps1''*eps2' fails: "
                f"{s1.eps_prime:+d} != {s1.eps_dprime:+d}*{s2.eps_prime:+d}"
            )
        eps = s1.eps * s2.eps
        eps_dprime = None if s2.eps_dprime is None else s1.eps_dprime * s2.eps_dprime
        return SignTriple(eps, s1.eps_prime, eps_dprime)

    if mode is ProductMode.MODIFIED:
        if s2.eps_dprime is None:
            raise IncompleteSigns(
                "modified composition needs eps'' of the second factor"
            )
        required = -s1.eps_dprime * s2.eps_prime
        if s1.eps_prime != required:
            return Incompatible(
                "modified-mode constraint eps1' = -eps1''*eps2' fails: "
                f"{s1.eps_prime:+d} != -({s1.eps_dprime:+d})*{s2.eps_prime:+d}"
            )
        eps = s1.eps * s2.eps * s2.eps_dprime
        eps_dprime = s1.eps_dprime * s2.eps_dprime
        return SignTriple(eps, s1.eps_prime, eps_dprime)

    raise InvalidArgument(f"unknown mode {mode!r}")


# --- matrix-level verification -----------------------------------------------------

def _fill_eps_prime_from_table(s: SignTriple) -> tuple[SignTriple, bool]:
    """Substitute the table's eps' for an even factor whose D = 0."""
    if s.eps_prime is not None:
        return s, False
    sigma = ko_from_signs(s, "even")
    return SignTriple(s.eps, EPSILON_TABLE[sigma].eps_prime, s.eps_dprime), True


def _indefinite_witness(sides: tuple[ExactMatrix, ExactMatrix]) -> str:
    """A basis vector on which J D differs from both +D J and -D J, read
    from the measured sides (K conj(D), D K) of a product triple.

    With D = X + Y for X = D1 (x) I and Y = Omega1 (x) D2, each term has a
    uniform sign against J, and the two signs differ.  So JD - DJ and
    JD + DJ are -2 XK and -2 YK in some order.  With K = K1 (x) K2 (K2
    conj(Omega2) in the modified mode), column (a, b) of XK is nonzero when
    D1 K1 e_a != 0 and column (a, b) of YK when D2 K2 e_b != 0, so both
    supports share a column.
    """
    jd, dj = sides

    def nonzero_columns(m: ExactMatrix) -> set[int]:
        return {j for row in m.sparse_rows for j, _re, _im in row}

    j = min(nonzero_columns(jd - dj) & nonzero_columns(jd + dj))
    return f"basis vector e{j}: (JD - DJ)e{j} != 0 and (JD + DJ)e{j} != 0"


@dataclass(frozen=True)
class ProductVerification:
    """Side-by-side record of the sign calculus and the matrix computation."""

    mode: ProductMode
    sigma1: int
    sigma2: int
    component_signs: tuple[SignTriple, SignTriple]
    prediction: SignTriple | Incompatible
    predicted_sigma: int | None
    matrix_signs: SignTriple | None
    indefinite_witness: str | None
    matrix_ko: int | None
    eps_prime_evidence: str
    status: str  # confirmed-compatible | confirmed-incompatible | not-falsifiable | disagreement
    agreement: bool
    product_dim: int
    notes: tuple[str, ...] = field(default=())
    #: the measured product triple, kept only for ``verify_product(...,
    #: keep_product=True)``; otherwise it is freed before verify_product returns
    product: FiniteSpectralTriple | None = field(default=None, repr=False, compare=False)


def verify_product(
    t1: FiniteSpectralTriple,
    t2: FiniteSpectralTriple,
    mode: ProductMode,
    reports: tuple[ValidationReport, ValidationReport] | None = None,
    *,
    keep_product: bool = False,
) -> ProductVerification:
    """Predict the product signs from the components, then measure them.

    When the prediction is Incompatible and both component Dirac
    operators are nonzero, the built product must exhibit the failure
    (J with no uniform sign against D) on a concrete vector.  If a
    component Dirac vanishes, the conflicting term of D is absent and
    the incompatibility is not falsifiable at matrix level; the report
    says so and records which component supplied the eps' evidence.

    ``reports`` are the factors' ``validate_triple`` reports, for a caller
    that has them already; without them each factor is validated here.  The
    factors' signs are read from the reports.
    With ``keep_product`` the record holds the product triple, for a caller
    that writes it; without it the product is freed here, so a caller that
    keeps records does not keep products.
    """
    if reports is None:
        reports = (_validate(t1), _validate(t2))
    s1, s2 = (r.require_signs() for r in reports)
    sigma1 = ko_from_signs(s1, "even")
    sigma2 = ko_from_signs(s2, "even")

    notes: list[str] = []
    s1f, filled1 = _fill_eps_prime_from_table(s1)
    s2f, filled2 = _fill_eps_prime_from_table(s2)
    if filled1:
        notes.append(f"component 1 eps' taken from the table row sigma={sigma1} (its D = 0)")
    if filled2:
        notes.append(f"component 2 eps' taken from the table row sigma={sigma2} (its D = 0)")

    d1_nonzero = not t1.dirac.is_zero()
    d2_nonzero = not t2.dirac.is_zero()
    if d1_nonzero and d2_nonzero:
        evidence = "components 1 and 2"
    elif d1_nonzero:
        evidence = "component 1 only (component 2 has D = 0)"
    elif d2_nonzero:
        evidence = "component 2 only (component 1 has D = 0)"
    else:
        evidence = "none (both component Dirac operators are 0)"

    prediction = predicted_signs(s1f, s2f, mode)
    product = product_triple(t1, t2, mode, reports)
    predicted_sigma = None if isinstance(prediction, Incompatible) else (sigma1 + sigma2) % 8

    matrix_signs: SignTriple | None
    witness: str | None = None
    try:
        matrix_signs = extract_signs(product)
    except IndefiniteSign as exc:
        matrix_signs = None
        witness = _indefinite_witness(exc.sides)

    matrix_ko = None
    if matrix_signs is not None:
        try:
            matrix_ko = ko_from_signs(matrix_signs, "even")
        except NoTableMatch:  # recorded as None
            notes.append(f"matrix signs {matrix_signs} match no table row")

    if isinstance(prediction, SignTriple):
        ok = (
            matrix_signs is not None
            and matrix_signs.eps == prediction.eps
            and matrix_signs.eps_dprime == prediction.eps_dprime
            and (matrix_signs.eps_prime is None
                 or matrix_signs.eps_prime == prediction.eps_prime)
            and matrix_ko == predicted_sigma
        )
        if matrix_signs is not None and matrix_signs.eps_prime is None:
            notes.append("product D = 0: eps' not measurable, compared on (eps, eps'') only")
        status = "confirmed-compatible" if ok else "disagreement"
        agreement = ok
    else:
        if matrix_signs is None:
            status = "confirmed-incompatible"
            agreement = True
        elif not (d1_nonzero and d2_nonzero):
            status = "not-falsifiable"
            agreement = True
            notes.append(
                "calculus says incompatible, but a vanishing component Dirac removes "
                f"the conflicting term of D; matrix signs {matrix_signs} reflect "
                "the surviving term only and mod-8 additivity does not apply"
            )
        else:
            status = "disagreement"
            agreement = False

    return ProductVerification(
        mode=mode,
        sigma1=sigma1,
        sigma2=sigma2,
        component_signs=(s1, s2),
        prediction=prediction,
        predicted_sigma=predicted_sigma,
        matrix_signs=matrix_signs,
        indefinite_witness=witness,
        matrix_ko=matrix_ko,
        eps_prime_evidence=evidence,
        status=status,
        agreement=agreement,
        product_dim=product.dim,
        notes=tuple(notes),
        product=product if keep_product else None,
    )
