"""Finite real spectral triples and the mod-8 sign table.

A triple bundles a hermitian Dirac operator D, an optional chirality
Omega (hermitian, squares to I, anticommutes with D), an antiunitary
real structure J, and an optional set of algebra generators.  Three
signs classify J:

    J o J         = eps * identity,
    J D           = eps'  D J   (only measurable when D != 0),
    J Omega       = eps'' Omega J  (only when a chirality exists).

The sign table below maps (eps, eps', eps'') to the mod-8 class sigma;
even classes are looked up on (eps, eps''), odd classes on (eps, eps').

Two routes measure the signs.  ``extract_signs`` stops at the first sign
that fails and raises there.  ``validate_triple`` measures all three as
part of its checks and keeps them in the ``ValidationReport``, whose
``require_signs`` returns or raises what ``extract_signs`` would; a
caller that validates reads the signs from the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, NamedTuple

from .clifford import build_gammas, chirality, find_real_structure, signature
from .errors import (
    IncompleteSigns,
    IndefiniteSign,
    InvalidArgument,
    InvalidTriple,
    NoChirality,
    NoHermitianGenerator,
    NoTableMatch,
    NotSignInvolutive,
    RestrictionUndefined,
)
from .linalg import Antiunitary, ExactMatrix, as_sign_times_identity


def _sign_str(s: int | None) -> str:
    if s is None:
        return "."
    return "+1" if s > 0 else "-1"


@dataclass(frozen=True)
class SignTriple:
    """The classifying signs (eps, eps', eps''); absent components are None."""

    eps: int
    eps_prime: int | None = None
    eps_dprime: int | None = None

    def __post_init__(self) -> None:
        for name in ("eps", "eps_prime", "eps_dprime"):
            v = getattr(self, name)
            if v is not None and (isinstance(v, bool) or v not in (1, -1)):
                raise InvalidArgument(f"{name} must be +1, -1 or None, got {v!r}")
        if self.eps is None:  # pragma: no cover - eps has no None default
            raise InvalidArgument("eps is required")

    def __str__(self) -> str:
        return f"({_sign_str(self.eps)}, {_sign_str(self.eps_prime)}, {_sign_str(self.eps_dprime)})"


#: sigma -> (eps, eps', eps''); odd rows have no eps''.
EPSILON_TABLE: dict[int, SignTriple] = {
    0: SignTriple(+1, +1, +1),
    1: SignTriple(+1, +1, None),
    2: SignTriple(+1, +1, -1),
    3: SignTriple(-1, -1, None),
    4: SignTriple(-1, +1, +1),
    5: SignTriple(-1, +1, None),
    6: SignTriple(-1, +1, -1),
    7: SignTriple(+1, -1, None),
}

_EVEN_LOOKUP = {(+1, +1): 0, (+1, -1): 2, (-1, +1): 4, (-1, -1): 6}
_ODD_LOOKUP = {(+1, +1): 1, (-1, -1): 3, (-1, +1): 5, (+1, -1): 7}


@dataclass(frozen=True)
class FiniteSpectralTriple:
    """A finite-dimensional real spectral triple on C^dim."""

    dim: int
    algebra_gens: tuple[ExactMatrix, ...]
    dirac: ExactMatrix
    chirality: ExactMatrix | None
    real_structure: Antiunitary


DiracMode = Literal["zero", "gamma1"]


@lru_cache(maxsize=None)
def canonical_triple(p: int, q: int, dirac_mode: DiracMode = "zero") -> FiniteSpectralTriple:
    """The reference triple on the Cl(p,q) gamma representation.

    The Dirac operator is either 0 or the first generator; the latter is
    hermitian only when p >= 1, so ``gamma1`` with p = 0 is rejected.
    The algebra-generator list is left empty: chirality anticommutes
    with every gamma, so the gammas themselves can never serve as
    algebra elements, and none of the sign calculus needs an algebra
    action.
    """
    rep = build_gammas(p, q)
    if dirac_mode == "gamma1":
        if p < 1:
            raise NoHermitianGenerator(
                f"Cl({p},{q}) has no hermitian generator; use dirac_mode='zero'"
            )
        dirac = rep.gammas[0]
    elif dirac_mode == "zero":
        dirac = ExactMatrix.zeros(rep.dim, rep.dim)
    else:
        raise InvalidArgument(f"unknown dirac_mode {dirac_mode!r}")
    return FiniteSpectralTriple(
        dim=rep.dim,
        algebra_gens=(),
        dirac=dirac,
        chirality=chirality(rep),
        real_structure=find_real_structure(rep),
    )


# --- validation ----------------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: str | None = None


#: The two sides K conj(A) and A K of J's relation with an operator A.
_Sides = tuple[ExactMatrix, ExactMatrix]


class _Measured(NamedTuple):
    """(eps, eps', eps'') as measured: eps is None when J o J is not +-I;
    eps' is None when D = 0, eps'' is None without a chirality, and either
    is 0 when J has no uniform sign against that operator.  ``sides`` are
    those of the first operator with no uniform sign, else None."""

    eps: int | None
    eps_prime: int | None
    eps_dprime: int | None
    sides: _Sides | None = None


@dataclass(frozen=True)
class ValidationReport:
    """The per-axiom checks of one triple, and J's signs as they measured them."""

    checks: tuple[AxiomCheck, ...]
    #: J's signs with the sides of the first relation without a uniform
    #: sign; None when the operator shapes fail and nothing further is checked
    measured: _Measured | None = None
    #: the triple, kept only when its shapes fail, so that ``require_signs``
    #: can measure it as ``extract_signs`` does
    misshaped: FiniteSpectralTriple | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    @property
    def signs(self) -> SignTriple | None:
        """J's signs; None when the operator shapes fail, J o J is not +-I,
        or J has no uniform sign against D or Omega."""
        m = self.measured
        if m is None or m.eps is None or m.eps_prime == 0 or m.eps_dprime == 0:
            return None
        return SignTriple(m.eps, m.eps_prime, m.eps_dprime)

    def require_signs(self) -> SignTriple:
        """J's signs, or what ``extract_signs`` raises on the same triple."""
        if self.measured is None:
            return extract_signs(self.misshaped)
        return _sign_triple(self.measured)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"{mark}  {c.name}{suffix}")
        return "\n".join(lines)


def _relation_sign(k: ExactMatrix, op: ExactMatrix) -> tuple[int, _Sides | None]:
    """Sign s with K conj(op) = s * op K, or 0 and the two sides if neither
    sign holds."""
    lhs = k @ op.conj()
    rhs = op @ k
    if lhs == rhs:
        return 1, None
    if lhs == -rhs:
        return -1, None
    return 0, (lhs, rhs)


def _measure_signs(t: FiniteSpectralTriple, stop_at_failure: bool = False) -> _Measured:
    """J's three signs.  With ``stop_at_failure`` the signs after the first
    one that fails are left unmeasured (None), since extract_signs raises
    at that one anyway."""
    k = t.real_structure.k
    eps = as_sign_times_identity(t.real_structure.squared())
    if eps is None and stop_at_failure:
        return _Measured(eps, None, None)
    eps_prime = eps_dprime = sides = None
    if not t.dirac.is_zero():
        eps_prime, sides = _relation_sign(k, t.dirac)
        if sides is not None and stop_at_failure:
            return _Measured(eps, eps_prime, None, sides)
    if t.chirality is not None:
        eps_dprime, omega_sides = _relation_sign(k, t.chirality)
        sides = sides or omega_sides
    return _Measured(eps, eps_prime, eps_dprime, sides)


def _sign_triple(measured: _Measured) -> SignTriple:
    eps, eps_prime, eps_dprime, sides = measured
    if eps is None:
        raise NotSignInvolutive("J squared is not +-identity")
    if eps_prime == 0:
        raise IndefiniteSign("J has no uniform commutation sign with D", sides)
    if eps_dprime == 0:
        raise IndefiniteSign("J has no uniform commutation sign with Omega", sides)
    return SignTriple(eps, eps_prime, eps_dprime)


def _mismatch(a: ExactMatrix, b: ExactMatrix) -> str | None:
    """The first entry, in row-major order, where two same-shape matrices
    differ, or None when they are equal."""
    # Entries compare as numerators over the common denominator a.den * b.den.
    fa, fb = b.den, a.den
    for i, (ra, rb) in enumerate(zip(a.sparse_rows, b.sparse_rows)):
        if ra == rb and fa == fb:
            continue
        da = {j: (fa * re, fa * im) for j, re, im in ra}
        db = {j: (fb * re, fb * im) for j, re, im in rb}
        if da != db:
            j = min(c for c in da.keys() | db.keys() if da.get(c) != db.get(c))
            return f"entry ({i},{j}): {a.entry(i, j)} != {b.entry(i, j)}"
    return None


def validate_triple(t: FiniteSpectralTriple) -> ValidationReport:
    """Check every defining axiom; pure, returns a per-axiom report."""
    return _validate(t)


def _validate(t: FiniteSpectralTriple) -> ValidationReport:
    """The report ``validate_triple`` returns.  The package's own callers,
    which read its signs, call this one, so the benchmark's
    ``triples.validate_triple`` span counts only direct validations."""
    checks: list[AxiomCheck] = []

    def add(name: str, passed: bool, witness: str | None = None) -> None:
        checks.append(AxiomCheck(name, passed, None if passed else witness))

    d, om, k = t.dirac, t.chirality, t.real_structure.k

    ops = (d, k) + (() if om is None else (om,)) + t.algebra_gens
    shape_ok = all(m.is_square and m.rows == t.dim for m in ops)
    add("operator_shapes", shape_ok, "operator dimensions disagree with dim")
    if not shape_ok:
        return ValidationReport(tuple(checks), misshaped=t)

    def add_equal(name: str, a: ExactMatrix, b: ExactMatrix, prefix: str = "") -> None:
        witness = _mismatch(a, b)
        add(name, witness is None, f"{prefix}{witness}")

    add_equal("dirac_hermitian", d, d.dagger())

    if om is not None:
        zero = ExactMatrix.zeros(t.dim, t.dim)
        add_equal("chirality_hermitian", om, om.dagger())
        add_equal("chirality_involution", om @ om, ExactMatrix.identity(t.dim))
        if d.is_zero():
            add("dirac_anticommutes_chirality", True, None)
        else:
            add_equal("dirac_anticommutes_chirality", d @ om + om @ d, zero)
        for idx, a in enumerate(t.algebra_gens):
            add_equal(f"chirality_commutes_gen_{idx}", om @ a - a @ om, zero,
                      f"[Omega, gen {idx}] != 0: ")

    # K is unitary by construction: Antiunitary checks it, and its tensor
    # product of unitaries is unitary.  The entry stays in the report.
    add("real_structure_unitary", True)

    measured = _measure_signs(t)
    eps, eps_prime, eps_dprime, _sides = measured
    add("real_structure_sign_involutive", eps is not None,
        "K conj(K) is not +-identity")
    add("real_structure_vs_dirac", eps_prime != 0,  # None (D = 0) passes
        "J neither commutes nor anticommutes uniformly with D")
    if om is not None:
        add("real_structure_vs_chirality", eps_dprime != 0,
            "J neither commutes nor anticommutes uniformly with Omega")

    kd = k.dagger()
    for i, a in enumerate(t.algebra_gens):
        for j, b in enumerate(t.algebra_gens):
            conj_b = k @ b.transpose() @ kd  # J b^dagger J^{-1} as a linear operator
            comm = a @ conj_b - conj_b @ a
            add(f"order_zero_{i}_{j}", comm.is_zero(),
                f"[gen {i}, J gen{j}^dagger J^-1] != 0")

    return ValidationReport(tuple(checks), measured)


# --- sign extraction and table lookup -------------------------------------------

def extract_signs(t: FiniteSpectralTriple) -> SignTriple:
    """Measure (eps, eps', eps'') directly from the operators.

    eps' is absent when D = 0 and eps'' when there is no chirality;
    nothing is ever assumed from the table here.
    """
    return _sign_triple(_measure_signs(t, stop_at_failure=True))


def ko_from_signs(signs: SignTriple, parity: Literal["even", "odd"]) -> int:
    """Invert the sign table.

    Even classes are determined by (eps, eps''); eps' is redundant there
    and, when present, must be +1 (every even row has eps' = +1).  Odd
    classes are determined by (eps, eps').
    """
    if parity == "even":
        if signs.eps_dprime is None:
            raise IncompleteSigns("even lookup needs eps''")
        if signs.eps_prime is not None and signs.eps_prime != +1:
            raise NoTableMatch(
                f"even rows all carry eps' = +1; got {signs}"
            )
        return _EVEN_LOOKUP[(signs.eps, signs.eps_dprime)]
    if parity == "odd":
        if signs.eps_prime is None:
            raise IncompleteSigns("odd lookup needs eps'")
        return _ODD_LOOKUP[(signs.eps, signs.eps_prime)]
    raise InvalidArgument(f"parity must be 'even' or 'odd', got {parity!r}")


# --- twisting and restriction -----------------------------------------------------

def twist_real_structure(t: FiniteSpectralTriple) -> FiniteSpectralTriple:
    """Replace J by J o Omega (linear part K conj(Omega)).

    The signs transform as (eps, eps', eps'') -> (eps*eps'', -eps', eps''),
    so a twisted even triple with D != 0 leaves the sign table; twisting
    twice restores J exactly since Omega^2 = I.
    """
    if t.chirality is None:
        raise NoChirality("twisting needs a chirality operator")
    return FiniteSpectralTriple(
        dim=t.dim,
        algebra_gens=t.algebra_gens,
        dirac=t.dirac,
        chirality=t.chirality,
        real_structure=t.real_structure.precompose_linear(t.chirality),
    )


def restrict_majorana_weyl(t: FiniteSpectralTriple) -> tuple[int, int]:
    """Real dimensions of {J v = v} and of {J v = v, Omega v = v}.

    The triple must pass validation (else InvalidTriple), and the
    dimensions are defined only when eps = +1 (so J has fixed vectors) and
    eps'' = +1 (so J preserves the chirality eigenspaces).  They are then
    read off, with no linear system solved.  An antilinear J with J o J = I
    on C^n splits every v as (v + Jv)/2 + i (v - Jv)/(2i), both parts fixed
    by J, so its fixed set is a real form of C^n: real dimension n.  When
    J also commutes with the hermitian involution Omega, J maps
    ker(Omega - I) to itself, and the same split there gives real
    dimension dim_C ker(Omega - I) = (n + tr Omega)/2.
    """
    report = _validate(t)
    signs = report.require_signs()
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        raise InvalidTriple(f"triple fails validation: {names}")
    if signs.eps != +1 or signs.eps_dprime != +1:
        raise RestrictionUndefined(
            f"needs eps = +1 and eps'' = +1, got {signs}"
        )
    assert t.chirality is not None  # eps_dprime != None implies a chirality
    twice = t.dim + t.chirality.trace()
    # Omega's eigenvalues are +-1, so its trace is an integer of n's parity.
    assert twice.im == 0 and isinstance(twice.re, int) and twice.re % 2 == 0, twice
    return t.dim, twice.re // 2
