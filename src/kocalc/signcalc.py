"""Matrix-free product calculus on the mod-8 sign table.

Everything here works purely on table rows: given the classes sigma1 and
sigma2 of the factors, the composition rules decide whether a product
exists, and if so which class it lands in.  One replay multiplies
explicit triples and judges each product against the calculus cell of
the classes it is given; ``matrix_calculus_agreement`` runs it on the
even-even representatives, and the signature sweep in ``tests/`` on every
canonical triple.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from .errors import AdditivityViolation, InvalidArgument, NoTableMatch
from .products import (
    Incompatible,
    ProductMode,
    predicted_signs,
    verify_product,
)
from .triples import (
    EPSILON_TABLE,
    FiniteSpectralTriple,
    SignTriple,
    _validate,
    canonical_triple,
    extract_signs,
    ko_from_signs,
)

#: Smallest gamma-representation realizing each even class (all of dim <= 4).
MATRIX_REPRESENTATIVES: dict[int, tuple[int, int]] = {
    0: (1, 1),
    2: (2, 0),
    4: (4, 0),
    6: (0, 2),
}


def epsilon_table_cells() -> tuple[dict[int, dict[str, dict[str, Any]]], bool]:
    """The sign table with the provenance of each cell, and whether it holds.

    Each cell is ``{"value": sign or None, "provenance": "stored" or
    "verified"}``.  The eps and eps'' cells of each class in
    ``MATRIX_REPRESENTATIVES`` are measured on its canonical triple, and so
    is eps' where that triple's D is nonzero; every other cell is the
    stored ``EPSILON_TABLE`` value.  The flag is False when a measured sign
    differs from the stored one.
    """
    cells: dict[int, dict[str, dict[str, Any]]] = {}
    consistent = True
    for sigma in range(8):
        stored = EPSILON_TABLE[sigma]
        row = {
            "eps": {"value": stored.eps, "provenance": "stored"},
            "eps_prime": {"value": stored.eps_prime, "provenance": "stored"},
            "eps_dprime": {"value": stored.eps_dprime, "provenance": "stored"},
        }
        if sigma in MATRIX_REPRESENTATIVES:
            p, q = MATRIX_REPRESENTATIVES[sigma]
            measured = extract_signs(canonical_triple(p, q, "gamma1" if p >= 1 else "zero"))
            row["eps"] = {"value": measured.eps, "provenance": "verified"}
            row["eps_dprime"] = {"value": measured.eps_dprime, "provenance": "verified"}
            if measured.eps_prime is not None:
                row["eps_prime"] = {"value": measured.eps_prime, "provenance": "verified"}
            if (measured.eps != stored.eps
                    or measured.eps_dprime != stored.eps_dprime
                    or (measured.eps_prime is not None
                        and measured.eps_prime != stored.eps_prime)):
                consistent = False
        cells[sigma] = row
    return cells, consistent


@dataclass(frozen=True)
class CompatibilityEntry:
    """Outcome of the calculus for one (sigma1, sigma2, mode) cell."""

    sigma1: int
    sigma2: int
    mode: ProductMode
    compatible: bool
    sigma_product: int | None = None
    violated_relation: str | None = None
    signs: SignTriple | None = None
    without_chirality: bool = False  # compatible, but no Omega2 means no product chirality
    undefined: bool = False          # structurally undefined, not merely sign-incompatible

    def __post_init__(self) -> None:
        if self.compatible:
            if self.sigma_product is None or self.violated_relation is not None or self.undefined:
                raise InvalidArgument("compatible entries carry a product class and no violation")
        else:
            if self.violated_relation is None:
                raise InvalidArgument("incompatible entries must name the violated relation")

    @property
    def status(self) -> str:
        if self.compatible:
            return "compatible-without-chirality" if self.without_chirality else "compatible"
        return "undefined" if self.undefined else "incompatible"


def _entry(sigma1: int, sigma2: int, mode: ProductMode) -> CompatibilityEntry:
    s1 = EPSILON_TABLE[sigma1]
    s2 = EPSILON_TABLE[sigma2]
    if s1.eps_dprime is None:
        return CompatibilityEntry(
            sigma1, sigma2, mode, compatible=False, undefined=True,
            violated_relation="first factor has no chirality: the product Dirac operator "
                              "and the consistency constraint both require Omega1",
        )
    if mode is ProductMode.MODIFIED and s2.eps_dprime is None:
        return CompatibilityEntry(
            sigma1, sigma2, mode, compatible=False, undefined=True,
            violated_relation="second factor has no chirality to build the modified "
                              "real structure J1 (x) J2 Omega2",
        )
    pred = predicted_signs(s1, s2, mode)
    if isinstance(pred, Incompatible):
        return CompatibilityEntry(
            sigma1, sigma2, mode, compatible=False,
            violated_relation=pred.violated_relation,
        )
    parity = "even" if pred.eps_dprime is not None else "odd"
    try:
        sigma = ko_from_signs(pred, parity)
    except NoTableMatch as exc:
        return CompatibilityEntry(
            sigma1, sigma2, mode, compatible=False,
            violated_relation=f"composed signs match no table row: {exc}",
        )
    return CompatibilityEntry(
        sigma1, sigma2, mode, compatible=True, sigma_product=sigma,
        signs=pred, without_chirality=(pred.eps_dprime is None),
    )


def enumerate_compatible(sigma1: int, mode: ProductMode) -> tuple[CompatibilityEntry, ...]:
    """All eight sigma2 cells for a fixed first-factor class and mode."""
    if sigma1 not in range(8):
        raise InvalidArgument(f"sigma1 must be in 0..7, got {sigma1}")
    return tuple(_entry(sigma1, sigma2, mode) for sigma2 in range(8))


def case_annotations(sigma1: int, mode: ProductMode) -> tuple[str, ...]:
    """Known divergences between the published case analysis and the equations.

    The composition rules and the table are taken as authoritative; where
    the published prose case lists disagree with them, the recomputed
    outcome is reported together with this annotation.
    """
    if mode is ProductMode.NATURAL and sigma1 == 6:
        return (
            "divergence: the published case analysis lists the odd classes {1, 5} "
            "here, but the constraint eps1' = eps1''*eps2' forces eps2' = -1, "
            "which selects {3, 7}",
            "divergence: the published case analysis states eps = +eps2 for this "
            "case; the composition rule gives eps = eps1*eps2 = -eps2 (eps1 = -1), "
            "which is what mod-8 additivity confirms",
        )
    if mode is ProductMode.MODIFIED and sigma1 == 2:
        return (
            "divergence: the published case analysis states eps = -eps2*eps2'' for "
            "this case; the composition rule gives eps = +eps2*eps2'' (eps1 = +1), "
            "which matches the sigma = 0 outcome at sigma2 = 6",
        )
    return ()


@dataclass(frozen=True)
class ScenarioCase:
    sigma1: int
    solutions: tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    """A named product search: an even second factor that lands the product
    of a first factor of each class in ``published`` in ``target_sigma``
    with ``target_signs``.  ``published`` holds the answers the paper
    states, written out rather than computed, so that a report can be
    checked against them."""

    mode: ProductMode
    target_sigma: int
    target_signs: SignTriple
    published: tuple[ScenarioCase, ...]


#: ``connes``: natural mode, first factor of class 4, target class 6 with
#: signs (-1, +1, -1); the unique answer is sigma2 = 2.
#: ``barrett``: modified mode, first factor of class 2 or 6, target class 0
#: with signs (+1, +1, +1); the answers are sigma2 = 6 and sigma2 = 2.
SCENARIOS: dict[str, Scenario] = {
    "connes": Scenario(ProductMode.NATURAL, 6, SignTriple(-1, +1, -1),
                       (ScenarioCase(4, (2,)),)),
    "barrett": Scenario(ProductMode.MODIFIED, 0, SignTriple(+1, +1, +1),
                        (ScenarioCase(2, (6,)), ScenarioCase(6, (2,)))),
}


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    mode: ProductMode
    target_sigma: int
    target_signs: SignTriple
    cases: tuple[ScenarioCase, ...]
    published: tuple[ScenarioCase, ...]

    @property
    def expected(self) -> dict[int, tuple[int, ...]]:
        """The solutions the calculus finds, by first-factor class."""
        return {c.sigma1: c.solutions for c in self.cases}

    @property
    def matches_expected(self) -> bool:
        """Whether the calculus finds exactly the published answers."""
        return self.cases == self.published


def scenario_check(name: str) -> ScenarioReport:
    """Replay a named product search of ``SCENARIOS`` on the calculus."""
    if name not in SCENARIOS:
        raise InvalidArgument(f"unknown scenario {name!r}; use 'connes' or 'barrett'")
    sc = SCENARIOS[name]
    cases = tuple(
        ScenarioCase(case.sigma1, tuple(
            e.sigma2
            for e in enumerate_compatible(case.sigma1, sc.mode)
            if e.compatible and e.sigma2 % 2 == 0
            and e.sigma_product == sc.target_sigma and e.signs == sc.target_signs
        ))
        for case in sc.published
    )
    return ScenarioReport(name, sc.mode, sc.target_sigma, sc.target_signs, cases, sc.published)


def additivity_scan() -> tuple[CompatibilityEntry, ...]:
    """All 128 cells (8 sigma1 x 8 sigma2 x 2 modes), checking additivity.

    Every compatible cell must satisfy sigma = (sigma1 + sigma2) mod 8;
    a violation raises AdditivityViolation (and means the composition
    rules or the table are wrong, so tests treat it as fatal).
    """
    entries: list[CompatibilityEntry] = []
    for mode in ProductMode:
        for sigma1 in range(8):
            for entry in enumerate_compatible(sigma1, mode):
                if entry.compatible and entry.sigma_product != (sigma1 + entry.sigma2) % 8:
                    raise AdditivityViolation(
                        f"sigma1={sigma1} sigma2={entry.sigma2} mode={mode.value}: "
                        f"product class {entry.sigma_product} != "
                        f"{(sigma1 + entry.sigma2) % 8}"
                    )
                entries.append(entry)
    return tuple(entries)


@dataclass(frozen=True)
class AgreementRow:
    """One even-even cell compared between calculus and matrices."""

    mode: ProductMode
    sigma1: int
    sigma2: int
    entry: CompatibilityEntry
    verification_status: str
    matrix_ko: int | None
    consistent: bool


def _replay(factors: Iterable[tuple[int, FiniteSpectralTriple]]) -> Iterator[AgreementRow]:
    """Every product of two ``(class, triple)`` factors in both modes, by
    mode, first factor and second, against the calculus cell of the stated
    classes: a compatible entry must be confirmed with its class, an
    incompatible one exhibited or not falsifiable.  Each factor is
    validated once."""
    measured = [(sigma, t, _validate(t)) for sigma, t in factors]
    for mode in ProductMode:
        for sigma1, t1, r1 in measured:
            entries = enumerate_compatible(sigma1, mode)
            for sigma2, t2, r2 in measured:
                entry = entries[sigma2]
                v = verify_product(t1, t2, mode, (r1, r2))
                if entry.compatible:
                    consistent = (v.status == "confirmed-compatible"
                                  and v.matrix_ko == entry.sigma_product)
                else:
                    consistent = v.status in ("confirmed-incompatible", "not-falsifiable")
                yield AgreementRow(mode, sigma1, sigma2, entry, v.status, v.matrix_ko, consistent)


def matrix_calculus_agreement() -> tuple[AgreementRow, ...]:
    """Replay every even-even cell on dim <= 4 canonical representatives.

    Representatives use D = G_1 where a hermitian generator exists
    ((0,2) has none and keeps D = 0), so an incompatible cell may be
    not falsifiable because a component D vanishes.
    """
    return tuple(_replay(
        (sigma, canonical_triple(p, q, "gamma1" if p >= 1 else "zero"))
        for sigma, (p, q) in MATRIX_REPRESENTATIVES.items()
    ))
