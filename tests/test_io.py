"""JSON persistence: round trips, byte determinism, golden files, parse errors."""

import json
from pathlib import Path

import pytest

from kocalc.errors import InvalidTriple, ParseError, UnsupportedVersion
from kocalc.linalg import Antiunitary, ExactMatrix
from kocalc.triple_io import (
    SCHEMA_VERSION,
    TripleDocument,
    parse_document,
    parse_triple,
    serialize_triple,
)
from kocalc.triples import FiniteSpectralTriple, canonical_triple

GOLDEN = Path(__file__).parent / "golden"

EVEN_PQ = [(p, n - p) for n in (2, 4) for p in range(n + 1)]


def dirac_modes(p):
    return ("zero", "gamma1") if p >= 1 else ("zero",)


def test_schema_version_constant():
    assert SCHEMA_VERSION == 1


@pytest.mark.parametrize("p,q", EVEN_PQ)
def test_round_trip_identity(p, q):
    for mode in dirac_modes(p):
        t = canonical_triple(p, q, mode)
        back = parse_triple(serialize_triple(t))
        assert back.dim == t.dim
        assert back.dirac == t.dirac
        assert back.chirality == t.chirality
        assert back.real_structure.k == t.real_structure.k
        assert back.algebra_gens == t.algebra_gens


def test_round_trip_preserves_metadata():
    t = canonical_triple(2, 0)
    meta = {"label": "example", "origin": "test"}
    back, parsed_meta = parse_document(serialize_triple(t, meta))
    assert parsed_meta == meta
    assert back.dim == t.dim


def test_serialization_is_byte_deterministic():
    t = canonical_triple(1, 1, "gamma1")
    meta = {"b": "2", "a": "1"}
    assert serialize_triple(t, meta) == serialize_triple(t, dict(reversed(meta.items())))


def test_key_order_is_fixed():
    t = canonical_triple(1, 1)
    doc = json.loads(serialize_triple(t))
    assert list(doc.keys()) == [
        "schema_version", "dim", "dirac", "chirality",
        "real_structure_k", "algebra_gens", "metadata",
    ]


@pytest.mark.parametrize(
    "name,p,q",
    [("canonical_1_1_gamma1.json", 1, 1), ("canonical_2_0_gamma1.json", 2, 0)],
)
def test_golden_files(name, p, q):
    t = canonical_triple(p, q, "gamma1")
    meta = {"generator": "canonical", "p": str(p), "q": str(q), "dirac": "gamma1"}
    assert serialize_triple(t, meta) == (GOLDEN / name).read_bytes()


def test_entries_use_lowest_terms_strings():
    t = canonical_triple(1, 1, "gamma1")
    doc = json.loads(serialize_triple(t))
    entries = doc["chirality"]["entries"]
    assert {"re": "0", "im": "-1"} in entries
    for e in entries:
        assert set(e) == {"re", "im"}
        assert isinstance(e["re"], str) and isinstance(e["im"], str)


def test_output_ends_with_newline_and_is_ascii():
    data = serialize_triple(canonical_triple(2, 0))
    assert data.endswith(b"\n")
    data.decode("ascii")  # raises if any non-ascii byte leaked in


# --- parse failures -------------------------------------------------------------


def _valid_doc() -> dict:
    return json.loads(serialize_triple(canonical_triple(2, 0, "gamma1")))


def _parse(doc: dict):
    return parse_triple(json.dumps(doc).encode())


def test_zero_denominator_rejected_with_location():
    doc = _valid_doc()
    doc["dirac"]["entries"][0]["re"] = "3/0"
    with pytest.raises(ParseError) as err:
        _parse(doc)
    assert "dirac.entries[0].re" in str(err.value)


def test_malformed_rational_rejected():
    doc = _valid_doc()
    doc["chirality"]["entries"][1]["im"] = "1.5"
    with pytest.raises(ParseError) as err:
        _parse(doc)
    assert "chirality.entries[1].im" in str(err.value)


def test_wrong_schema_version():
    doc = _valid_doc()
    doc["schema_version"] = 2
    with pytest.raises(UnsupportedVersion):
        _parse(doc)


@pytest.mark.parametrize("path,location", [
    (("schema_version",), "schema_version"),
    (("dim",), "dim"),
    (("dirac", "rows"), "dirac.rows"),
    (("chirality", "cols"), "chirality.cols"),
])
def test_boolean_integers_rejected(path, location):
    # JSON true loads as a bool, which Python counts as the int 1
    doc = _valid_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = True
    with pytest.raises(ParseError) as err:
        _parse(doc)
    assert err.value.location == location
    assert path[-1] in str(err.value)


def test_missing_and_unknown_keys():
    doc = _valid_doc()
    del doc["dim"]
    with pytest.raises(ParseError):
        _parse(doc)
    doc = _valid_doc()
    doc["extra"] = 1
    with pytest.raises(ParseError):
        _parse(doc)


def test_not_json_and_not_utf8():
    with pytest.raises(ParseError):
        parse_triple(b"{not json")
    with pytest.raises(ParseError):
        parse_triple(b"\xff\xfe{}")


def test_shape_mismatch_rejected():
    doc = _valid_doc()
    doc["dirac"]["entries"] = doc["dirac"]["entries"][:3]
    with pytest.raises(ParseError):
        _parse(doc)


def test_validation_failure_after_parse():
    doc = _valid_doc()
    # corrupt D so it stops being hermitian: parse succeeds, axioms fail
    doc["dirac"]["entries"][1]["re"] = "7"
    with pytest.raises(InvalidTriple) as err:
        _parse(doc)
    assert "dirac_hermitian" in str(err.value)


def test_parse_can_skip_validation():
    doc = _valid_doc()
    doc["dirac"]["entries"][1]["re"] = "7"
    t = parse_triple(json.dumps(doc).encode(), validate=False)
    assert t.dirac.entry(0, 1) == 7


def test_non_unitary_real_structure_is_invalid_triple():
    doc = _valid_doc()
    for e in doc["real_structure_k"]["entries"]:
        e["re"], e["im"] = "2", "0"
    with pytest.raises(InvalidTriple):
        _parse(doc)


def test_document_from_triple_and_back():
    t = canonical_triple(1, 1, "gamma1")
    doc = TripleDocument.from_triple(t, {"k": "v"})
    assert doc.schema_version == SCHEMA_VERSION
    rebuilt = doc.to_triple()
    assert rebuilt.dirac == t.dirac
    assert doc.metadata == (("k", "v"),)
