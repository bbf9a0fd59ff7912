"""JSON persistence: round trips, byte determinism, golden files, parse errors."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kocalc.triple_io as triple_io
from kocalc.cli import run_cli
from kocalc.errors import InvalidArgument, InvalidTriple, ParseError, UnsupportedVersion
from kocalc.linalg import GR_I, GR_ZERO, Antiunitary, ExactMatrix, GaussianRational
from kocalc.products import ProductMode, product_triple
from kocalc.triple_io import (
    MAX_DOCUMENT_DIM,
    SCHEMA_VERSION,
    _read_canonical,
    _read_json,
    parse_document,
    parse_triple,
    serialize_triple,
)
from kocalc.triples import FiniteSpectralTriple, canonical_triple, twist_real_structure

from oracles import to_json_dict
from test_cli_golden import write_inputs

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


def test_entry_location_counts_row_major_across_rows():
    doc = _valid_doc()
    doc["chirality"]["entries"][3]["re"] = "x"
    with pytest.raises(ParseError) as err:
        _parse(doc)
    assert str(err.value).startswith("chirality.entries[3].re: malformed rational")
    doc = _valid_doc()
    doc["dirac"]["entries"][2] = ["1", "0"]
    with pytest.raises(ParseError) as err:
        _parse(doc)
    assert str(err.value) == (
        "dirac.entries[2]: entry must be an object with exactly the keys 're' and 'im'")


def test_parsed_blocks_store_only_nonzeros():
    doc = _valid_doc()
    doc["dirac"]["entries"][2] = {"re": "0", "im": "1/3"}
    t = parse_triple(json.dumps(doc).encode(), validate=False)
    # numerators over the common denominator 3
    assert t.dirac.den == 3
    assert t.dirac.sparse_rows == (((1, 3, 0),), ((0, 0, 1),))
    assert t.dirac == ExactMatrix(2, 2, t.dirac.entries)


@pytest.mark.parametrize("text,canonical", [
    ("-0", "0"), ("-00", "0"), ("002/2", "1"), ("2/4", "1/2"), ("3/1", "3"),
])
def test_non_canonical_rational_rejected_with_location(text, canonical, tmp_path, capsys):
    doc = _valid_doc()
    doc["dirac"]["entries"][0]["re"] = text
    with pytest.raises(ParseError) as err:
        _parse(doc)
    assert "dirac.entries[0].re" in str(err.value)
    assert f"expected {canonical!r}" in str(err.value)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["validate", str(path)]) == 2
    assert "dirac.entries[0].re" in capsys.readouterr().err


def test_parser_builds_ints_for_integral_parts():
    t = parse_triple(json.dumps(_valid_doc()).encode())
    mats = (t.dirac, t.chirality, t.real_structure.k)
    assert all(m.den == 1 for m in mats)
    parts = [p for m in mats for v in m.entries for p in (v.re, v.im)]
    assert parts and all(type(p) is int for p in parts)
    doc = _valid_doc()
    doc["dirac"]["entries"][1] = {"re": "-3/4", "im": "5"}
    entry = parse_triple(json.dumps(doc).encode(), validate=False).dirac.entry(0, 1)
    assert entry.re == Fraction(-3, 4) and type(entry.im) is int


def test_overlong_rational_is_a_parse_error():
    doc = _valid_doc()
    doc["dirac"]["entries"][0]["re"] = "1" * 5000
    with pytest.raises(ParseError) as err:
        _parse(doc)
    assert "dirac.entries[0].re" in str(err.value)


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
    data = serialize_triple(t, {"k": "v"})
    assert json.loads(data)["schema_version"] == SCHEMA_VERSION
    rebuilt, meta = parse_document(data)
    assert rebuilt.dirac == t.dirac
    assert meta == {"k": "v"}


# --- the direct emitter against the stdlib encoder ----------------------------------

_parts = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
_cells = st.one_of(st.just(GR_ZERO), st.builds(GaussianRational, _parts, _parts))


def _square(n):
    return st.lists(_cells, min_size=n * n, max_size=n * n).map(
        lambda cells: ExactMatrix(n, n, cells))


@st.composite
def documents(draw):
    """Unvalidated triples with fractional entries, optional chirality,
    any number of generators, and metadata in any script."""
    n = draw(st.integers(1, 3))
    phases = draw(st.lists(st.sampled_from([1, -1, GR_I, -GR_I]), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    k = ExactMatrix(n, n, [phases[i] if perm[i] == j else 0
                           for i in range(n) for j in range(n)])
    t = FiniteSpectralTriple(
        dim=n,
        algebra_gens=tuple(draw(st.lists(_square(n), max_size=3))),
        dirac=draw(_square(n)),
        chirality=draw(st.one_of(st.none(), _square(n))),
        real_structure=Antiunitary(k),
    )
    meta = draw(st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=4))
    return t, meta


_HALF = GaussianRational(Fraction(1, 2), Fraction(-3, 4))


@settings(max_examples=40)
@given(documents())
@example((FiniteSpectralTriple(
    dim=2,
    algebra_gens=(ExactMatrix.from_rows([[_HALF, 0], [0, 2]]), ExactMatrix.identity(2)),
    dirac=ExactMatrix.from_rows([[0, _HALF], [_HALF.conjugate(), 0]]),
    chirality=None,
    real_structure=Antiunitary(ExactMatrix.from_rows([[0, GR_I], [1, 0]])),
), {"σ": "Ω ∘ J", "note": "tab\tquote\"", "ü": ""}))
def test_serializer_matches_the_stdlib_encoder(case):
    t, meta = case
    expected = json.dumps(to_json_dict(t, meta), indent=2, ensure_ascii=True) + "\n"
    assert serialize_triple(t, meta) == expected.encode("utf-8")
    back, back_meta = parse_document(serialize_triple(t, meta))
    assert back == t and back_meta == meta


# --- the canonical reader against the json.loads route --------------------------------

SEED_HASHES = json.loads(
    (Path(__file__).resolve().parents[1] / "kobench" / "seed_hashes.json").read_text())


def _canonical_meta(p, q, mode):
    return {"generator": "canonical", "p": str(p), "q": str(q), "dirac": mode}


def _workload_document(name: str) -> bytes:
    """The document the benchmark's workloads write under seed hash ``name``."""
    kind, *rest = name.split("-")
    if kind == "canonical":
        p, q, mode = int(rest[0]), int(rest[1]), rest[2]
        return serialize_triple(canonical_triple(p, q, mode), _canonical_meta(p, q, mode))
    if kind == "twist":
        p, q, mode = int(rest[1]), int(rest[2]), rest[3]
        return serialize_triple(twist_real_structure(canonical_triple(p, q, mode)),
                                _canonical_meta(p, q, mode))
    mode, p1, q1, _x, p2, q2 = rest
    factors = [canonical_triple(int(p), int(q), "gamma1") for p, q in ((p1, q1), (p2, q2))]
    meta = {"generator": "product", "mode": mode,
            "sigma1": str((int(p1) - int(q1)) % 8), "sigma2": str((int(p2) - int(q2)) % 8)}
    return serialize_triple(product_triple(*factors, ProductMode(mode)), meta)


WORKLOAD_DOCUMENTS = {name: _workload_document(name) for name in sorted(SEED_HASHES)}


def _outcome(read, data):
    """What a read gives: the (triple, metadata) pair, or the error's class and text."""
    try:
        return read(data)
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)


def _accepted_by_canonical_reader(data: bytes) -> bool:
    try:
        return _read_canonical(data) is not None
    except Exception:  # the json.loads route would read it
        return False


def _same_on_both_routes(data) -> None:
    assert _outcome(parse_document, data) == _outcome(_read_json, data)


def test_workload_documents_are_the_benchmarks():
    for name, data in WORKLOAD_DOCUMENTS.items():
        assert hashlib.sha256(data).hexdigest() == SEED_HASHES[name], name


def test_golden_documents_read_alike_on_both_routes(tmp_path):
    write_inputs(tmp_path)
    paths = sorted(GOLDEN.glob("*.json")) + sorted(tmp_path.glob("*.json"))
    assert len(paths) == 2 + 11
    for path in paths:
        _same_on_both_routes(path.read_bytes())


@pytest.mark.parametrize("name", sorted(WORKLOAD_DOCUMENTS))
def test_workload_documents_take_the_canonical_reader(name):
    data = WORKLOAD_DOCUMENTS[name]
    assert _accepted_by_canonical_reader(data)
    _same_on_both_routes(data)
    _same_on_both_routes(data.decode())


def test_canonical_reader_passes_no_block_to_json_loads():
    data = WORKLOAD_DOCUMENTS["product-natural-4-4-x-2-2"]
    sizes = []
    loads = json.loads

    def recording(s, *args, **kwargs):
        sizes.append(len(s))
        return loads(s, *args, **kwargs)

    with mock.patch.object(triple_io.json, "loads", recording):
        triple, _meta = parse_document(data)
    assert triple.dim == 64
    assert sizes and max(sizes) < 200  # the metadata object alone


def test_the_largest_canonical_triple_can_be_written_and_read():
    t = canonical_triple(14, 0, "gamma1")  # p+q = 14 is build_gammas' limit
    assert t.dim == MAX_DOCUMENT_DIM == 128
    data = serialize_triple(t)
    assert _read_canonical(data) == (t, {}) == _read_json(data)


def _text_doc(data: bytes, old: bytes, new: bytes) -> bytes:
    assert old in data
    return data.replace(old, new, 1)


_C20 = (GOLDEN / "canonical_2_0_gamma1.json").read_bytes()


@pytest.mark.parametrize("data,error,location", [
    # a metadata value that is a number
    (_text_doc(_C20, b'"p": "2"', b'"p": 1'), "metadata must map strings to strings", "metadata"),
    # dim 2 -> 3 while every block stays 2x2
    (_text_doc(_C20, b'"dim": 2,', b'"dim": 3,'), "dirac must be 3x3", "dirac"),
], ids=["metadata-number", "dim-2-to-3"])
def test_documents_that_write_back_alike_but_do_not_parse(data, error, location):
    with pytest.raises(ParseError) as err:
        parse_document(data)
    assert err.value.location == location and str(err.value) == f"{location}: {error}"
    _same_on_both_routes(data)
    assert not _accepted_by_canonical_reader(data)


def test_duplicate_keys_are_a_parse_error_naming_the_key(tmp_path, capsys):
    data = _text_doc(_C20, b'"dim": 2,', b'"dim": 7,\n  "dim": 2,')
    with pytest.raises(ParseError, match="duplicate key 'dim'"):
        parse_document(data)
    doc = json.loads(_C20)
    cell = json.dumps(doc["dirac"]["entries"][1])
    text = json.dumps(doc).replace(cell, cell[:-1] + ', "im": "0"}', 1).encode()
    with pytest.raises(ParseError, match="duplicate key 'im'"):
        parse_document(text)
    path = tmp_path / "dup.json"
    path.write_bytes(data)
    assert run_cli(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: duplicate key 'dim' in a JSON object\n"


def test_document_dimension_bound(tmp_path, capsys):
    t = canonical_triple(2, 2, "gamma1")  # dim 4
    data = serialize_triple(t)
    # a dim over the bound is refused before any block is read
    junk = json.dumps({**json.loads(data), "dim": 5, "dirac": "junk"})
    with mock.patch.object(triple_io, "MAX_DOCUMENT_DIM", 2):
        with pytest.raises(InvalidArgument, match="dimension 4: the limit is 2"):
            serialize_triple(t)
        for text in (data, junk.encode()):
            with pytest.raises(ParseError) as err:
                parse_document(text)
            assert err.value.location == "dim"
            _same_on_both_routes(text)
        # dim 2 factors are read, and their dim 4 product is not written
        a = tmp_path / "a.json"
        a.write_bytes(serialize_triple(canonical_triple(2, 0, "gamma1")))
        out = tmp_path / "out.json"
        code = run_cli(["product", "--mode", "modified", str(a), str(a), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "error: cannot write a document of dimension 4: the limit is 2\n")
        # a block larger than dim is measured too
        wide = FiniteSpectralTriple(dim=1, algebra_gens=(), dirac=ExactMatrix.zeros(3, 3),
                                    chirality=None,
                                    real_structure=Antiunitary(ExactMatrix.identity(1)))
        with pytest.raises(InvalidArgument, match="dimension 3"):
            serialize_triple(wide)


# hypothesis mutations of canonical documents, read on both routes

_SMALL = [data for name, data in WORKLOAD_DOCUMENTS.items()
          if name.startswith("canonical") and len(data) < 60_000]


def _with_generators(data: bytes) -> bytes:
    t, meta = parse_document(data)
    return serialize_triple(dataclasses.replace(t, algebra_gens=(ExactMatrix.identity(t.dim),)),
                            meta)


@st.composite
def mutated_documents(draw):
    data = draw(st.sampled_from(_SMALL))
    kind = draw(st.sampled_from([
        "insert", "delete", "replace", "indent", "reorder", "duplicate", "cell",
        "metadata", "dim", "generators"]))
    if kind in ("insert", "delete", "replace"):
        at = draw(st.integers(0, len(data) - 1))
        byte = bytes([draw(st.integers(0, 255))])
        return data[:at] + {"insert": byte + data[at:at + 1], "delete": b"",
                            "replace": byte}[kind] + data[at + 1:]
    doc = json.loads(data)
    if kind == "indent":
        return json.dumps(doc, indent=4).encode()
    if kind == "reorder":
        keys = draw(st.permutations(list(doc)))
        return (json.dumps({k: doc[k] for k in keys}, indent=2) + "\n").encode()
    if kind == "duplicate":
        key = draw(st.sampled_from(list(doc)))
        return _text_doc(data, b'\n  "%s": ' % key.encode(),
                         b'\n  "%s": %s,\n  "%s": ' % (key.encode(), json.dumps(doc[key]).encode(),
                                                       key.encode()))
    if kind == "cell":
        block = draw(st.sampled_from(["dirac", "chirality", "real_structure_k"]))
        entries = doc[block]["entries"]
        at = draw(st.integers(0, len(entries) - 1))
        part = draw(st.sampled_from(["re", "im"]))
        entries[at][part] = draw(st.sampled_from([0, "0.5", "-0", "0", "1"]))
        return (json.dumps(doc, indent=2) + "\n").encode()
    if kind == "metadata":
        key = draw(st.sampled_from(sorted(doc["metadata"])))
        doc["metadata"][key] = draw(st.sampled_from([1, None, ["x"]]))
        return (json.dumps(doc, indent=2) + "\n").encode()
    if kind == "dim":
        doc["dim"] += draw(st.sampled_from([-1, 1, 2]))
        return (json.dumps(doc, indent=2) + "\n").encode()
    return _with_generators(data)


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
@example(_text_doc(_C20, b'"p": "2"', b'"p": 1'))
@example(_text_doc(_C20, b'"dim": 2,', b'"dim": 3,'))
def test_mutated_documents_read_alike_on_both_routes(data):
    _same_on_both_routes(data)
