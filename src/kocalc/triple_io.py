"""Deterministic JSON persistence for finite spectral triples (schema v1).

Documents carry, in this fixed key order: schema_version, dim, dirac,
chirality, real_structure_k, algebra_gens, metadata.  Matrices are
row-major blocks {"rows": r, "cols": c, "entries": [{"re": "p/q",
"im": "p/q"}, ...]} with rationals as canonical lowest-terms strings.
Serialization is byte-deterministic: the same triple and metadata always
produce identical bytes, and parse(serialize(t)) reproduces t exactly.
The writer first builds a compact form in which each zero cell of a
top-level block, with the separator after it, is one NUL byte; a single
``bytes.replace`` expands that to the document.  So a write costs one
string per nonzero cell, and the exact length is known before expanding.

Reading takes one of two routes to one result.  A document laid out as
the serializer writes it, with no algebra generators, goes to the
canonical reader: a byte search skips the zero cells, only the nonzero
ones are built, and the result is kept only if writing it back, expanded
in full, gives the same bytes.  Any other document, and any the canonical
reader does not keep, goes through ``json.loads``, which also refuses a
name repeated in one object and reports every error.  Both routes refuse
a document over ``MAX_DOCUMENT_BYTES`` before reading it and a dim above
``MAX_DOCUMENT_DIM`` before any block is built; the serializer refuses
to write either.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable, Mapping

from .clifford import MAX_GENERATORS
from .errors import InvalidArgument, InvalidTriple, NotUnitary, ParseError, UnsupportedVersion
from .linalg import Antiunitary, ExactMatrix
from .triples import FiniteSpectralTriple, validate_triple

SCHEMA_VERSION = 1

#: The largest dim a document may declare or be written with, that of the
#: largest canonical triple.  At 54 bytes a zero or one-digit cell, a
#: 128x128 block is 885 KB and a document with D, chirality and K 2.7 MB.
MAX_DOCUMENT_DIM = 2 ** (MAX_GENERATORS // 2)

#: The most bytes a document may have, 4 MiB.  The largest the serializer
#: writes at ``MAX_DOCUMENT_DIM`` with no algebra generators, D, chirality
#: and K of 55-byte cells, is 2.7 MB; the bound leaves room for longer
#: rationals and metadata, or one dim-128 generator, while capping what a
#: read holds in memory.
MAX_DOCUMENT_BYTES = 4 * 2 ** 20

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")

_TOP_KEYS = (
    "schema_version", "dim", "dirac", "chirality",
    "real_structure_k", "algebra_gens", "metadata",
)


def str_to_rational(s: Any, location: str) -> int | Fraction:
    """A canonical rational string as an int when integral, else a Fraction.

    Only the strings ``str`` of an int or a Fraction produces are accepted
    (no sign on zero, no leading zeros, lowest terms, no denominator 1),
    so a parsed document serializes back to the same bytes.
    """
    if not isinstance(s, str):
        raise ParseError(f"rational must be a string, got {type(s).__name__}", location)
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"malformed rational string {s!r}", location)
    if "/" in s and s.split("/")[1].lstrip("0") == "":
        raise ParseError(f"zero denominator in rational {s!r}", location)
    try:
        x = Fraction(s) if "/" in s else int(s)
    except ValueError as exc:  # e.g. more digits than int() converts
        raise ParseError(f"malformed rational string {s!r}: {exc}", location) from exc
    if str(x) != s:
        raise ParseError(f"rational string {s!r} is not canonical (expected {str(x)!r})", location)
    return x


#: how a zero entry is written (handed out only as copies)
_ZERO_CELL = {"re": "0", "im": "0"}

#: In the compact form of a block, one character stands for a zero cell and
#: the separator after it.  The writer emits it nowhere else: rationals are
#: digits, and ``json.dumps(ensure_ascii=True)`` writes a NUL as ``\u0000``.
_ZERO_MARK = "\0"


def _cell_writer(depth: int) -> Callable[[object, object], str]:
    """Writes one cell of a block ``depth`` levels deep, with the separator
    that goes before the next cell."""
    cell_pad = "\n" + "  " * (depth + 2)
    part_pad = cell_pad + "  "

    def cell(re: object, im: object) -> str:
        return f'{{{part_pad}"re": "{re}",{part_pad}"im": "{im}"{cell_pad}}},{cell_pad}'

    return cell


def _block_text(m: ExactMatrix, depth: int) -> str:
    """Matrix block ``m`` as ``json.dumps(..., indent=2)`` writes it ``depth``
    levels deep, in compact form: each zero cell but the last, with the
    separator after it, is the one character ``_ZERO_MARK``, so a block costs
    one string per nonzero cell.  Replacing every mark by
    ``_cell_writer(depth)(0, 0)`` gives the full text, which the canonical
    reader still compares byte for byte with its input.  Rational strings
    need no JSON escaping."""
    pad = "\n" + "  " * depth
    key_pad = pad + "  "
    sep = "," + key_pad + "  "
    cell = _cell_writer(depth)
    d = m.den
    parts: list[str] = []
    for row in m.sparse_rows:
        col = 0
        for j, re, im in row:
            parts.append(_ZERO_MARK * (j - col))
            # str of an int, or of a lowest-terms Fraction: canonical either way
            parts.append(cell(re, im) if d == 1 else cell(Fraction(re, d), Fraction(im, d)))
            col = j + 1
        parts.append(_ZERO_MARK * (m.cols - col))
    entries = "".join(parts)
    if entries.endswith(_ZERO_MARK):
        entries = entries[:-1] + cell(0, 0)
    # the last cell takes no separator
    return (f'{{{key_pad}"rows": {m.rows},{key_pad}"cols": {m.cols},'
            f'{key_pad}"entries": [{sep[1:]}{entries[:-len(sep)]}{key_pad}]{pad}}}')


#: A zero cell and the separator after it in a depth-1 block: what each
#: ``_ZERO_MARK`` of a compact document stands for.
_ZERO_AND_SEP = _cell_writer(1)(0, 0).encode()


def _expanded(compact: bytes) -> bytes:
    return compact.replace(_ZERO_MARK.encode(), _ZERO_AND_SEP)


def _is_int(x: Any) -> bool:
    """A JSON integer; JSON booleans load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _positive_int(x: Any, name: str, location: str) -> int:
    if not _is_int(x) or x < 1:
        raise ParseError(f"{name} must be a positive integer", location)
    return x


def _document_dim(x: Any) -> int:
    dim = _positive_int(x, "dim", "dim")
    if dim > MAX_DOCUMENT_DIM:
        raise ParseError(f"dim {dim} exceeds the limit of {MAX_DOCUMENT_DIM}", "dim")
    return dim


def _block_to_matrix(obj: Any, location: str) -> ExactMatrix:
    if not isinstance(obj, dict):
        raise ParseError(f"matrix block must be an object, got {type(obj).__name__}", location)
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ParseError(f"matrix block missing key {key!r}", location)
    extra = set(obj) - {"rows", "cols", "entries"}
    if extra:
        raise ParseError(f"matrix block has unknown keys {sorted(extra)}", location)
    rows = _positive_int(obj["rows"], "rows", f"{location}.rows")
    cols = _positive_int(obj["cols"], "cols", f"{location}.cols")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix", location
        )
    data = []
    for i in range(rows):
        start = i * cols
        row = []
        for j, ent in enumerate(entries[start:start + cols]):
            if ent == _ZERO_CELL:
                continue
            here = f"{location}.entries[{start + j}]"
            if not isinstance(ent, dict) or set(ent) != {"re", "im"}:
                raise ParseError("entry must be an object with exactly the keys 're' and 'im'", here)
            # "0" is the only canonical zero string, so this value is nonzero.
            row.append((j, str_to_rational(ent["re"], f"{here}.re"),
                        str_to_rational(ent["im"], f"{here}.im")))
        data.append(row)
    return ExactMatrix._of_rationals(rows, cols, data)


def _document_from_json(obj: Any) -> tuple[FiniteSpectralTriple, dict[str, str]]:
    if not isinstance(obj, dict):
        raise ParseError("document root must be an object", "$")
    missing = [k for k in _TOP_KEYS if k not in obj]
    if missing:
        raise ParseError(f"missing top-level keys {missing}", "$")
    extra = set(obj) - set(_TOP_KEYS)
    if extra:
        raise ParseError(f"unknown top-level keys {sorted(extra)}", "$")

    version = obj["schema_version"]
    if not _is_int(version):
        raise ParseError("schema_version must be an integer", "schema_version")
    if version != SCHEMA_VERSION:
        raise UnsupportedVersion(f"schema version {version} is not supported (expected {SCHEMA_VERSION})")

    dim = _document_dim(obj["dim"])

    dirac = _block_to_matrix(obj["dirac"], "dirac")
    chirality = None
    if obj["chirality"] is not None:
        chirality = _block_to_matrix(obj["chirality"], "chirality")
    k = _block_to_matrix(obj["real_structure_k"], "real_structure_k")

    gens_obj = obj["algebra_gens"]
    if not isinstance(gens_obj, list):
        raise ParseError("algebra_gens must be a list", "algebra_gens")
    gens = tuple(
        _block_to_matrix(g, f"algebra_gens[{i}]") for i, g in enumerate(gens_obj)
    )
    return _checked(dim, dirac, chirality, k, gens, obj["metadata"])


def _checked(dim: int, dirac: Any, chirality: Any, k: Any, gens: tuple[ExactMatrix, ...],
             meta_obj: Any) -> tuple[FiniteSpectralTriple, dict[str, str]]:
    """The triple and sorted metadata, after the checks both read routes
    make once the blocks are built."""
    if not isinstance(meta_obj, dict) or not all(
        isinstance(a, str) and isinstance(b, str) for a, b in meta_obj.items()
    ):
        raise ParseError("metadata must map strings to strings", "metadata")

    for name, m in (("dirac", dirac), ("chirality", chirality), ("real_structure_k", k)):
        if m is not None and (m.rows != dim or m.cols != dim):
            raise ParseError(f"{name} must be {dim}x{dim}", name)
    for i, g in enumerate(gens):
        if g.rows != dim or g.cols != dim:
            raise ParseError(f"algebra_gens[{i}] must be {dim}x{dim}", f"algebra_gens[{i}]")

    try:
        j = Antiunitary(k)
    except NotUnitary as exc:
        raise InvalidTriple(f"real_structure_k: {exc}") from exc
    triple = FiniteSpectralTriple(dim=dim, algebra_gens=gens, dirac=dirac,
                                  chirality=chirality, real_structure=j)
    return triple, dict(sorted(meta_obj.items()))


def check_document_dim(size: int) -> None:
    """Refuse a document whose dim or largest block side ``size`` is over
    ``MAX_DOCUMENT_DIM``."""
    if size > MAX_DOCUMENT_DIM:
        raise InvalidArgument(
            f"cannot write a document of dimension {size}: the limit is {MAX_DOCUMENT_DIM}")


def serialize_triple(
    t: FiniteSpectralTriple, metadata: Mapping[str, str] | None = None
) -> bytes:
    """The document's bytes: exactly what ``json.dumps(..., indent=2,
    ensure_ascii=True)`` writes for the document object, with metadata
    keys sorted, and a newline.  Only the small metadata object goes
    through the pure-Python encoder that ``indent`` selects.  A dim or
    block side over ``MAX_DOCUMENT_DIM`` is refused before any text is
    built, and a document over ``MAX_DOCUMENT_BYTES`` before its compact
    form is expanded."""
    blocks = (t.dirac, t.chirality, t.real_structure.k, *t.algebra_gens)
    check_document_dim(max(t.dim, *(n for m in blocks if m is not None for n in (m.rows, m.cols))))
    compact = _compact_document(t, metadata)
    size = len(compact) + compact.count(_ZERO_MARK.encode()) * (len(_ZERO_AND_SEP) - 1)
    if size > MAX_DOCUMENT_BYTES:
        raise InvalidArgument(
            f"cannot write a document of {size} bytes: the limit is {MAX_DOCUMENT_BYTES}")
    return _expanded(compact)


def _compact_document(t: FiniteSpectralTriple, metadata: Mapping[str, str] | None) -> bytes:
    """The document with its depth-1 blocks in compact form; algebra
    generators, two levels deep, are written in full."""
    gens = "[]"
    if t.algebra_gens:
        gens = ",\n    ".join(_block_text(g, 2) for g in t.algebra_gens)
        gens = "[\n    " + gens.replace(_ZERO_MARK, _cell_writer(2)(0, 0)) + "\n  ]"
    chirality = "null" if t.chirality is None else _block_text(t.chirality, 1)
    meta = json.dumps(dict(sorted((metadata or {}).items())), indent=2,
                      ensure_ascii=True).replace("\n", "\n  ")
    text = (
        "{\n"
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "dim": {json.dumps(t.dim)},\n'
        f'  "dirac": {_block_text(t.dirac, 1)},\n'
        f'  "chirality": {chirality},\n'
        f'  "real_structure_k": {_block_text(t.real_structure.k, 1)},\n'
        f'  "algebra_gens": {gens},\n'
        f'  "metadata": {meta}\n'
        "}\n"
    )
    return text.encode("utf-8")


# --- the canonical reader -------------------------------------------------------------

_HEAD = b'{\n  "schema_version": %d,\n  "dim": ' % SCHEMA_VERSION
_BLOCK_HEAD = re.compile(rb'\{\n    "rows": (\d+),\n    "cols": (\d+),\n    "entries": \[')
#: The separator before a cell, and the length of a zero cell with the
#: separator after it, as ``_block_text`` writes them at depth 1.
_CELL_SEP = b",\n      "
_ZERO_STEP = len(_ZERO_AND_SEP)
#: Maps every byte the "[" of the entries, a zero cell or a separator can
#: hold to "." and every other byte to "x", so that a search for "x" skips
#: the zero cells and stops at a nonzero cell or at the closing "]".
_MARKS = bytes(46 if c in b'[{}\n ":,0reim' else 120 for c in range(256))


def _rational(s: bytes) -> int | Fraction:
    """A rational part, read leniently: byte equality with the writer's
    text proves it canonical afterwards."""
    return Fraction(s.decode()) if b"/" in s else int(s)


def _read_block(text: bytes, marks: bytes, pos: int, dim: int) -> tuple[ExactMatrix, int]:
    """The ``dim``x``dim`` depth-1 block at ``pos``, read as if canonical,
    and the position after it."""
    head = _BLOCK_HEAD.match(text, pos)
    if head is None or int(head[1]) != dim or int(head[2]) != dim:
        raise ValueError("not a canonical block header")
    data: list[list] = [[] for _ in range(dim)]
    # From prev_end (the "[", or just after a cell) to the next nonzero
    # cell lie a separator and, per zero cell skipped, _ZERO_STEP bytes.
    prev_end, index = head.end() - 1, 0
    while text[mark := marks.index(b"x", prev_end)] != 93:  # "]"
        start = text.rindex(b"{", prev_end, mark)
        index += (start - prev_end - len(_CELL_SEP)) // _ZERO_STEP
        prev_end = text.index(b"}", mark) + 1
        re, im = text[start:prev_end].split(b'"')[3::4]
        i, j = divmod(index, dim)
        data[i].append((j, _rational(re), _rational(im)))
        index += 1
    return ExactMatrix._of_rationals(dim, dim, data), text.index(b"}", mark) + 1


def _read_canonical(text: bytes) -> tuple[FiniteSpectralTriple, dict[str, str]] | None:
    """The triple and metadata of a document as ``serialize_triple`` writes
    it with no algebra generators, or None for any other document.  The
    blocks are read as if canonical, and the result is accepted only when
    the writer gives back ``text``."""
    if not text.startswith(_HEAD):
        return None
    pos = text.index(b",", len(_HEAD))
    dim = _document_dim(int(text[len(_HEAD):pos]))
    marks = text.translate(_MARKS)
    blocks: list[ExactMatrix | None] = []
    for name in (b"dirac", b"chirality", b"real_structure_k"):
        key = b',\n  "%s": ' % name
        if not text.startswith(key, pos):
            return None
        if text.startswith(b"null", pos + len(key)):
            blocks.append(None)
            pos += len(key) + 4
        else:
            block, pos = _read_block(text, marks, pos + len(key), dim)
            blocks.append(block)
    key = b',\n  "algebra_gens": [],\n  "metadata": '
    if not text.startswith(key, pos) or not text.endswith(b"\n}\n"):
        return None
    dirac, chirality, k = blocks
    triple, meta = _checked(dim, dirac, chirality, k, (), json.loads(text[pos + len(key):-3]))
    return (triple, meta) if _expanded(_compact_document(triple, meta)) == text else None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """``object_pairs_hook`` that refuses a name given twice in one object."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _value in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _read_json(data: bytes | str) -> tuple[FiniteSpectralTriple, dict[str, str]]:
    """Any document through ``json.loads``: the route for every document
    the canonical reader does not accept, and the one that reports errors."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"document is not valid JSON: {exc}") from exc
    read = _document_from_json(obj)
    # A repeated name is looked for only in a document that reads otherwise.
    json.loads(data, object_pairs_hook=_unique_keys)
    return read


def parse_document(data: bytes | str) -> tuple[FiniteSpectralTriple, dict[str, str]]:
    """Parse without axiom validation; returns the triple and its metadata.

    A document ``serialize_triple`` wrote is read by the canonical reader;
    any other document, or any failure on the way, takes the ``json.loads``
    route, which reads every document to the same result or error.  A
    document over ``MAX_DOCUMENT_BYTES`` is refused before either route."""
    text = data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass")
    if len(text) > MAX_DOCUMENT_BYTES:
        raise ParseError(f"document has more than the limit of {MAX_DOCUMENT_BYTES} bytes")
    try:
        read = _read_canonical(text)
    except Exception:  # the json.loads route reports whatever went wrong
        read = None
    return read if read is not None else _read_json(data)


def parse_triple(data: bytes | str, validate: bool = True) -> FiniteSpectralTriple:
    """Parse one document; with validate=True an axiom failure is InvalidTriple."""
    triple, _meta = parse_document(data)
    if validate:
        report = validate_triple(triple)
        if not report.passed:
            names = ", ".join(c.name for c in report.failures)
            raise InvalidTriple(f"parsed triple fails validation: {names}")
    return triple
