"""The three benchmark workloads and the second-route checks on their outputs.

Each workload class is constructed with the freshly imported ``kocalc``
package and a private work directory; construction is the workload's
set-up (input documents, canonical factors, warm-up).  The harness then
calls, for every operation of a pass, ``prepare()`` (untimed), ``run(item)``
(timed) and ``check(item, out)`` (untimed), where ``check`` returns None or
a one-line description of what was wrong.  ``ITEMS`` is the fixed list of
inputs; the workload seed only permutes its order within a pass.

Operations resolve every kocalc function through its module at call time,
so the tracer's patched bindings are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
from pathlib import Path

#: sha256 of every document the workloads serialize or write, recorded at
#: the commit that introduced the benchmark.  Byte determinism of schema-v1
#: documents is a project invariant, so any change here is a defect.
SEED_HASHES: dict[str, str] = json.loads(
    Path(__file__).with_name("seed_hashes.json").read_text(encoding="utf-8")
)


def check_hash(name: str, data: bytes) -> str | None:
    got = hashlib.sha256(data).hexdigest()
    want = SEED_HASHES.get(name)
    if got != want:
        return f"sha256 of {name} is {got[:12]}, seed recorded {str(want)[:12]}"
    return None


# --- cache state ------------------------------------------------------------

def _members(mod):
    for obj in vars(mod).values():
        yield obj
        if isinstance(obj, type) and obj.__module__.startswith("kocalc"):
            for attr in vars(obj).values():
                yield getattr(attr, "__func__", attr)  # staticmethod, classmethod
                if isinstance(attr, property):
                    yield attr.fget


def kocalc_caches() -> list:
    """The ``cache_clear`` of every cache reachable from a loaded kocalc module.

    Module-level functions and the methods of kocalc classes are searched,
    so a cache that is added, re-keyed or removed later needs no edit here.
    A cache reached through several bindings (or through a tracing wrapper)
    is listed once.
    """
    found: dict[int, object] = {}
    for name, mod in list(sys.modules.items()):
        if name != "kocalc" and not name.startswith("kocalc."):
            continue
        for obj in _members(mod):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                found.setdefault(id(getattr(clear, "__self__", clear)), clear)
    return list(found.values())


def clear_kocalc_caches() -> int:
    caches = kocalc_caches()
    for clear in caches:
        clear()
    return len(caches)


def dirac_mode(p: int) -> str:
    """``gamma1`` where a hermitian generator exists, ``zero`` otherwise."""
    return "gamma1" if p >= 1 else "zero"


def canonical_meta(p: int, q: int) -> dict[str, str]:
    """The metadata ``kocalc make-triple`` writes."""
    return {"generator": "canonical", "p": str(p), "q": str(q), "dirac": dirac_mode(p)}


def signs_mismatch(kc, signs, p: int, q: int, has_dirac: bool) -> str | None:
    """Compare measured signs with the stored row EPSILON_TABLE[(p - q) % 8]."""
    row = kc.EPSILON_TABLE[(p - q) % 8]
    want = (row.eps, row.eps_prime if has_dirac else None, row.eps_dprime)
    got = (signs.eps, signs.eps_prime, signs.eps_dprime)
    if got != want:
        return f"Cl({p},{q}) signs {got} differ from the table row {want}"
    return None


# --- cold-construct -----------------------------------------------------------

class ColdConstruct:
    """What one fresh ``kocalc make-triple`` process does, with every cache cold.

    Why: ``clifford.find_real_structure`` and the matrix products it issues
    do almost all the work, and clearing every kocalc cache before each
    operation means no input is ever served from a warm cache.  The list
    covers every even signature with p + q <= 6 (dim 2 to 8) plus three
    dim-16 signatures whose lex-first real structures sit at different
    depths of the subset search.
    """

    ITEMS = tuple(
        [(p, n - p) for n in (2, 4, 6) for p in range(n, -1, -1)]
        + [(8, 0), (4, 4), (1, 7)]
    )

    def __init__(self, kc, work: Path) -> None:
        self.kc = kc
        self.setup_errors: list[str] = []

    def prepare(self) -> None:
        clear_kocalc_caches()

    def run(self, item):
        p, q = item
        kc = self.kc
        t = kc.canonical_triple(p, q, dirac_mode(p))
        signs = kc.extract_signs(t)
        return t.dim, signs, kc.serialize_triple(t, canonical_meta(p, q))

    def check(self, item, out) -> str | None:
        p, q = item
        dim, signs, data = out
        if dim != 2 ** ((p + q) // 2):
            return f"Cl({p},{q}) triple has dim {dim}"
        return (signs_mismatch(self.kc, signs, p, q, p >= 1)
                or check_hash(f"canonical-{p}-{q}-{dirac_mode(p)}", data))


# --- warm-products --------------------------------------------------------------

class WarmProducts:
    """A library session verifying products of factors it built once.

    Why: with the factors built in set-up, the ``linalg`` kernels (``@``,
    ``kron``, ``dagger`` and the unitarity check in ``Antiunitary``) do most
    of the work under ``products`` and ``triples``, and ``clifford`` does
    almost none.  Every input repeats from pass to pass, so a gain from
    memoisation shows here and not in cold-construct.  The pairs span
    product dimensions 4 to 64 and every verification status: confirmed
    compatible and incompatible cells, and the not-falsifiable cells where
    a factor has D = 0.
    """

    # (first factor, second factor); each pair runs in both modes.
    PAIRS = (
        ((2, 0), (1, 1)),   # dim 4
        ((1, 1), (2, 0)),   # dim 4
        ((0, 2), (2, 0)),   # dim 4, first D = 0
        ((0, 2), (4, 0)),   # dim 8, not falsifiable in natural mode
        ((4, 0), (2, 0)),   # dim 8
        ((2, 0), (3, 1)),   # dim 8
        ((3, 1), (1, 3)),   # dim 16
        ((4, 0), (2, 2)),   # dim 16
        ((6, 0), (2, 0)),   # dim 16
        ((1, 3), (4, 0)),   # dim 16
        ((2, 2), (6, 0)),   # dim 32
        ((6, 0), (0, 4)),   # dim 32, second D = 0
        ((6, 0), (6, 0)),   # dim 64
        ((4, 4), (4, 0)),   # dim 64
    )
    ITEMS = tuple((a, b, mode) for a, b in PAIRS for mode in ("natural", "modified"))

    def __init__(self, kc, work: Path) -> None:
        self.kc = kc
        self.factors = {
            pq: kc.canonical_triple(*pq, dirac_mode(pq[0]))
            for pair in self.PAIRS for pq in pair
        }
        # The calculus's verdict per item, the second route for ``check``.
        self.expected = {}
        for a, b, mode in self.ITEMS:
            row = kc.enumerate_compatible((a[0] - a[1]) % 8, kc.ProductMode(mode))
            self.expected[a, b, mode] = row[(b[0] - b[1]) % 8]
        self.setup_errors: list[str] = []
        for item in self.ITEMS:  # one untimed warm-up pass
            err = self.check(item, self.run(item))
            if err:
                self.setup_errors.append(f"warm-up: {err}")

    def prepare(self) -> None:
        pass

    def run(self, item):
        a, b, mode = item
        return self.kc.verify_product(
            self.factors[a], self.factors[b], self.kc.ProductMode(mode))

    def check(self, item, v) -> str | None:
        """Check the status and class against the sign calculus.

        The rule is the one ``matrix_calculus_agreement`` applies: a
        compatible cell must be confirmed with the calculus's class, an
        incompatible one exhibited or not falsifiable.
        """
        (p1, q1), (p2, q2), mode = item
        s1, s2 = (p1 - q1) % 8, (p2 - q2) % 8
        entry = self.expected[item]
        where = f"({p1},{q1})x({p2},{q2}) {mode}"
        if (v.sigma1, v.sigma2) != (s1, s2):
            return f"{where}: measured classes {(v.sigma1, v.sigma2)}"
        if v.product_dim != 2 ** ((p1 + q1 + p2 + q2) // 2):
            return f"{where}: product dim {v.product_dim}"
        if entry.compatible:
            ok = v.status == "confirmed-compatible" and v.matrix_ko == entry.sigma_product
        else:
            ok = v.status in ("confirmed-incompatible", "not-falsifiable")
        if not ok or not v.agreement:
            return (f"{where}: status {v.status} ko {v.matrix_ko}, "
                    f"calculus {entry.status} {entry.sigma_product}")
        return None


# --- cli-documents ------------------------------------------------------------------

def _fields(payload: dict, **want) -> str | None:
    for key, value in want.items():
        if payload.get(key) != value:
            return f"{key} = {payload.get(key)!r}, expected {value!r}"
    return None


def _signs(row) -> dict:
    return {"eps": row.eps, "eps_prime": row.eps_prime, "eps_dprime": row.eps_dprime}


class CliDocuments:
    """In-process ``run_cli(argv)`` with ``--json``, caches cleared per command.

    Why: this is the only workload where ``linalg.rank`` (inside
    ``restrict``), ``triple_io`` reads and writes, ``signcalc`` and the
    CLI's own rendering and file handling do real work.  Set-up writes the
    input documents: sigma = 0 triples of dim 16 (canonical Cl(4,4)) and
    dim 64 (the natural product Cl(4,4) x Cl(2,2)), the Cl(6,0) factor, a
    sigma = 4 triple on which ``restrict`` must exit 1, and a copy of the
    dim-16 document with a malformed rational on which ``validate`` must
    exit 2.
    """

    # (label, argv with {placeholders} naming files in the work directory,
    # expected exit code)
    ITEMS = (
        ("validate-16", ("validate", "{sigma0_16}"), 0),
        ("validate-64", ("validate", "{sigma0_64}"), 0),
        ("restrict-16", ("restrict", "{sigma0_16}"), 0),
        ("restrict-64", ("restrict", "{sigma0_64}"), 0),
        ("twist-16", ("twist", "{sigma0_16}", "--out", "{twisted}"), 0),
        ("product-64", ("product", "--mode", "modified", "{cl_6_0}", "{cl_6_0}",
                        "--out", "{product}"), 0),
        ("scan", ("scan",), 0),
        ("epsilon-table", ("epsilon-table",), 0),
        ("enumerate", ("enumerate", "--sigma1", "6", "--mode", "natural"), 0),
        ("scenario-connes", ("scenario", "--name", "connes"), 0),
        ("scenario-barrett", ("scenario", "--name", "barrett"), 0),
        ("classify", ("classify", "--p", "1", "--q", "3"), 0),
        ("make-triple", ("make-triple", "--p", "2", "--q", "0", "--dirac", "gamma1",
                         "--out", "{made}"), 0),
        ("restrict-sigma4", ("restrict", "{sigma4}"), 1),
        ("validate-malformed", ("validate", "{malformed}"), 2),
    )

    #: document written by a command -> its seed hash name
    WRITTEN = {
        "twist-16": ("twisted", "twist-canonical-4-4-gamma1"),
        "product-64": ("product", "product-modified-6-0-x-6-0"),
        "make-triple": ("made", "canonical-2-0-gamma1"),
    }

    def __init__(self, kc, work: Path) -> None:
        self.kc = kc
        self.cli = importlib.import_module("kocalc.cli")
        work.mkdir(parents=True, exist_ok=True)
        self.paths = {key: str(work / f"{key}.json") for key in (
            "sigma0_16", "sigma0_64", "cl_6_0", "sigma4", "malformed",
            "twisted", "product", "made")}
        t44 = kc.canonical_triple(4, 4, "gamma1")
        t22 = kc.canonical_triple(2, 2, "gamma1")
        sigma0_64 = kc.product_triple(t44, t22, kc.ProductMode.NATURAL)
        product_meta = {"generator": "product", "mode": "natural", "sigma1": "0", "sigma2": "0"}
        docs = {
            "sigma0_16": ("canonical-4-4-gamma1", kc.serialize_triple(t44, canonical_meta(4, 4))),
            "sigma0_64": ("product-natural-4-4-x-2-2", kc.serialize_triple(sigma0_64, product_meta)),
            "cl_6_0": ("canonical-6-0-gamma1", kc.serialize_triple(
                kc.canonical_triple(6, 0, "gamma1"), canonical_meta(6, 0))),
            "sigma4": ("canonical-4-0-gamma1", kc.serialize_triple(
                kc.canonical_triple(4, 0, "gamma1"), canonical_meta(4, 0))),
        }
        self.setup_errors: list[str] = []
        for key, (hash_name, data) in docs.items():
            err = check_hash(hash_name, data)
            if err:
                self.setup_errors.append(err)
            Path(self.paths[key]).write_bytes(data)
        malformed = docs["sigma0_16"][1].replace(b'"re": "0",', b'"re": "0.5",', 1)
        Path(self.paths["malformed"]).write_bytes(malformed)
        self.product_ko = kc.enumerate_compatible(6, kc.ProductMode.MODIFIED)[6].sigma_product
        self.compatible_cells = sum(e.compatible for mode in kc.ProductMode for s in range(8)
                                    for e in kc.enumerate_compatible(s, mode))

    def prepare(self) -> None:
        clear_kocalc_caches()

    def run(self, item):
        _label, argv, _code = item
        out, err = io.StringIO(), io.StringIO()
        args = [a.format(**self.paths) for a in argv] + ["--json"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run_cli(args)
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out) -> str | None:
        label, _argv, want_code = item
        code, stdout, stderr = out
        if code != want_code:
            return f"{label}: exit {code}, expected {want_code} ({stderr.strip()[:120]})"
        if want_code:
            if stdout or not stderr.startswith("error: "):
                return f"{label}: a failing command must print only an error on stderr"
            if label == "validate-malformed" and "malformed rational" not in stderr:
                return f"{label}: stderr {stderr.strip()!r} does not name the malformed rational"
            return None
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{label}: stdout is not JSON ({exc})"
        err = self._check_payload(label, payload)
        if err:
            return f"{label}: {err}"
        if label in self.WRITTEN:
            key, hash_name = self.WRITTEN[label]
            path = Path(self.paths[key])
            try:
                err = check_hash(hash_name, path.read_bytes())
            except FileNotFoundError:
                return f"{label}: wrote no document"
            path.unlink()
            if err:
                return f"{label}: {err}"
        return None

    def _check_payload(self, label: str, payload: dict) -> str | None:
        kc = self.kc
        table = kc.EPSILON_TABLE
        kind, _, size = label.partition("-")
        if kind == "validate":
            return _fields(payload, passed=True, ko_dimension=0, signs=_signs(table[0]))
        if kind == "restrict":
            # J fixes a real form of C^n; Omega, commuting with J, halves it.
            n = int(size)
            return _fields(payload, complex_dim=n, real_fixed_dim=n, majorana_weyl_dim=n // 2)
        if kind == "twist":
            # (eps, eps', eps'') -> (eps eps'', -eps', eps'')
            return _fields(payload, signs_before={"eps": 1, "eps_prime": 1, "eps_dprime": 1},
                           signs_after={"eps": 1, "eps_prime": -1, "eps_dprime": 1})
        if kind == "product":
            return _fields(payload, status="confirmed-compatible", agreement=True,
                           matrix_ko=self.product_ko, product_dim=64,
                           out=self.paths["product"])
        if kind == "scan":
            cells = payload.get("matrix_cells", [])
            if len(cells) != 32 or not all(c["consistent"] for c in cells):
                return "matrix replay is not 32 consistent cells"
            return _fields(payload, calculus_cells=128, compatible_cells=self.compatible_cells,
                           additivity="verified", all_consistent=True)
        if kind == "epsilon":
            columns = payload.get("columns", {})
            for sigma in range(8):
                got = {k: cell["value"] for k, cell in columns.get(str(sigma), {}).items()}
                if got != _signs(table[sigma]):
                    return f"column {sigma} reads {got}"
            return _fields(payload, consistent=True)
        if kind == "enumerate":
            # Natural mode with sigma1 = 6 needs eps2' = -1: the odd classes 3 and 7.
            return _fields(payload, sigma1=6, mode="natural", compatible_sigma2=[3, 7])
        if kind == "scenario":
            want = {"connes": [{"sigma1": 4, "solutions": [2]}],
                    "barrett": [{"sigma1": 2, "solutions": [6]},
                                {"sigma1": 6, "solutions": [2]}]}[size]
            return _fields(payload, cases=want, matches_expected=True)
        if kind == "classify":
            return _fields(payload, sigma=(1 - 3) % 8, algebra="M₂(H)", real_dimension=16)
        if kind == "make":
            return _fields(payload, dim=2, sigma=2, signs=_signs(table[2]),
                           out=self.paths["made"])
        return f"no check for {label}"


#: Every workload ``run.py`` accepts.  ``BENCHMARK.json`` lists only
#: warm-products and cli-documents: cold-construct needs about seven 5 s
#: passes per run before its p90 has ten samples beyond it, and the
#: benchmark's time budget cannot fit those runs beside 40 s runs of the
#: other two.  It stays runnable by hand.
WORKLOADS = {
    "cold-construct": ColdConstruct,
    "warm-products": WarmProducts,
    "cli-documents": CliDocuments,
}
