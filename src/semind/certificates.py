"""Mechanical re-verification of flag-algebra certificates and the
stability-family facts, with exact arithmetic end to end.

A certificate is data, a `Certificate`, and one routine checks all of them:
`check_certificate`.  Every PASS/FAIL decision routes through Q(sqrt2)
rationals and Sturm-based sign analysis; floating point appears only in
rendered previews.  The expected coefficient tables ship as reviewed data
files and the checker recomputes everything from first principles before
diffing against them, so a transcription slip and a calculus bug cannot
cancel silently.
"""

from __future__ import annotations

import math
import re
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

from . import Record, UsageError, __version__
from .counting import is_induced_subgraph
from .exactalg import HALF_SQRT2, Poly, Q2, SQRT2, sign_cells
from .flags import (
    GraphCombo,
    RootedFlag,
    basis_combo,
    combo_square,
    expand_pattern,
    flag_product,
    unit_flag,
    unlabel,
)
from .graphs import HostGraph, _graph_classes, canonical_host, parse_pattern, read_pairs


# ---------------------------------------------------------------------------
# digit-string codecs and the reference data files


def host_from_digits(digits: str) -> HostGraph:
    """Decode a class key: one digit per lexicographic pair, 1=blue, 2=red."""
    npairs = len(digits)
    n = round((1 + math.isqrt(1 + 8 * npairs)) / 2)
    if n * (n - 1) // 2 != npairs:
        raise ValueError(f"digit string length {npairs} is not triangular")
    illegal = lambda t, ch: ValueError(f"illegal digit {ch!r}")  # a fault of the data, not usage
    return HostGraph(n, *read_pairs(n, digits, "21", illegal))


def parse_poly(text: str, names) -> Poly:
    """Parse '+/-' separated products of rationals and powers like 3/2*B*a^2."""
    names = tuple(names)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    terms: dict = {}
    # a run of signs and the term after it; the last match is the empty one at the end
    for signs, term in re.findall(r"([+-]*)([^+-]*)", s)[:-1]:
        coeff = Fraction((-1) ** signs.count("-"))
        exps = [0] * len(names)
        for factor in term.split("*"):
            if not factor:
                raise ValueError(f"malformed term in {text!r}")
            base, caret, power = factor.partition("^")
            if caret and not power:
                raise ValueError(f"empty exponent in {text!r}")
            if caret and not (power.isascii() and power.isdigit()):
                raise ValueError(f"exponent of {factor!r} in {text!r} is not an integer")
            exp = int(power) if power else 1
            if base in names:
                exps[names.index(base)] += exp
                continue
            num, _, den = base.partition("/") if "/" in base else (base, "", "1")
            if not (num + den).isascii() or not (num.isdigit() and den.isdigit()):
                raise ValueError(
                    f"factor {base!r} in {text!r} is not a variable, an integer or a fraction"
                )
            if not int(den):
                raise ValueError(f"zero denominator in {text!r}")
            coeff *= Fraction(int(num), int(den)) ** exp
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return Poly(names, terms)


def _data_lines(fname: str):
    from importlib import resources

    text = resources.files("semind").joinpath("data", fname).read_text()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _class_code(digits: str) -> str:
    return canonical_host(host_from_digits(digits)).to_text()


def _class_table(fname: str, names: tuple, columns: tuple, classes: int) -> dict:
    """{class code: {column: Poly}} from a data file whose rows hold a digit
    key and one cell per column, separated by '|' or spaces; each key is
    canonicalized, and a duplicate class or a class count other than
    `classes` is an error."""
    table = {}
    for line in _data_lines(fname):
        digits, *cells = line.replace("|", " ").split()
        if len(cells) != len(columns):
            raise ValueError(f"bad table row: {line!r}")
        code = _class_code(digits)
        if code in table:
            raise ValueError(f"duplicate class {digits} in {fname}")
        table[code] = {col: parse_poly(cell, names) for col, cell in zip(columns, cells)}
    if len(table) != classes:
        raise ValueError(f"expected {classes} classes in {fname}, found {len(table)}")
    return table


@lru_cache(maxsize=None)
def ap4_reference_table() -> dict:
    """Expected expansions {class code: {term: Poly in x}} of the six ap4
    terms on the 11 4-vertex classes."""
    columns = ("O", "C1", "C2", "C3", "C4", "E")
    return _class_table("ap4_certificate_table.txt", ("x",), columns, 11)


@lru_cache(maxsize=None)
def peenn_reference_coeffs() -> dict:
    """Expected sums {class code: {"total": Poly in (a, B, C)}} of the peenn
    certificate on all 34 5-vertex classes."""
    return _class_table("peenn_certificate_coeffs.txt", ("a", "B", "C"), ("total",), 34)


@lru_cache(maxsize=None)
def peenn_expansion_reference() -> dict:
    """Expected integer expansion {class code: {"P": Poly}} of the path
    pattern: the 23 5-vertex classes with a nonzero count."""
    return _class_table("peenn_expansion.txt", ("a", "B", "C"), ("P",), 23)


# ---------------------------------------------------------------------------
# report plumbing


class CertLine(NamedTuple):
    code: str
    coeff: str
    status: str  # nonpositive | zero | VIOLATION (certificates), yes | no (stability)


class CertReport(Record):
    """A check's verdict and findings, filled in as the check runs."""

    __slots__ = ("name", "passed", "lines", "failures", "notes", "zero_classes",
                 "boundary_zero_classes", "interior_root_classes")

    def __init__(self, name: str, passed: bool):
        self.name, self.passed = name, passed
        self.lines: list[CertLine] = []
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.zero_classes: tuple = ()
        self.boundary_zero_classes: tuple = ()
        self.interior_root_classes: dict = {}

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)

    def render(self) -> str:
        out = [f"# certificate report: {self.name}"]
        for note in self.notes:
            out.append(f"# {note}")
        for ln in self.lines:
            out.append(f"class={ln.code!r} coeff={ln.coeff} sign={ln.status}")
        for f in self.failures:
            out.append(f"FAIL {f}")
        verdict = "PASS" if self.passed else "FAIL"
        max_coeff = "0" if self.passed else "VIOLATION"
        out.append(
            f"verdict={verdict} classes={len(self.lines)} max_coeff={max_coeff}"
        )
        return "\n".join(out)


# ---------------------------------------------------------------------------
# certificates as data


class Term(NamedTuple):
    """One summand `multiplier * combo` of a certificate.  The kind names the
    combo on the certificate's k-classes:

    * "pattern": the pattern's density expanded on the k-classes;
    * "basis": the constant 1, every k-class with coefficient 1;
    * "square": scale * unlabel(v^2) for the flag vector v = `vector`, whose
      flags are rooted at their first `roots` vertices;
    * "vanishing": flag_product(L, pair - density * 1, k) for the unrooted
      combination L = `vector`, `pair` = (digit, density) and the all-ones 1:
      it is zero wherever that pair class has that density.

    `vector` holds (digit key, coefficient) entries.  The multiplier, scale,
    coefficients and density are texts that `parse_poly` reads.
    """

    name: str
    multiplier: str
    kind: str
    vector: tuple = ()
    roots: int = 0
    scale: str = "1"
    pair: tuple = ()


class Reference(NamedTuple):
    """A reviewed table {class code: {key: Poly}}, each key a term name or
    "total" (the sum of the terms), and the note reported when it matches."""

    table: Callable[[], dict]
    note: str = ""


class Certificate(NamedTuple):
    """The claim that `check_certificate` proves: with the fixed parameters
    substituted, on every k-class the sum of the terms minus the bound is
    <= 0 for each value of `var` in the interval, and every square's
    multiplier is >= 0 there.  In a large host at the pinned density the
    squares then add something >= 0 and the vanishing terms add 0, so the
    pattern and basis terms together stay at most the bound.

    `fixed` is ((name, Q2 value), ...); `interval` is (lo, hi, include_lo)
    inside `domain`, the (lo, hi) that `var` can take; the interval always
    holds hi.  `notes` are `str.format` templates over the fixed values, var,
    lo, hi, include_lo and the zero-locus counts zero, lo_zero, roots.
    """

    name: str
    pattern: str
    k: int
    names: tuple
    var: str
    fixed: tuple
    interval: tuple
    domain: tuple
    bound: str
    terms: tuple
    references: tuple = ()
    notes: tuple = ()


def _vector(entries: tuple, roots: int, names: tuple) -> GraphCombo:
    items = [
        (RootedFlag(host_from_digits(d), tuple(range(roots))), parse_poly(c, names))
        for d, c in entries
    ]
    first = items[0][0]
    return GraphCombo.build(first.k, roots, first.type_colors(), names, items)


@lru_cache(maxsize=None)
def _term_combo(term: Term, pattern: str, k: int, names: tuple) -> GraphCombo:
    """A term's combo on the k-classes, before its multiplier."""
    if term.kind == "pattern":
        return expand_pattern(parse_pattern(pattern), k, names)
    if term.kind == "basis":
        return basis_combo(k, names)
    v = _vector(term.vector, term.roots, names)
    if term.kind == "square":
        return unlabel(combo_square(v)).scale(parse_poly(term.scale, names))
    if term.kind == "vanishing":
        digit, density = term.pair
        pair = unit_flag(host_from_digits(digit), (), names)
        ones = basis_combo(pair.k, names, parse_poly(density, names))
        return flag_product(v, pair - ones, k)
    raise ValueError(f"unknown term kind {term.kind!r}")


def check_certificate(cert: Certificate) -> CertReport:
    """Check one certificate exactly.

    1. build every term with the `flags` routines;
    2. diff the terms and their sum against the reference tables;
    3. substitute the fixed parameters;
    4. on every class, decide sum - bound <= 0 on the interval from one exact
       `sign_cells` call, and report the sum;
    5. check every square's multiplier is >= 0 on the interval, from one
       `sign_cells` call on its negation.
    Zero loci (identically-zero classes, left-endpoint zeros, interior
    roots) are recorded on the report.  An open end changes no verdict
    (`Signs.nonpositive`); it only drops its left-end zeros and "at" points.
    """
    report = CertReport(name=cert.name, passed=True)
    names, var = cert.names, cert.var
    zero = Poly.const(names, 0)
    codes = sorted(g.to_text() for g in _graph_classes(cert.k))
    mults = {t.name: parse_poly(t.multiplier, names) for t in cert.terms}
    values = {
        t.name: {
            flag.graph.to_text(): poly
            for flag, poly in _term_combo(t, cert.pattern, cert.k, names).terms.items()
        }
        for t in cert.terms
    }
    total = {
        code: sum((mults[t] * by_code.get(code, zero) for t, by_code in values.items()), zero)
        for code in codes
    }

    for ref in cert.references:
        table = ref.table()
        matched = True
        for key in next(iter(table.values())):  # every row has the same keys
            got = total if key == "total" else values[key]
            for code in sorted(set(got) | set(table)):
                have = got.get(code, zero)
                want = table[code][key] if code in table else zero
                if have != want:
                    matched = False
                    report.fail(
                        f"{key} mismatch class={code!r}: computed {have}, reference {want}"
                    )
        if matched and ref.note:
            report.notes.append(ref.note)

    fixed = dict(cert.fixed)
    lo, hi, include_lo = cert.interval
    bound = parse_poly(cert.bound, names).substitute(**fixed)
    zero_classes, lo_zero, interior = [], [], {}
    for code in codes:
        value = total[code].substitute(**fixed)
        cs = (value - bound).univariate(var)
        if not cs:
            zero_classes.append(code)
            report.lines.append(CertLine(code, str(value), "zero"))
            continue
        signs = sign_cells(cs, lo, hi)
        ok = signs.nonpositive()
        if include_lo and signs.at_lo == 0:
            lo_zero.append(code)
        if signs.roots:
            interior[code] = len(signs.roots)
        report.lines.append(CertLine(code, str(value), "nonpositive" if ok else "VIOLATION"))
        if not ok:
            ends = [(lo, signs.at_lo)] if include_lo else []
            ends.append((hi, signs.at_hi))  # the interval always holds hi
            where = [f"at {var}={float(x):.6f}" for x, sign in ends if sign > 0]
            where += [f"near {var}={float(a + b) / 2:.6f}" for a, b in signs.roots]
            report.fail(
                f"positivity violation class={code!r} on {var} in [{lo}, {hi}]"
                + (f" ({'; '.join(where)})" if where else "")
            )

    for t in cert.terms:
        if t.kind != "square":
            continue
        mult = mults[t.name].substitute(**fixed).univariate(var)
        if not sign_cells([-c for c in mult], lo, hi).nonpositive():
            report.fail(
                f"square multiplier {t.name} = {t.multiplier} is negative somewhere "
                f"on {var} in [{lo}, {hi}]"
            )

    report.zero_classes = tuple(zero_classes)
    report.boundary_zero_classes = tuple(lo_zero)
    report.interior_root_classes = interior
    counts = {"zero": len(zero_classes), "lo_zero": len(lo_zero), "roots": sum(interior.values())}
    fields = dict(fixed, var=var, lo=lo, hi=hi, include_lo=include_lo)
    report.notes += [note.format(**fields, **counts) for note in cert.notes]
    return report


# The alternating 3-path (ap4) on the 11 4-vertex classes; x is the blue-pair
# density, and the bound is 24*x*(1-x)^2.
AP4 = Certificate(
    name="ap4",
    pattern="4 RFFBFR",
    k=4,
    names=("x",),
    var="x",
    fixed=(),
    interval=(Q2.of(0), Q2.of(Fraction(1, 2)), True),
    domain=(Q2.of(0), Q2.of(1)),
    bound="24*x^3-48*x^2+24*x",
    terms=(
        Term("O", "1", "pattern"),
        Term("C1", "48*x^3-96*x^2+48*x", "square", (("221", "1"), ("212", "-1")), 2),
        Term("C2", "48*x^3-72*x^2+24*x+12", "square", (("121", "1"), ("112", "-1")), 2),
        Term("C3", "-4*x+4", "square", (("222", "-x"), ("221", "1-2*x"), ("211", "1-x")), 2, "12"),
        Term("C4", "-4*x+2", "square", (("122", "-x"), ("121", "1-2*x"), ("111", "1-x")), 2, "12"),
        # six times (blue-pair density minus x)
        Term("E", "-12*x^2+16*x-4", "vanishing", (("1", "6"), ("2", "6")), pair=("1", "x")),
    ),
    references=(Reference(ap4_reference_table),),
    notes=("square multipliers checked nonnegative for {var} in [{lo}, {hi}]",),
)

# The 5-vertex path (red, red, blue, blue) on the 34 5-vertex classes; a is
# the clique vertex fraction (a^2 is the red density) and B, C are free
# parameters of the certificate, fixed per regime.  The pattern term carries
# a^2(1-a^2), and the basis term subtracts 120*a^2(1-a^2)(a^3-a^4).
PEENN_SQRT2 = Certificate(
    name="peenn",
    pattern="5 RFFFRFFBFB",
    k=5,
    names=("a", "B", "C"),
    var="a",
    fixed=(("B", SQRT2 - Q2.of(1)), ("C", SQRT2 - Q2.of(1))),
    interval=(HALF_SQRT2, Q2.of(Fraction(4, 5)), True),
    domain=(Q2.of(0), Q2.of(1)),
    bound="0",
    terms=(
        Term("P", "a^2-a^4", "pattern"),
        Term("K", "-120*a^5+120*a^6+120*a^7-120*a^8", "basis"),
        Term(
            "V",
            "1",
            "vanishing",
            (
                ("222", "120*a^5-120*a^6"),
                ("111", "-120*a^3+120*a^4+120*a^5-120*a^6"),
                # the reference table peenn_certificate_coeffs.txt pins the
                # -120*a^6 here: any other a^6 coefficient changes its entries
                ("112", "-120*a^6+120*a^5+80*a^4-80*a^3+20*a^2-20*a"),
                ("122", "15*B"),
            ),
            pair=("2", "a^2"),
        ),
        Term("D1", "60*a-60*a^2", "square", (("111211", "a"), ("111222", "a-1")), 3),
        Term("D2", "30*C", "square", (("122222", "a"), ("121212", "a-1")), 3),
    ),
    references=(
        Reference(peenn_expansion_reference, "pattern expansion matches the 23-term integer list"),
        Reference(peenn_reference_coeffs),
    ),
    notes=(
        "B={B} C={C} interval=[{lo}, {hi}] include_lo={include_lo} include_hi=True",
        "identically-zero classes: {zero}; vanishing at the left endpoint: {lo_zero}; "
        "interior roots found: {roots}",
    ),
)
PEENN_RATIONAL = PEENN_SQRT2._replace(
    fixed=(("B", Q2.of(Fraction(361, 1000))), ("C", Q2.of(0))),
    interval=(Q2.of(Fraction(4, 5)), Q2.of(1), False),
)


# ---------------------------------------------------------------------------
# stability families


FAMILY_MAIN_DIGITS = (
    "1111111111",
    "1111111112",
    "1111111222",
    "1111222222",
    "2222222222",
)
FAMILY_HALF_DIGITS = (
    "2222222221",
    "2222222111",
    "2222111111",
    "2112211212",
)
C5_DIGITS = "2112211212"
FORBIDDEN_4_DIGITS = ("111122", "112211", "112212", "112222", "122221")


def stability_family_check() -> CertReport:
    """Check that none of the five 4-vertex graphs embeds induced into any of
    the nine 5-vertex family members except the alternating 5-cycle, and
    record which of them do embed into the 5-cycle."""
    report = CertReport(name="stability", passed=True)
    hosts = [(d, host_from_digits(d)) for d in FAMILY_MAIN_DIGITS + FAMILY_HALF_DIGITS]
    c5_embeds = []
    for hd, host in hosts:
        for fd in FORBIDDEN_4_DIGITS:
            sub = host_from_digits(fd)
            embeds = is_induced_subgraph(sub, host)
            is_c5 = hd == C5_DIGITS
            status = "yes" if embeds else "no"
            report.lines.append(
                CertLine(f"host={hd} sub={fd}", "-", status)
            )
            if embeds and not is_c5:
                report.fail(f"forbidden induced embedding: {fd} inside {hd}")
            if embeds and is_c5:
                c5_embeds.append(fd)
    report.notes.append(
        f"family sizes: main=5 half=4; forbidden 4-vertex list=5; "
        f"members embedding into the alternating 5-cycle: {sorted(c5_embeds)}"
    )
    if not c5_embeds:
        report.fail(
            "expected at least one forbidden graph inside the alternating "
            "5-cycle (that is why it is excluded)"
        )
    report.zero_classes = tuple(sorted(c5_embeds))
    return report


# ---------------------------------------------------------------------------
# the `verify` command


def exact_from_arg(text: str) -> Q2:
    """An exact `exactalg.Q2` value: 'sqrt2-1', '1/sqrt2', 'sqrt2/2',
    fractions, decimals."""
    t = text.strip().replace(" ", "")
    if t == "sqrt2":
        return SQRT2
    if t == "sqrt2-1":
        return SQRT2 - Q2.of(1)
    if t == "1-sqrt2":
        return Q2.of(1) - SQRT2
    if t == "1/sqrt2" or t == "sqrt2/2":
        return HALF_SQRT2
    try:
        return Q2.of(Fraction(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse exact value {text!r}") from exc


def _report_header(argv) -> list[str]:
    """Version, command line and reference-table digests of a report."""
    import hashlib
    import shlex
    from importlib import resources

    lines = [f"# semind {__version__}", f"# argv: {shlex.join(argv)}"]
    data = resources.files("semind").joinpath("data")
    for entry in sorted(data.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".txt"):
            digest = hashlib.sha256(entry.read_bytes()).hexdigest()
            lines.append(f"# sha256 data/{entry.name} {digest}")
    return lines


def _archive_report(cache_dir: Path, argv, cmd: str, text: str) -> None:
    """Write the report to a new file; a name taken in the same second gets
    a numeric suffix instead of being overwritten."""
    reports = cache_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{time.strftime('%Y%m%d-%H%M%S')}-{cmd}"
    body = "\n".join(_report_header(argv) + [text]) + "\n"
    path = reports / f"{name}.txt"
    suffix = 0
    while True:
        try:
            with open(path, "x") as fh:
                fh.write(body)
            return
        except FileExistsError:
            suffix += 1
            path = reports / f"{name}-{suffix}.txt"


# the flags that each certificate of `verify` reads; it rejects the others
_VERIFY_READS = {
    "ap4": ("--alpha-max",),
    "peenn": ("--B", "--C", "--interval", "--open-lo"),
    "stability": (),
}


def cmd_verify(args) -> int:
    from .cli import _numbers, _reject_unread

    reads = _VERIFY_READS[args.which]
    unread = [flag for flags in _VERIFY_READS.values() for flag in flags if flag not in reads]
    _reject_unread(args, unread, f"by verify {args.which}")
    if args.which == "stability":
        reports = [stability_family_check()]
    else:
        certs = [AP4] if args.which == "ap4" else [PEENN_SQRT2, PEENN_RATIONAL]
        if args.alpha_max:
            hi = exact_from_arg(args.alpha_max)
            if hi <= 0:
                raise UsageError(f"--alpha-max must be positive (got {args.alpha_max!r})")
            certs = [AP4._replace(interval=(AP4.interval[0], hi, True))]
        if args.B or args.C or args.interval or args.open_lo:
            if not (args.B and args.C and args.interval):
                raise UsageError("peenn overrides need --B, --C and --interval")
            form = "lo,hi with exact endpoints (e.g. 1/sqrt2,4/5)"
            lo, hi = _numbers("--interval", args.interval, args.interval, form, 2, exact_from_arg)
            if lo >= hi:
                raise UsageError(f"--interval {args.interval!r} needs lo < hi")
            fixed = (("B", exact_from_arg(args.B)), ("C", exact_from_arg(args.C)))
            certs = [PEENN_SQRT2._replace(fixed=fixed, interval=(lo, hi, not args.open_lo))]
        for cert in certs:
            (lo, hi, *_), (d_lo, d_hi) = cert.interval, cert.domain
            if not (d_lo <= lo and hi <= d_hi):
                raise UsageError(
                    f"the interval [{lo}, {hi}] of {cert.var} leaves its domain [{d_lo}, {d_hi}]"
                )
        reports = [check_certificate(cert) for cert in certs]
    text = "\n".join(r.render() for r in reports)
    print(text)
    _archive_report(args.cache_dir, args.argv, f"verify-{args.which}", text)
    return 0 if all(r.passed for r in reports) else 1
