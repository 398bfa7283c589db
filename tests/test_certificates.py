"""Certificate checker: reproduction, fault detection, sign analysis."""

from fractions import Fraction

import pytest

from semind import certificates
from semind.certificates import (
    AP4,
    C5_DIGITS,
    FAMILY_HALF_DIGITS,
    FAMILY_MAIN_DIGITS,
    FORBIDDEN_4_DIGITS,
    PEENN_RATIONAL,
    PEENN_SQRT2,
    Certificate,
    Reference,
    Term,
    _class_code,
    _term_combo,
    _vector,
    ap4_reference_table,
    check_certificate,
    host_from_digits,
    parse_poly,
    peenn_expansion_reference,
    peenn_reference_coeffs,
    stability_family_check,
)
from semind.counting import ap4_pattern, peenn_pattern
from semind.exactalg import Poly, Q2
from semind.flags import basis_combo, expand_pattern, unit_flag
from semind.graphs import HostGraph, parse_pattern
from test_flags import _oracle_product


def test_parse_poly_round_trip():
    names = ("a", "B", "C")
    p = parse_poly("-12*a^8+3/2*B*a^2-4*a+6*C", names)
    expect = Poly(
        names,
        {
            (8, 0, 0): Q2.of(-12),
            (2, 1, 0): Q2.of(Fraction(3, 2)),
            (1, 0, 0): Q2.of(-4),
            (0, 0, 1): Q2.of(6),
        },
    )
    assert p == expect


def test_parse_poly_sums_repeated_monomials():
    names = ("a", "B")
    assert parse_poly("a-a", names).is_zero()
    assert parse_poly("2*a*B+B*a-1/2+1/2", names) == Poly(names, {(1, 1): Q2.of(3)})
    assert parse_poly("--a^2", names) == Poly(names, {(2, 0): Q2.of(1)})


@pytest.mark.parametrize("text,message", [
    ("a^", "empty exponent in 'a^'"),
    ("a^-1", "empty exponent in 'a^-1'"),
    ("2*B^+a", "empty exponent in '2*B^+a'"),
    ("3/0", "zero denominator in '3/0'"),
    ("2*y", "factor 'y' in '2*y' is not a variable, an integer or a fraction"),
    ("1.5*a", "factor '1.5' in '1.5*a' is not a variable, an integer or a fraction"),
    ("a+1e3", "factor '1e3' in 'a+1e3' is not a variable, an integer or a fraction"),
    ("3/2.0", "factor '3/2.0' in '3/2.0' is not a variable, an integer or a fraction"),
    ("a^1.5", "exponent of 'a^1.5' in 'a^1.5' is not an integer"),
    ("2*B^x", "exponent of 'B^x' in '2*B^x' is not an integer"),
    ("a+1/0*B", "zero denominator in 'a+1/0*B'"),
])
def test_parse_poly_rejects_empty_exponents_and_zero_denominators(text, message):
    with pytest.raises(ValueError) as err:
        parse_poly(text, ("a", "B"))
    assert str(err.value) == message


def test_host_from_digits():
    c5 = host_from_digits(C5_DIGITS)
    assert c5.red_count() == 5
    assert set(c5.degrees()) == {2}
    assert host_from_digits("") == HostGraph(1, (0,))
    assert host_from_digits("122").to_text() == "3 BRR"


@pytest.mark.parametrize("digits, message", [
    ("12", "digit string length 2 is not triangular"),
    ("1122221", "digit string length 7 is not triangular"),
    ("3", "illegal digit '3'"),
    ("31222a", "illegal digit '3'"),  # the first pair, and the first fault
    ("103", "illegal digit '0'"),
    ("112a22", "illegal digit 'a'"),
    ("11222R", "illegal digit 'R'"),
])
def test_host_from_digits_pins_its_messages(digits, message):
    # a malformed data file is a fault of the program, not a usage error
    with pytest.raises(ValueError) as err:
        host_from_digits(digits)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_ap4_certificate_passes():
    report = check_certificate(AP4)
    assert report.passed, report.failures
    assert len(report.lines) == 11
    assert all(ln.status == "zero" for ln in report.lines)
    rendered = report.render()
    assert "verdict=PASS classes=11 max_coeff=0" in rendered


def test_ap4_fault_injection_detected():
    table = {
        code: dict(cols) for code, cols in ap4_reference_table().items()
    }
    victim = sorted(table)[3]
    table[victim] = dict(table[victim])
    table[victim]["C3"] = table[victim]["C3"] + Poly.const(("x",), 1)
    report = check_certificate(AP4._replace(references=(Reference(lambda: table),)))
    assert not report.passed
    assert any(victim in f and "C3" in f for f in report.failures)


def test_ap4_multiplier_fails_past_half():
    report = check_certificate(AP4._replace(interval=(Q2.of(0), Q2.of(Fraction(3, 5)), True)))
    assert not report.passed
    assert any("C4" in f for f in report.failures)
    assert not any("C3" in f for f in report.failures)


def test_peenn_expansion_matches_reference():
    combo = expand_pattern(peenn_pattern(), 5, ("a", "B", "C"))
    got = {fl.graph.to_text(): poly for fl, poly in combo.terms.items()}
    want = {code: int(str(row["P"])) for code, row in peenn_expansion_reference().items()}
    assert set(got) == set(want)
    for code, cnt in want.items():
        assert got[code] == Poly.const(("a", "B", "C"), cnt)
    assert sorted(want.values()) == sorted(
        [4, 12, 24, 6, 8, 16, 20, 12, 12, 20, 16, 2, 4, 8, 8, 6, 8, 4, 24, 12, 2, 12, 4]
    )


def test_peenn_sqrt2_regime_passes_with_expected_zero_set():
    report = check_certificate(PEENN_SQRT2)
    assert report.passed, report.failures
    main_codes = {_class_code(d) for d in FAMILY_MAIN_DIGITS}
    half_codes = {_class_code(d) for d in FAMILY_HALF_DIGITS}
    assert set(report.zero_classes) == main_codes
    assert set(report.boundary_zero_classes) == half_codes
    assert report.interior_root_classes == {}


def test_peenn_rational_regime_passes():
    report = check_certificate(PEENN_RATIONAL)
    assert report.passed, report.failures
    main_codes = {_class_code(d) for d in FAMILY_MAIN_DIGITS}
    assert set(report.zero_classes) == main_codes
    assert report.interior_root_classes == {}


def test_peenn_negative_multiplier_fails():
    B = dict(PEENN_SQRT2.fixed)["B"]
    report = check_certificate(PEENN_SQRT2._replace(fixed=(("B", B), ("C", Q2.of(Fraction(-1, 10))))))
    assert not report.passed
    assert any("30*C" in f for f in report.failures)


def test_peenn_fails_below_exact_left_endpoint():
    # just below 1/sqrt2 several class coefficients turn positive
    report = check_certificate(
        PEENN_SQRT2._replace(interval=(Q2.of(Fraction(705, 1000)), Q2.of(Fraction(4, 5)), True))
    )
    assert not report.passed
    assert any("positivity violation" in f for f in report.failures)


def _with_term(cert, name, **changes):
    return cert._replace(
        terms=tuple(t._replace(**changes) if t.name == name else t for t in cert.terms)
    )


def test_ap4_vanishing_term_is_six_times_blue_density_minus_x():
    names = AP4.names
    (E,) = (t for t in AP4.terms if t.name == "E")
    # three times the blue-pair pattern's density counts the blue pairs
    blue_pairs = expand_pattern(parse_pattern("2 B"), 4, names).scale(3)
    x = Poly(names, {(1,): 1})
    want = blue_pairs - basis_combo(4, names).scale(x * 6)
    assert _term_combo(E, AP4.pattern, 4, names).terms == want.terms


def test_entry_patterns_are_the_builtin_patterns():
    assert AP4.pattern == ap4_pattern().to_text()
    assert PEENN_SQRT2.pattern == peenn_pattern().to_text()


def test_peenn_regimes_build_each_term_once():
    _term_combo.cache_clear()
    for cert in (PEENN_SQRT2, PEENN_RATIONAL):
        assert check_certificate(cert).passed
    assert _term_combo.cache_info().misses == len(PEENN_SQRT2.terms)


def test_mutated_multiplier_fails_on_a_named_class():
    # E's multiplier plus 1 adds E = 6 (blue density - x) > 0 on the all-blue class
    report = check_certificate(_with_term(AP4, "E", multiplier="-12*x^2+16*x-3"))
    assert report.passed is False
    assert any(f.startswith("positivity violation class='4 BBBBBB'") for f in report.failures)


def test_mutated_square_vector_fails_on_the_named_term():
    vector = (("222", "-x+1/100"), ("221", "1-2*x"), ("211", "1-x"))
    report = check_certificate(_with_term(AP4, "C3", vector=vector))
    assert report.passed is False
    assert any(f.startswith("C3 mismatch class=") for f in report.failures)


def test_lowered_bound_fails_on_every_class():
    report = check_certificate(AP4._replace(bound="24*x^3-48*x^2+24*x-1/100"))
    assert report.passed is False
    named = {f.split("'")[1] for f in report.failures if f.startswith("positivity violation")}
    assert named == {ln.code for ln in report.lines} and len(named) == 11


def test_mutated_vanishing_coefficient_fails_on_named_classes():
    (V,) = (t for t in PEENN_SQRT2.terms if t.name == "V")
    vector = tuple(
        (d, c.replace("-120*a^6", "-119*a^6")) if d == "112" else (d, c) for d, c in V.vector
    )
    assert vector != V.vector
    report = check_certificate(_with_term(PEENN_SQRT2, "V", vector=vector))
    assert report.passed is False
    assert any(f.startswith("total mismatch class=") for f in report.failures)


# The red-pair pattern has density exactly b, its red density: twice the
# density minus twice the vanishing term (red density - b) is 2b on every
# 3-vertex class.
RED_PAIR = Certificate(
    name="red-pair",
    pattern="2 R",
    k=3,
    names=("b",),
    var="b",
    fixed=(),
    interval=(Q2.of(0), Q2.of(1), True),
    domain=(Q2.of(0), Q2.of(1)),
    bound="2*b",
    terms=(
        Term("R", "1", "pattern"),
        Term("V", "-2", "vanishing", (("", "1"),), pair=("2", "b")),
    ),
)


def test_vanishing_terms_match_the_subset_oracle():
    # L (pair - density) = L pair - (L 1) density, each product taken over
    # every subset split
    for cert in (AP4, PEENN_SQRT2, RED_PAIR):
        (term,) = (t for t in cert.terms if t.kind == "vanishing")
        names = cert.names
        L = _vector(term.vector, term.roots, names)
        digit, density = term.pair
        pair = unit_flag(host_from_digits(digit), (), names)
        ones = basis_combo(pair.k, names)
        want = _oracle_product(L, pair, cert.k) - _oracle_product(L, ones, cert.k).scale(
            parse_poly(density, names)
        )
        assert _term_combo(term, cert.pattern, cert.k, names).terms == want.terms, cert.name


def test_red_pair_certificate_passes():
    report = check_certificate(RED_PAIR)
    assert report.passed, report.failures
    assert [ln.status for ln in report.lines] == ["zero"] * 4
    assert "verdict=PASS classes=4 max_coeff=0" in report.render()


def test_red_pair_certificate_with_a_lower_bound_fails():
    report = check_certificate(RED_PAIR._replace(bound="2*b-1/100"))
    assert report.passed is False
    assert len(report.failures) == 4
    assert all(f.startswith("positivity violation class=") for f in report.failures)


@pytest.mark.parametrize(
    "load, fname",
    [
        (ap4_reference_table, "ap4_certificate_table.txt"),
        (peenn_reference_coeffs, "peenn_certificate_coeffs.txt"),
        (peenn_expansion_reference, "peenn_expansion.txt"),
    ],
)
@pytest.mark.parametrize("fault", ["duplicate", "missing"])
def test_reference_tables_reject_duplicate_and_missing_rows(monkeypatch, load, fname, fault):
    rows = list(certificates._data_lines(fname))
    assert len(load.__wrapped__()) == len(rows)
    rows = rows + rows[-1:] if fault == "duplicate" else rows[:-1]
    monkeypatch.setattr(certificates, "_data_lines", lambda name: iter(rows))
    with pytest.raises(ValueError, match="duplicate class" if fault == "duplicate" else "expected"):
        load.__wrapped__()


def test_peenn_reference_self_consistency():
    coeffs = peenn_reference_coeffs()
    assert len(coeffs) == 34
    zero = sum(1 for row in coeffs.values() if row["total"].is_zero())
    assert zero == 5


def test_stability_families():
    assert [len(FAMILY_MAIN_DIGITS), len(FAMILY_HALF_DIGITS), len(FORBIDDEN_4_DIGITS)] == [5, 4, 5]
    assert {host_from_digits(d).n for d in FAMILY_MAIN_DIGITS + FAMILY_HALF_DIGITS} == {5}
    assert {host_from_digits(d).n for d in FORBIDDEN_4_DIGITS} == {4}
    report = stability_family_check()
    assert report.passed, report.failures
    assert len(report.lines) == 45
    # only the 3-edge path embeds into the alternating 5-cycle
    assert report.zero_classes == (_c5_embed_expected(),)


def _c5_embed_expected() -> str:
    # digits of the 4-vertex path class within the forbidden list
    for d in FORBIDDEN_4_DIGITS:
        g = host_from_digits(d)
        degs = sorted(g.degrees())
        if g.red_count() == 3 and degs == [1, 1, 2, 2]:
            return d
    raise AssertionError("path entry missing from the forbidden list")


def test_stability_report_mentions_family_sizes():
    report = stability_family_check()
    assert any("main=5 half=4" in n for n in report.notes)


def test_family_half_members():
    # K5 minus one pair, complete split 2+3, the 4-leaf star, the 5-cycle
    stats = sorted(
        (g.red_count(), sorted(g.degrees()))
        for g in map(host_from_digits, FAMILY_HALF_DIGITS)
    )
    assert stats == sorted(
        [
            (9, [3, 3, 4, 4, 4]),
            (7, [2, 2, 2, 4, 4]),
            (4, [1, 1, 1, 1, 4]),
            (5, [2, 2, 2, 2, 2]),
        ]
    )
