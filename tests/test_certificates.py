"""Certificate verifiers: reproduction, fault detection, sign analysis."""

from fractions import Fraction

import pytest

from semind import certificates
from semind.certificates import (
    C5_DIGITS,
    FAMILY_HALF_DIGITS,
    FAMILY_MAIN_DIGITS,
    FORBIDDEN_4_DIGITS,
    REGIME_RATIONAL,
    REGIME_SQRT2,
    _class_code,
    ap4_reference_table,
    host_from_digits,
    parse_poly,
    peenn_expansion_reference,
    peenn_reference_coeffs,
    stability_family_check,
    verify_ap4_certificate,
    verify_peenn_certificate,
)
from semind.counting import peenn_pattern
from semind.exactalg import Poly, Q2
from semind.flags import expand_pattern


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


def test_host_from_digits():
    c5 = host_from_digits(C5_DIGITS)
    assert c5.red_count() == 5
    assert set(c5.degrees()) == {2}
    with pytest.raises(ValueError):
        host_from_digits("12")
    with pytest.raises(ValueError):
        host_from_digits("103")


def test_ap4_certificate_passes():
    report = verify_ap4_certificate()
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
    report = verify_ap4_certificate(reference=table)
    assert not report.passed
    assert any(victim in f and "C3" in f for f in report.failures)


def test_ap4_multiplier_fails_past_half():
    report = verify_ap4_certificate(
        alpha_interval=(Fraction(0), Fraction(3, 5))
    )
    assert not report.passed
    assert any("C4" in f for f in report.failures)
    assert not any("C3" in f for f in report.failures)


def test_peenn_expansion_matches_reference():
    combo = expand_pattern(peenn_pattern(), 5, ("a", "B", "C"))
    got = {fl.graph.to_text(): poly for fl, poly in combo.terms.items()}
    want = peenn_expansion_reference()
    assert set(got) == set(want)
    for code, cnt in want.items():
        assert got[code] == Poly.const(("a", "B", "C"), cnt)
    assert sorted(want.values()) == sorted(
        [4, 12, 24, 6, 8, 16, 20, 12, 12, 20, 16, 2, 4, 8, 8, 6, 8, 4, 24, 12, 2, 12, 4]
    )


def test_peenn_sqrt2_regime_passes_with_expected_zero_set():
    report = verify_peenn_certificate(
        B=REGIME_SQRT2["B"],
        C=REGIME_SQRT2["C"],
        interval=(REGIME_SQRT2["lo"], REGIME_SQRT2["hi"]),
    )
    assert report.passed, report.failures
    main_codes = {_class_code(d) for d in FAMILY_MAIN_DIGITS}
    half_codes = {_class_code(d) for d in FAMILY_HALF_DIGITS}
    assert set(report.zero_classes) == main_codes
    assert set(report.boundary_zero_classes) == half_codes
    assert report.interior_root_classes == {}


def test_peenn_rational_regime_passes():
    report = verify_peenn_certificate(
        B=REGIME_RATIONAL["B"],
        C=REGIME_RATIONAL["C"],
        interval=(REGIME_RATIONAL["lo"], REGIME_RATIONAL["hi"]),
        include_lo=False,
    )
    assert report.passed, report.failures
    main_codes = {_class_code(d) for d in FAMILY_MAIN_DIGITS}
    assert set(report.zero_classes) == main_codes
    assert report.interior_root_classes == {}


def test_peenn_negative_multiplier_fails():
    report = verify_peenn_certificate(
        B=REGIME_SQRT2["B"],
        C=Q2.of(Fraction(-1, 10)),
        interval=(REGIME_SQRT2["lo"], REGIME_SQRT2["hi"]),
    )
    assert not report.passed
    assert any("30*C" in f for f in report.failures)


def test_peenn_fails_below_exact_left_endpoint():
    # just below 1/sqrt2 several class coefficients turn positive
    report = verify_peenn_certificate(
        B=REGIME_SQRT2["B"],
        C=REGIME_SQRT2["C"],
        interval=(Q2.of(Fraction(705, 1000)), Q2.of(Fraction(4, 5))),
    )
    assert not report.passed
    assert any("positivity violation" in f for f in report.failures)


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
    zero = sum(1 for p in coeffs.values() if p.is_zero())
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
