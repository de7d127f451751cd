"""Tests for ISD-AS identifier parsing/formatting (repro.topology.isd_as)."""

import pytest

from repro.errors import ParseError
from repro.topology.isd_as import ISDAS, _parse_text, isd_as


class TestParsing:
    def test_paper_identifiers(self):
        ia = ISDAS.parse("19-ffaa:0:1303")
        assert ia.isd == 19
        assert ia.as_str == "ffaa:0:1303"

    def test_roundtrip(self):
        for text in ("16-ffaa:0:1002", "17-ffaa:1:e01", "1-0:0:1"):
            assert str(ISDAS.parse(text)) == text

    def test_parse_is_idempotent_on_instances(self):
        ia = ISDAS.parse("16-ffaa:0:1002")
        assert ISDAS.parse(ia) is ia

    def test_hex_case_normalised(self):
        assert str(ISDAS.parse("17-FFAA:0:1107")) == "17-ffaa:0:1107"

    def test_asn_numeric_value(self):
        ia = ISDAS.parse("1-0:0:10")
        assert ia.asn == 16

    def test_whitespace_stripped(self):
        assert ISDAS.parse("  16-ffaa:0:1002  ").isd == 16

    @pytest.mark.parametrize(
        "bad",
        ["", "16", "ffaa:0:1002", "16-ffaa:0", "16-ffaa:0:1:2", "x-ffaa:0:1",
         "16-gggg:0:1", "16-ffaa:0:11111"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            ISDAS.parse(bad)

    def test_helper_function(self):
        assert isd_as("16-ffaa:0:1002") == ISDAS.parse("16-ffaa:0:1002")


class TestParseMemo:
    def test_equal_to_a_fresh_instance(self):
        parsed = ISDAS.parse("19-ffaa:0:1303")
        assert parsed == ISDAS(isd=19, asn=0xFFAA00001303)
        assert hash(parsed) == hash(ISDAS(isd=19, asn=0xFFAA00001303))

    def test_same_text_reuses_the_instance(self):
        first = ISDAS.parse("17-ffaa:0:1107")
        assert ISDAS.parse("17-ffaa:0:1107") is first
        # Distinct spellings of the same identifier still compare equal.
        assert ISDAS.parse(" 17-FFAA:0:1107 ") == first

    def test_failed_parse_raises_every_time_and_is_not_memoized(self):
        _parse_text.cache_clear()
        for _ in range(3):
            with pytest.raises(ParseError):
                ISDAS.parse("16-not:an:as")
        info = _parse_text.cache_info()
        assert info.currsize == 0
        assert info.hits == 0

    def test_memo_is_bounded(self):
        assert _parse_text.cache_info().maxsize is not None


class TestAddresses:
    def test_address_formatting(self):
        ia = ISDAS.parse("16-ffaa:0:1002")
        assert ia.address("172.31.43.7") == "16-ffaa:0:1002,[172.31.43.7]"

    def test_parse_address(self):
        ia, ip = ISDAS.parse_address("16-ffaa:0:1002,[172.31.43.7]")
        assert str(ia) == "16-ffaa:0:1002"
        assert ip == "172.31.43.7"

    def test_parse_address_roundtrip(self):
        text = "19-ffaa:0:1303,[141.44.25.144]"
        ia, ip = ISDAS.parse_address(text)
        assert ia.address(ip) == text

    @pytest.mark.parametrize(
        "bad", ["16-ffaa:0:1002", "16-ffaa:0:1002,172.31.43.7", ",[1.2.3.4]"]
    )
    def test_rejects_bad_addresses(self, bad):
        with pytest.raises(ParseError):
            ISDAS.parse_address(bad)


class TestOrderingAndHashing:
    def test_total_order(self):
        a = ISDAS.parse("16-ffaa:0:1002")
        b = ISDAS.parse("16-ffaa:0:1003")
        c = ISDAS.parse("17-ffaa:0:1")
        assert a < b < c

    def test_sorted_by_isd_then_asn(self):
        items = [ISDAS.parse(t) for t in ("19-ffaa:0:1", "16-ffaa:0:2", "16-ffaa:0:1")]
        assert [str(i) for i in sorted(items)] == [
            "16-ffaa:0:1",
            "16-ffaa:0:2",
            "19-ffaa:0:1",
        ]

    def test_hashable_and_equal(self):
        assert len({ISDAS.parse("16-ffaa:0:1002"), ISDAS.parse("16-ffaa:0:1002")}) == 1

    def test_bounds_checked(self):
        with pytest.raises(ParseError):
            ISDAS(isd=70000, asn=1)
        with pytest.raises(ParseError):
            ISDAS(isd=1, asn=1 << 48)
