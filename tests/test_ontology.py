"""CAMEO codes, the four-class reduction, and quad-map files."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadcode.ontology import (
    CLASSES,
    CameoCode,
    OntologyError,
    QuadClass,
    QuadClassMap,
    default_quad_map,
    dumps_quad_map,
    load_quad_map,
    parse_cameo_code,
    parse_quad_map,
    quad_map_digest,
    quad_of,
    top_level,
)

# brute-force oracle for the default reduction: the top-level range rule
# stated directly, kept independent of the parser and map machinery
def _expected_default_quad(top: int) -> QuadClass:
    if 1 <= top <= 5:
        return QuadClass.VERBAL_COOPERATION
    if 6 <= top <= 8:
        return QuadClass.MATERIAL_COOPERATION
    if 9 <= top <= 13:
        return QuadClass.VERBAL_CONFLICT
    return QuadClass.MATERIAL_CONFLICT


valid_codes = st.integers(1, 20).flatmap(
    lambda top: st.text("0123456789", min_size=0, max_size=2).map(lambda tail: f"{top:02d}{tail}")
)


class TestCameoCode:
    def test_parse_examples(self):
        assert parse_cameo_code("14").digits == "14"
        assert parse_cameo_code(" 1411 ").digits == "1411"
        assert top_level(parse_cameo_code("142")) == 14
        assert str(parse_cameo_code("02")) == "02"

    def test_leading_zero_preserved(self):
        assert parse_cameo_code("02").digits == "02"
        assert parse_cameo_code("020").digits == "020"

    @pytest.mark.parametrize("bad", ["1", "14225", ""])
    def test_bad_length(self, bad):
        with pytest.raises(OntologyError, match=r"^CAMEO code must have 2-4 digits: "):
            parse_cameo_code(bad)

    @pytest.mark.parametrize("bad", ["1a", "xx", "1.4", "-14", "١٤"])
    def test_non_numeric(self, bad):
        with pytest.raises(OntologyError, match=r"^CAMEO code must be all digits: "):
            parse_cameo_code(bad)

    @pytest.mark.parametrize("bad", ["00", "21", "99", "0030", "215"])
    def test_top_level_out_of_range(self, bad):
        with pytest.raises(OntologyError, match=r"^top-level category must be 01-20: "):
            parse_cameo_code(bad)

    @given(valid_codes)
    def test_valid_codes_accepted(self, text):
        code = parse_cameo_code(text)
        assert code.digits == text
        assert 1 <= top_level(code) <= 20


class TestQuadClass:
    def test_canonical_index_order(self):
        assert [c.index for c in CLASSES] == [0, 1, 2, 3]
        assert CLASSES[0] is QuadClass.VERBAL_COOPERATION
        assert CLASSES[3] is QuadClass.MATERIAL_CONFLICT


class TestDefaultMap:
    def test_total_and_matches_range_rule(self, quad_map):
        for top in range(1, 21):
            assert quad_map[top] is _expected_default_quad(top)

    def test_boundary_codes(self, quad_map):
        # the fence posts of all four ranges
        for text, expected in [
            ("01", QuadClass.VERBAL_COOPERATION), ("05", QuadClass.VERBAL_COOPERATION),
            ("06", QuadClass.MATERIAL_COOPERATION), ("08", QuadClass.MATERIAL_COOPERATION),
            ("09", QuadClass.VERBAL_CONFLICT), ("13", QuadClass.VERBAL_CONFLICT),
            ("14", QuadClass.MATERIAL_CONFLICT), ("20", QuadClass.MATERIAL_CONFLICT),
        ]:
            assert quad_of(parse_cameo_code(text), quad_map) is expected

    def test_subcodes_follow_top_level(self, quad_map):
        assert quad_of(parse_cameo_code("1411"), quad_map) is QuadClass.MATERIAL_CONFLICT
        assert quad_of(parse_cameo_code("046"), quad_map) is QuadClass.VERBAL_COOPERATION

    @given(valid_codes)
    def test_reduction_equals_rule_everywhere(self, text):
        code = parse_cameo_code(text)
        assert quad_of(code, default_quad_map()) is _expected_default_quad(top_level(code))


class TestQuadMapParsing:
    def test_ranges_and_singletons(self):
        text = "01-04 verbal_cooperation\n05 material_cooperation\n06-13 verbal_conflict\n14-20 material_conflict\n"
        quad_map = parse_quad_map(text)
        assert quad_map[4] is QuadClass.VERBAL_COOPERATION
        assert quad_map[5] is QuadClass.MATERIAL_COOPERATION
        assert quad_map[6] is QuadClass.VERBAL_CONFLICT

    def test_comments_and_blanks_ignored(self):
        text = "# hello\n\n01-05 verbal_cooperation\n06-08 material_cooperation\n09-13 verbal_conflict\n14-20 material_conflict\n"
        assert parse_quad_map(text) == default_quad_map()

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_line_separator_stays_inside_a_comment(self, end):
        # str.splitlines would break at U+2028 and read a second entry for code 14
        text = "# 14 was verbal_cooperation\u202814 verbal_cooperation\n" + dumps_quad_map(default_quad_map())
        assert parse_quad_map(text.replace("\n", end)) == default_quad_map()

    def test_missing_top_level_rejected(self):
        with pytest.raises(OntologyError, match=r"^quad map has no entry for top-level code 20$"):
            parse_quad_map("01-19 verbal_cooperation\n")

    def test_duplicate_rejected(self):
        text = "01-05 verbal_cooperation\n05-08 material_cooperation\n09-13 verbal_conflict\n14-20 material_conflict\n"
        with pytest.raises(OntologyError, match=r"^quad map defines top-level code 05 twice$"):
            parse_quad_map(text)

    @pytest.mark.parametrize("line", ["05-01 verbal_cooperation", "0x verbal_cooperation", "01-05", "01-05 blue"])
    def test_parse_errors_carry_line_numbers(self, line):
        with pytest.raises(OntologyError, match=r"^quad map line 2: "):
            parse_quad_map("# comment\n" + line + "\n")


class TestRoundTrip:
    def test_dumps_is_fixed_point(self, quad_map):
        once = dumps_quad_map(quad_map)
        assert dumps_quad_map(parse_quad_map(once)) == once

    def test_file_round_trip_byte_identical(self, quad_map, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text(dumps_quad_map(quad_map), encoding="utf-8")
        first = path.read_bytes()
        path.write_text(dumps_quad_map(load_quad_map(path)), encoding="utf-8")
        assert path.read_bytes() == first

    def test_shipped_default_file_is_canonical(self):
        from importlib import resources

        shipped = (resources.files("quadcode.data") / "default_quadmap.txt").read_text(encoding="utf-8")
        assert shipped == dumps_quad_map(default_quad_map())

    def test_digest_stable_across_equal_maps(self, quad_map):
        rebuilt = QuadClassMap({top: quad_map[top] for top in range(1, 21)})
        assert quad_map_digest(rebuilt) == quad_map_digest(quad_map)

    def test_digest_changes_with_map(self, quad_map):
        flipped = QuadClassMap({top: QuadClass.MATERIAL_CONFLICT if top == 1 else quad_map[top] for top in range(1, 21)})
        assert quad_map_digest(flipped) != quad_map_digest(quad_map)

    @given(st.lists(st.sampled_from(CLASSES), min_size=20, max_size=20))
    def test_any_total_map_round_trips(self, assignment):
        quad_map = QuadClassMap(dict(zip(range(1, 21), assignment)))
        assert parse_quad_map(dumps_quad_map(quad_map)) == quad_map
