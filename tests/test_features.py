import math
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from doctnn import (
    DocumentInstance,
    DocumentView,
    GenSpec,
    Token,
    build_extractors,
    default_config,
    extract_all,
    generate,
    generate_ambiguous,
)
from doctnn import features
from doctnn.features import (
    ADDRESS_KEYWORDS,
    ALIGN_TOL,
    BOTTOM_BAND_Y,
    LEFT_BAND_X,
    MIDDLE_BAND,
    RIGHT_REGION_X,
    TOTAL_KEYWORDS,
    TOTAL_KEYWORDS_EXTENDED,
    ElementExtractor,
    ExtractorSpec,
    Tally,
    _fold,
    _norm,
)
from doctnn.generator import DESK_NOISE
from conftest import doc, measure, reference_best_run, reference_keyword_hits, tok
from reference_levels import (
    amount_area_l2,
    amount_area_l3,
    designation_zone_l2,
    horizontal_alignment_l1,
    text_block_l2,
)

EXTRACTORS = build_extractors(default_config().extractors)
GATED = ("amount_area", "designation_zone", "code_area", "text_block", "date_indicator")


def value(name, document, level=1):
    return EXTRACTORS[name].evaluate(document, level)


# --- fixtures reused by the cost-ordering property ---------------------------

def numbers_column():
    return doc([tok(t, 0.7, 0.2 + i * 0.05) for i, t in enumerate(("12", "7.5", "90"))])


def qp_amount_rows(amounts=("7.0", "10")):
    rows = [("2", "3.5", amounts[0])]
    if len(amounts) > 1:
        rows.append(("1", "10", amounts[1]))
    tokens = []
    for i, row in enumerate(rows):
        for x, text in zip((0.55, 0.68, 0.82), row):
            tokens.append(tok(text, x, 0.3 + i * 0.05))
    return doc(tokens)


def words_column(x=0.35):
    return doc([tok(t, x, 0.3 + i * 0.05) for i, t in enumerate(("Widget", "Bracket", "Bolt"))])


def flanked_words():
    tokens = [tok(t, 0.35, 0.3 + i * 0.05) for i, t in enumerate(("Widget", "Bracket", "Bolt"))]
    tokens += [tok(t, 0.08, 0.3 + i * 0.05) for i, t in enumerate(("AB1", "CD2"))]
    tokens += [tok(t, 0.8, 0.3 + i * 0.05) for i, t in enumerate(("12", "99"))]
    return doc(tokens)


def code_column(x=0.06):
    return doc([tok(t, x, 0.2 + i * 0.04, w=0.04) for i, t in enumerate(("AB1", "AB2", "CD9"))])


STAGGERED = (0.1, 0.2, 0.1, 0.3, 0.14)


def paragraph_block(rows=5, lefts=(0.1,)):
    """Rows of four alphabetic words, row ``r`` starting at ``lefts[r % len(lefts)]``."""
    tokens = []
    for r in range(rows):
        x0 = lefts[r % len(lefts)]
        for c, word in enumerate(("lorem", "words", "plain", "text")):
            tokens.append(tok(word, x0 + c * 0.12, 0.1 + r * 0.03))
    return doc(tokens)


FIXTURES = [
    numbers_column(),
    qp_amount_rows(),
    qp_amount_rows(amounts=("8.0",)),
    words_column(),
    flanked_words(),
    code_column(),
    paragraph_block(),
    paragraph_block(lefts=STAGGERED),
    doc([tok("12/05/2021", 0.2, 0.2)]),
    doc([tok("alpha", 0.2, 0.2), tok("beta", 0.4, 0.2)]),
    doc([]),
]


# --- keyword folding ---------------------------------------------------------

# what the Unicode fold makes of text outside ASCII, and of a token holding a newline
FOLDS = {
    "Dépôt": "depot", "№42": "no42", "ﬁle": "file", "Straße": "strasse", "İ": "i",
    "(Total:\nVAT)": "total:\nvat",
}


@settings(max_examples=200, deadline=None)
@given(st.text(st.sampled_from(string.printable)))
@example("Dépôt")
@example("№42")
@example("ﬁle")
@example("Straße")
@example("İ")
@example("(Total:\nVAT)")
def test_norm_folds_as_the_unicode_path_does(text):
    expected = _fold(text).strip(".,:;!?()[]\"'")
    assert _norm(text) == FOLDS.get(text, expected) == expected
    if text:
        view = DocumentView(doc([tok(text, 0.1, 0.1), tok(text, 0.5, 0.1)]))
        assert view.norms == (expected, expected)
        assert view.folded == f"{expected}\n{expected}"
    empty = DocumentView(doc([]))
    assert (empty.norms, empty.folded) == ((), "")


# --- evaluate ------------------------------------------------------------------

@pytest.mark.parametrize("raw, clamped", [
    (math.nan, 0.0), (-0.0, 0.0), (1.5, 1.0), (-2, 0.0), (1, 1.0), (0.25, 0.25), (0, 0.0),
])
def test_evaluate_clamps_to_a_float_in_the_unit_interval(raw, clamped):
    probe = ElementExtractor(name="probe", levels=(lambda view, tally: raw,))
    document = doc([tok("Total", 0.1, 0.1)])
    for target in (document, DocumentView(document)):
        value = probe.evaluate(target, 1)
        assert type(value) is float and value == clamped
        assert math.copysign(1.0, value) == 1.0


def test_evaluate_refuses_a_level_outside_the_extractor():
    probe = ElementExtractor(name="probe", levels=(lambda view, tally: 0.5,) * 2)
    for level in (0, 3):
        with pytest.raises(ValueError, match=rf"^extractor 'probe': level {level} not in 1\.\.2$"):
            probe.evaluate(doc([]), level)


# --- amount area -------------------------------------------------------------

def test_amount_area_product_gate_passes():
    d = qp_amount_rows()
    assert value("amount_area", d, 1) == 1.0
    assert value("amount_area", d, 3) == 1.0
    # the product holds in one of the two rows: half is a majority
    assert value("amount_area", qp_amount_rows(amounts=("7.0", "99")), 3) == 1.0


def test_amount_area_grid_of_two_rows_of_two_is_aligned():
    # the fewest numeric tokens level 2 accepts: two columns of two, two rows of two
    d = doc([tok(t, x, y) for x, y, t in ((0.6, 0.3, "2"), (0.8, 0.3, "7"),
                                          (0.6, 0.35, "1"), (0.8, 0.35, "10"))])
    assert value("amount_area", d, 2) == value("amount_area", d, 1) == 1.0
    assert value("amount_area", doc(d.tokens[:3]), 2) == 0.0


def test_amount_area_product_gate_fails():
    d = qp_amount_rows(amounts=("8.0",))
    assert value("amount_area", d, 1) == 1.0
    assert value("amount_area", d, 3) == 0.0


def test_amount_region_starts_at_right_region_x():
    d = doc([tok("12", RIGHT_REGION_X, 0.3), tok("total", 0.7, 0.3)])
    assert value("amount_area", d) == 0.5


def test_amount_area_all_alphabetic_zero():
    d = doc([tok(t, 0.6, 0.2 + i * 0.05) for i, t in enumerate(("alpha", "beta", "gamma"))])
    for level in (1, 2, 3):
        assert value("amount_area", d, level) == 0.0


# --- designation zone ----------------------------------------------------------

def test_designation_words_column():
    assert value("designation_zone", words_column()) >= 0.5


def test_designation_numeric_only_zero():
    d = doc([tok("12", 0.35, 0.3), tok("99", 0.35, 0.4)])
    assert value("designation_zone", d) == 0.0


def test_designation_band_holds_its_left_edge_but_not_its_right():
    lo, hi = MIDDLE_BAND
    assert value("designation_zone", doc([tok("Widget", lo, 0.3)])) == 1.0
    assert value("designation_zone", doc([tok("Widget", hi, 0.3)])) == 0.0


def test_designation_flanked_retains_level2_value():
    d = flanked_words()
    level2 = value("designation_zone", d, 2)
    level3 = value("designation_zone", d, 3)
    assert level2 > 0.0
    assert level3 == level2


def test_designation_unflanked_level3_zero():
    assert value("designation_zone", words_column(), 3) == 0.0


# --- code area --------------------------------------------------------------------

def test_code_area_leftmost_column():
    assert value("code_area", code_column()) > 0.0
    # three short codes are the fewest that make a candidate column at level 2
    assert value("code_area", code_column(), 2) == value("code_area", code_column()) > 0.0
    assert value("code_area", doc(code_column().tokens[:2]), 2) == 0.0


def test_code_band_holds_its_right_edge():
    assert value("code_area", doc([tok("AB1", LEFT_BAND_X, 0.3)])) == 1.0


def test_code_area_empty_doc():
    assert value("code_area", doc([])) == 0.0


def test_code_area_rightmost_column_is_zero_at_level3():
    assert value("code_area", code_column(x=0.8), 3) == 0.0
    # a column of three numbers left of the candidate cancels it; one of two does not
    codes = code_column(x=0.12).tokens
    for count in (3, 2):
        numbers = [tok(t, 0.02, 0.2 + i * 0.04) for i, t in enumerate(("12", "34", "56")[:count])]
        d = doc([*numbers, *codes])
        assert value("code_area", d, 2) > 0.0
        assert value("code_area", d, 3) == (0.0 if count == 3 else value("code_area", d, 2))


# --- alignment -----------------------------------------------------------------------

def test_vertical_alignment_counting():
    tokens = [tok("a", 0.10, 0.1 + i * 0.05) for i in range(4)]
    tokens += [tok("b", x, 0.5) for x in (0.3, 0.45, 0.6, 0.75)]
    assert value("vertical_alignment", doc(tokens)) == 0.5


def test_vertical_alignment_needs_three_tokens():
    assert value("vertical_alignment", doc([tok("a", 0.1, 0.1), tok("b", 0.1, 0.2)])) == 0.0
    # three tokens on the page, but no column holds three of them
    pair_and_one = doc([tok("a", 0.1, 0.1), tok("b", 0.1, 0.2), tok("c", 0.5, 0.3)])
    assert value("vertical_alignment", pair_and_one) == 0.0
    three = doc([tok("a", 0.1, 0.1), tok("b", 0.1, 0.2), tok("c", 0.1, 0.3)])
    assert value("vertical_alignment", three) == 1.0


def test_vertical_alignment_right_justify_refinement():
    tokens = [
        tok("aaa", 0.10, 0.1, w=0.30),
        tok("bbb", 0.13, 0.2, w=0.27),
        tok("ccc", 0.16, 0.3, w=0.24),
        tok("ddd", 0.19, 0.4, w=0.21),
    ]
    d = doc(tokens)
    level1 = value("vertical_alignment", d, 1)
    level2 = value("vertical_alignment", d, 2)
    assert level2 > level1
    assert level2 == 1.0


# coordinates and widths drawn as k / 200, so that left and right edges meet
# and gaps fall within rounding of align_tol (2 / 200) on both sides
edge_cells = st.lists(st.tuples(st.integers(0, 199), st.integers(1, 200)), max_size=12)


# one grouping rule, two readers: _cluster builds the groups, _largest_group
# gives the largest one's size
@settings(max_examples=200, deadline=None)
@given(edge_cells, st.sampled_from([0.0, ALIGN_TOL, 0.015, 0.05]))
@example([], ALIGN_TOL)
@example([(0, 10), (0, 10)], 0.0)  # a gap of 0 at a tolerance of 0
@example([(7, 10)] * 3, ALIGN_TOL)  # duplicate edges
@example([(0, 10), (2, 10)], ALIGN_TOL)  # 0.01 - 0.0 is exactly 0.01
@example([(10, 10), (11, 10), (14, 10)], ALIGN_TOL)  # one step under align_tol, then one over
def test_largest_group_counts_what_cluster_groups(cells, tol):
    tokens = [Token("a", k / 200, 0.5, min(w, 200 - k) / 200, 0.02) for k, w in cells]
    for key in (features._X, features._RIGHT):
        expected = max(map(len, features._cluster(tokens, key, tol)), default=0)
        assert features._largest_group(sorted(map(key, tokens)), tol) == expected


def test_largest_group_joins_a_gap_of_exactly_tol():
    # 0.75 - 0.5 and 1.0 - 0.75 are exactly 0.25
    assert features._largest_group([0.5, 0.75, 1.0], 0.25) == 3
    assert features._largest_group([0.5, 0.75, 1.0], math.nextafter(0.25, 0.0)) == 1
    assert features._largest_group([0.5, 0.5, 0.75, 1.0], 0.0) == 2
    assert features._largest_group([], ALIGN_TOL) == 0


def test_horizontal_alignment_regular_row():
    d = doc([tok("a", x, 0.2) for x in (0.1, 0.2, 0.3, 0.4)])
    assert value("horizontal_alignment", d) == pytest.approx(1.0)


def test_horizontal_alignment_no_wide_rows():
    d = doc([tok("a", 0.1, 0.2), tok("b", 0.3, 0.2)])
    assert value("horizontal_alignment", d) == 0.0


def test_horizontal_alignment_gaps_whose_square_underflows():
    # mean gap 1.5e-170: its square underflows to 0, which must not divide
    d = doc([tok("a", x, 0.2) for x in (0.0, 1e-170, 3e-170)])
    assert value("horizontal_alignment", d) == 0.0


def test_horizontal_alignment_irregular_gaps():
    d = doc([tok("a", x, 0.2) for x in (0.1, 0.15, 0.35, 0.4)])
    got = value("horizontal_alignment", d)
    assert got < 1.0
    assert got == pytest.approx(0.5, abs=1e-9)


HORIZONTAL = default_config().extractors["horizontal_alignment"]


def check_horizontal_reference(tokens):
    expected = horizontal_alignment_l1(tokens, HORIZONTAL.params)
    assert measure(EXTRACTORS["horizontal_alignment"], doc(tokens), 1) == expected


def test_horizontal_alignment_matches_its_reference_on_desk_and_fixtures(desk_corpora):
    for document in desk_corpora[1] + generate_ambiguous(7, 24):
        check_horizontal_reference(list(document.tokens))


@st.composite
def grid_rows(draw):
    """Rows of 3 to 8 tokens on a k / 200 grid: left edges evenly spaced, some
    nudged, some equal (a step of 0 or a nudge onto a neighbour); tops within
    a row and from row to row 0 to 3 steps apart, so that two tops 2 steps
    (``align_tol``) apart fall within rounding of it on both sides."""
    tokens = []
    top = draw(st.integers(0, 60))
    for _ in range(draw(st.integers(1, 4))):
        step = draw(st.integers(0, 24))
        start = draw(st.integers(0, 199 - 7 * step))
        for i in range(draw(st.integers(3, 8))):
            x = start + i * step + draw(st.sampled_from((0, 0, 0, 1, -1, 5)))
            y = top + draw(st.sampled_from((0, 0, 0, 1, 2, 3)))
            tokens.append(tok("w", min(199, max(0, x)) / 200, min(196, y) / 200))
        top += draw(st.sampled_from((2, 3, 4, 10, 40)))
    return tokens


@settings(max_examples=200, deadline=None)
@given(grid_rows())
@example([tok("w", 0.1, 0.2)] * 3)  # every gap 0
@example([tok("w", x / 200, 4 / 200) for x in (10, 20, 30)]
         + [tok("w", 40 / 200, 6 / 200)])  # 6/200 - 4/200 rounds to align_tol: one row
@example([tok("w", x / 200, 3 / 200) for x in (10, 20, 30)]
         + [tok("w", x / 200, 5 / 200) for x in (40, 50, 60)])  # rounds above it: two rows
def test_horizontal_alignment_matches_its_reference(tokens):
    check_horizontal_reference(tokens)


# --- keyword groups ---------------------------------------------------------------------

def test_keywords_total_both_present():
    d = doc([tok("Total", 0.5, 0.5), tok("VAT", 0.5, 0.55)])
    assert value("keywords_total", d) == 1.0


def test_keywords_total_extended_set():
    d = doc([tok("Tax", 0.5, 0.5)])
    assert value("keywords_total", d, 1) == 0.0
    assert value("keywords_total", d, 2) == 0.5


def test_keywords_total_absent():
    d = doc([tok("hello", 0.5, 0.5)])
    assert value("keywords_total", d, 1) == 0.0
    assert value("keywords_total", d, 2) == 0.0


def test_keyword_bigrams_need_adjacent_tokens_on_one_row():
    assert value("keywords_total", doc([tok("Net", 0.1, 0.5), tok("Pay:", 0.2, 0.5)]), 2) == 0.5
    # the bigram may span the join of the two folded texts
    spanning = doc([tok("Xnet", 0.1, 0.5), tok("payment", 0.2, 0.5)])
    assert value("keywords_total", spanning, 2) == 0.5
    two_rows = doc([tok("Net", 0.1, 0.5), tok("Pay", 0.2, 0.6)])
    assert value("keywords_total", two_rows, 2) == 0.0
    postal = doc([tok("Postal", 0.1, 0.2), tok("Code", 0.2, 0.2)])
    assert value("keywords_address", postal, 1) == pytest.approx(1 / 3)


def test_keywords_address_three_hits():
    d = doc([tok("Mr.", 0.1, 0.1), tok("Street", 0.1, 0.15), tok("BP", 0.1, 0.2)])
    assert value("keywords_address", d) == 1.0


def test_keywords_address_requires_adjacent_value_at_level2():
    d = doc([tok("Name", 0.1, 0.1)])
    assert value("keywords_address", d, 1) == pytest.approx(1 / 3)
    assert value("keywords_address", d, 2) == 0.0


def test_keywords_address_value_on_same_row():
    d = doc([tok("Name", 0.1, 0.1), tok("Dupont", 0.25, 0.1)])
    assert value("keywords_address", d, 2) == pytest.approx(1 / 3)


def test_keywords_address_empty():
    assert value("keywords_address", doc([])) == 0.0


# --- text block ------------------------------------------------------------------------------

def test_text_block_pure_paragraph():
    assert value("text_block", paragraph_block()) == 1.0


def test_text_block_numbers_only():
    d = doc([tok("12", 0.1, 0.1 + i * 0.03) for i in range(5)])
    assert value("text_block", d) == 0.0


def test_text_block_staggered_left_edges():
    d = paragraph_block(lefts=STAGGERED)
    assert value("text_block", d, 2) < value("text_block", d, 1)
    # four of five rows at one left edge is exactly the 80% level 2 asks for
    d = paragraph_block(lefts=(0.1, 0.1, 0.1, 0.1, 0.3))
    assert value("text_block", d, 2) == value("text_block", d, 1) == 1.0
    # left edges 0.0 and 0.01 are exactly align_tol apart: one left edge
    d = paragraph_block(lefts=(0.0, ALIGN_TOL))
    assert value("text_block", d, 2) == value("text_block", d, 1) == 1.0


TEXT_BLOCK = default_config().extractors["text_block"]


@st.composite
def text_rows(draw):
    """Rows of 1 to 4 tokens, tops 10 steps apart on a k / 200 grid. Each row
    starts 0 to 3 steps from the row before (or 10), so that two left edges 2
    steps (``align_tol``) apart fall within rounding of it on both sides; a
    numeric row ends a run."""
    tokens = []
    left = draw(st.integers(0, 40))
    for r in range(draw(st.integers(1, 9))):
        left = max(0, left + draw(st.sampled_from((0, 0, 1, -1, 2, -2, 3, -3, 10))))
        word = draw(st.sampled_from(("lorem", "lorem", "lorem", "12")))
        tokens += [tok(word, (left + 20 * c) / 200, (10 + 10 * r) / 200)
                   for c in range(draw(st.integers(1, 4)))]
    return tokens


def left_edged_rows(*lefts):
    return [tok("lorem", k / 200, (10 + 10 * r) / 200) for r, k in enumerate(lefts)]


@settings(max_examples=200, deadline=None)
@given(text_rows())
@example(left_edged_rows(10, 12, 10, 12, 10))  # left edges align_tol apart
@example(left_edged_rows(10, 11, 12, 13, 14))  # one step under it, row to row
@example(left_edged_rows(10, 13, 10, 13, 10))  # one step over it: 3 of 5 rows
@example(left_edged_rows(10, 10, 10, 10, 13))  # 4 of 5 rows is exactly 80%
def test_text_block_rows_left_aligned_matches_its_reference(tokens):
    expected = text_block_l2(tokens, TEXT_BLOCK.params)
    assert measure(EXTRACTORS["text_block"], doc(tokens), 2) == expected


# --- date indicator ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,level1,level2",
    [
        ("12/05/2021", 1.0, 1.0),
        ("12-05-21", 1.0, 1.0),
        ("45/13/2021", 1.0, 0.0),
        # each bound of day and month, on both of its sides
        ("01/01/2021", 1.0, 1.0),
        ("31/12/2021", 1.0, 1.0),
        ("00/05/2021", 1.0, 0.0),
        ("32/05/2021", 1.0, 0.0),
        ("12/00/2021", 1.0, 0.0),
        ("12/13/2021", 1.0, 0.0),
        ("1/5/2021", 0.0, 0.0),
    ],
)
def test_date_indicator(text, level1, level2):
    d = doc([tok(text, 0.2, 0.2)])
    assert value("date_indicator", d, 1) == level1
    assert value("date_indicator", d, 2) == level2


def test_date_indicator_prose_is_not_a_date():
    d = doc([tok("May", 0.2, 0.2), tok("12", 0.26, 0.2)])
    assert value("date_indicator", d) == 0.0


# --- isolated block --------------------------------------------------------------------------

def test_isolated_block_lone_cluster():
    d = doc([tok("Signed", 0.6, 0.9), tok("J.M.", 0.72, 0.9), tok("body", 0.1, 0.4)])
    assert value("isolated_block", d) == 1.0
    # max_tokens is 4: a cluster of four is still isolated
    d = doc([tok("w", 0.1 + i * 0.2, 0.9) for i in range(4)] + [tok("body", 0.1, 0.4)])
    assert value("isolated_block", d) == 1.0


def test_isolated_block_empty_bottom():
    d = doc([tok("body", 0.1, 0.4)])
    assert value("isolated_block", d) == 0.0


def test_isolated_block_dense_bottom():
    d = doc([tok("w", 0.1 + i * 0.08, 0.82 + (i % 3) * 0.05) for i in range(6)])
    assert value("isolated_block", d) == 0.0
    d = doc([tok("w", 0.1 + i * 0.15, 0.9) for i in range(5)] + [tok("body", 0.1, 0.4)])
    assert value("isolated_block", d) == 0.0


def test_isolated_block_gap_too_small():
    d = doc([tok("Signed", 0.6, 0.85), tok("above", 0.6, 0.79)])
    assert value("isolated_block", d) == 0.0


def test_isolated_block_band_edge_lies_above_the_band():
    # a token at exactly bottom_band_y is not in the cluster, and it is above it
    d = doc([tok("body", 0.1, 0.1), tok("edge", 0.1, BOTTOM_BAND_Y), tok("Signed", 0.6, 0.9)])
    assert value("isolated_block", d) == 1.0
    d = doc([tok("edge", 0.1, BOTTOM_BAND_Y), tok("Signed", 0.6, 0.85)])
    assert value("isolated_block", d) == 0.0


def test_isolated_block_gap_of_exactly_min_gap_is_isolated():
    spec = ExtractorSpec(kind="isolated_block", params={"min_gap": 0.0625})
    isolated = features.build_extractor("isolated_block", spec)
    # 0.9375 - (0.5 + 0.375) is exactly 0.0625
    d = doc([tok("above", 0.1, 0.5, h=0.375), tok("Signed", 0.6, 0.9375)])
    assert isolated.evaluate(d, 1) == 1.0


def test_isolated_block_gap_is_taken_from_the_lowest_bottom_above():
    # "tall" starts higher but reaches lower than "short": the gap is from
    # tall's bottom (0.79) to the cluster (0.83), 0.04, below min_gap
    tall, short = tok("tall", 0.1, 0.5, h=0.29), tok("short", 0.4, 0.7)
    for above in ((tall, short), (short, tall)):
        assert value("isolated_block", doc([*above, tok("Signed", 0.6, 0.83)])) == 0.0
        # at 0.85 the gap from tall's bottom is 0.06
        assert value("isolated_block", doc([*above, tok("Signed", 0.6, 0.85)])) == 1.0


# --- plain references -------------------------------------------------------------------

REFERENCES = {
    ("designation_zone", 2): designation_zone_l2,
    ("text_block", 2): text_block_l2,
    ("amount_area", 2): amount_area_l2,
    ("amount_area", 3): amount_area_l3,
}


@pytest.mark.parametrize("name,level", REFERENCES)
def test_level_matches_its_reference_on_desk_and_fixtures(desk_corpora, name, level):
    params = default_config().extractors[name].params
    for document in desk_corpora[1] + generate_ambiguous(7, 24):
        expected = REFERENCES[name, level](list(document.tokens), params)
        assert measure(EXTRACTORS[name], document, level) == expected, document.id


# --- extract_all ----------------------------------------------------------------------------

def test_extract_all_empty_document():
    vector = extract_all(EXTRACTORS, doc([]))
    assert set(vector) == set(EXTRACTORS)
    assert all(v == 0.0 for v in vector.values())


def test_extract_all_numbers_column():
    vector = extract_all(EXTRACTORS, numbers_column())
    assert vector["amount_area"] >= 0.5


def test_extract_all_override_level():
    # aligned quantity, price and amount columns whose products are wrong:
    # only the level-3 gate checks quantity * price = amount
    d = qp_amount_rows(("8.0", "11"))
    amount = EXTRACTORS["amount_area"]
    assert amount.evaluate(d, 3) != amount.evaluate(d, 1)
    assert extract_all(EXTRACTORS, d, {"amount_area": 3})["amount_area"] == amount.evaluate(d, 3)
    assert extract_all(EXTRACTORS, d)["amount_area"] == amount.evaluate(d, 1)


def test_extract_all_takes_an_override_for_every_element():
    d = numbers_column()
    assert extract_all(EXTRACTORS, d, dict.fromkeys(EXTRACTORS, 1)) == extract_all(EXTRACTORS, d)


def test_extract_all_rejects_invalid_level():
    with pytest.raises(ValueError, match="level 5"):
        extract_all(EXTRACTORS, doc([]), {"amount_area": 5})


def test_extract_all_rejects_unknown_element():
    with pytest.raises(ValueError, match="unknown element"):
        extract_all(EXTRACTORS, doc([]), {"page_margin": 1})


# --- properties -----------------------------------------------------------------------------

def random_tokens():
    texts = st.sampled_from(
        ["Total", "VAT", "12", "3.50", "Widget", "AB1", "12/05/2021", "Mr.",
         "name", "x9", "Dépôt", "№42", ",", "0,75", "net"]
    )
    return st.builds(
        tok,
        text=texts,
        x=st.floats(0.0, 0.9),
        y=st.floats(0.0, 0.9),
        w=st.floats(0.01, 0.1),
        h=st.floats(0.01, 0.05),
    )


random_docs = st.builds(
    lambda tokens: DocumentInstance(id="fuzz", tokens=tuple(tokens)),
    st.lists(random_tokens(), max_size=25),
)


@settings(max_examples=60, deadline=None)
@given(random_docs)
def test_outputs_in_unit_interval_and_deterministic(document):
    for extractor in EXTRACTORS.values():
        for level in range(1, extractor.max_level + 1):
            first = extractor.evaluate(document, level)
            assert 0.0 <= first <= 1.0
            assert extractor.evaluate(document, level) == first


@settings(max_examples=60, deadline=None)
@given(random_docs)
def test_gated_extractors_tighten_monotonically(document):
    for name in GATED:
        extractor = EXTRACTORS[name]
        values = [extractor.evaluate(document, lvl) for lvl in range(1, extractor.max_level + 1)]
        for cheap, precise in zip(values, values[1:]):
            assert precise in (0.0, cheap)


@pytest.mark.parametrize("lower_value", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("verdict", [False, True])
def test_gate_keeps_or_cancels_the_lower_value(lower_value, verdict):
    asked = []

    def lower(view, tally):
        return lower_value

    def holds(view, tally):
        asked.append(view)
        return verdict

    view = DocumentView(qp_amount_rows())
    gated = features._gate(lower, holds)
    assert gated(view, Tally()) == (lower_value if verdict else 0.0)
    # a cancelled lower value is never refined, so the predicate is not asked
    assert asked == ([] if lower_value == 0.0 else [view])


# a visit is the modelled cost of a level: reads the shared view serves from
# memory are charged like scans, so these figures must not move with caching
QP_AMOUNT_ROWS_VISITS = {
    ("amount_area", 1): 12, ("amount_area", 2): 30, ("amount_area", 3): 48,
    ("designation_zone", 1): 6, ("designation_zone", 2): 6, ("designation_zone", 3): 6,
    ("code_area", 1): 6, ("code_area", 2): 6, ("code_area", 3): 6,
    ("vertical_alignment", 1): 6, ("vertical_alignment", 2): 12,
    ("horizontal_alignment", 1): 6,
    ("keywords_total", 1): 6, ("keywords_total", 2): 18,
    ("keywords_address", 1): 12, ("keywords_address", 2): 24,
    ("text_block", 1): 6, ("text_block", 2): 6,
    ("date_indicator", 1): 6, ("date_indicator", 2): 6,
    ("isolated_block", 1): 6,
}


def test_visits_per_level_on_qp_amount_rows():
    document = qp_amount_rows()
    visits = {
        (name, level): measure(extractor, document, level)[1]
        for name, extractor in EXTRACTORS.items()
        for level in range(1, extractor.max_level + 1)
    }
    assert visits == QP_AMOUNT_ROWS_VISITS


def generated_documents(seed, ambiguous):
    if ambiguous:
        return generate_ambiguous(seed, 2)
    counts = {"invoice": 1, "form": 1, "letter": 1}
    return generate(GenSpec(seed=seed, counts=counts, noise=DESK_NOISE))


def all_measures(document):
    return {
        (name, level): measure(extractor, document, level)
        for name, extractor in EXTRACTORS.items()
        for level in range(1, extractor.max_level + 1)
    }


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_shared_view_matches_plain_document(seed, ambiguous):
    for document in generated_documents(seed, ambiguous):
        plain = all_measures(document)
        # memo state differs with the order the view is read in: extractors
        # forward and backward, levels up and down, each (element, level) twice
        for order in (list(EXTRACTORS.items()), list(reversed(EXTRACTORS.items()))):
            for descending in (False, True):
                view = DocumentView(document)
                for name, extractor in order:
                    levels = range(1, extractor.max_level + 1)
                    for level in reversed(levels) if descending else levels:
                        for _ in range(2):
                            assert extractor.evaluate(view, level) == plain[name, level][0]
                            assert measure(extractor, view, level) == plain[name, level]


def anchor_ids(hits):
    return {kw: [id(t) for t in anchors] for kw, anchors in hits.items()}


def collected_anchors(view, found):
    """The anchors ``keywords_address`` L2 reads for each keyword the matcher found."""
    return {kw: list(features._anchors(view, kw, ALIGN_TOL)) for kw in found}


def check_keywords_against_reference(view, keywords):
    tally, reference_tally = Tally(), Tally()
    found = features._keywords_found(view, keywords, tally, ALIGN_TOL)
    reference = reference_keyword_hits(view, keywords, reference_tally, ALIGN_TOL)
    assert found == reference.keys()
    assert tally.visits == reference_tally.visits
    assert anchor_ids(collected_anchors(view, found)) == anchor_ids(reference)


def reference_keywords_found(view, keywords, tally, tol):
    return frozenset(reference_keyword_hits(view, keywords, tally, tol))


def reference_anchors(view, keyword, tol):
    return iter(reference_keyword_hits(view, [keyword], Tally(), tol).get(keyword, []))


# keyword-like tokens added to generated pages: some texts hold a space, so a
# bigram can lie inside one token as well as across two neighbours
keyword_tokens = st.builds(
    tok,
    text=st.sampled_from(["net pay", "Net", "Pay:", "postal", "Code", "Postal Code", "xnet",
                          "payment", "total", "VAT", "tax amount", "code postal", "Mr."]),
    x=st.floats(0.0, 0.9),
    y=st.sampled_from([0.1, 0.105, 0.5, 0.9]),
)
BIGRAM_KEYWORDS = ("net pay", "postal code", "code postal", "pay total", "tax amount", "vat")


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.lists(keyword_tokens, max_size=8))
def test_keyword_hits_and_best_run_match_references(seed, ambiguous, extra):
    for generated in generated_documents(seed, ambiguous):
        document = DocumentInstance(id=generated.id, tokens=generated.tokens + tuple(extra))
        view = DocumentView(document)
        for keywords in (TOTAL_KEYWORDS, TOTAL_KEYWORDS_EXTENDED, ADDRESS_KEYWORDS,
                         BIGRAM_KEYWORDS):
            check_keywords_against_reference(view, keywords)
        for min_rows in (1, 3):
            tally, reference_tally = Tally(), Tally()
            run = features._best_run(view, tally, ALIGN_TOL, min_rows)
            assert run == reference_best_run(view, reference_tally, ALIGN_TOL, min_rows)
            assert tally.visits == reference_tally.visits
        # every extractor value and visit count is the same with the references swapped in
        measured = all_measures(document)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "_keywords_found", reference_keywords_found)
            patch.setattr(features, "_anchors", reference_anchors)
            patch.setattr(features, "_best_run", reference_best_run)
            assert all_measures(document) == measured


def test_a_keyword_with_a_newline_needs_a_token_that_holds_it():
    # the view's joined text holds "total\nvat" across two neighbouring tokens
    across = DocumentView(doc([tok("Total", 0.1, 0.5), tok("VAT", 0.3, 0.5)]))
    assert "total\nvat" in across.folded
    check_keywords_against_reference(across, ("total\nvat", "vat"))
    assert features._keywords_found(across, ("total\nvat",), Tally(), ALIGN_TOL) == set()
    inside = DocumentView(doc([tok("Total\nVAT", 0.1, 0.5)]))
    check_keywords_against_reference(inside, ("total\nvat",))
    assert features._keywords_found(inside, ("total\nvat",), Tally(), ALIGN_TOL) == {"total\nvat"}


def test_a_bigram_with_an_empty_first_word_is_sought_in_every_row():
    view = DocumentView(doc([
        tok("Postal", 0.1, 0.1), tok("Code", 0.3, 0.1),
        tok("Zip", 0.1, 0.5), tok("code", 0.3, 0.5),
        tok("Code", 0.1, 0.9),
    ]))
    check_keywords_against_reference(view, (" code",))
    anchors = collected_anchors(view, {" code"})[" code"]
    assert [t.text for t in anchors] == ["Postal", "Zip"]


def test_a_bigram_first_word_in_a_row_without_its_second_is_no_match():
    lone = [tok("Postal", 0.1, 0.1), tok("Box", 0.3, 0.1), tok("Code", 0.1, 0.5)]
    view = DocumentView(doc(lone))
    check_keywords_against_reference(view, ADDRESS_KEYWORDS)
    assert "postal code" not in features._keywords_found(view, ADDRESS_KEYWORDS, Tally(), ALIGN_TOL)
    # a row that does hold the bigram anchors it; the lone "postal" row adds nothing
    view = DocumentView(doc(lone + [tok("Postal", 0.1, 0.9), tok("code", 0.3, 0.9)]))
    check_keywords_against_reference(view, ADDRESS_KEYWORDS)
    assert [t.y for t in collected_anchors(view, {"postal code"})["postal code"]] == [0.9]


@pytest.mark.parametrize("document", FIXTURES, ids=range(len(FIXTURES)))
def test_cost_ordering_by_token_visits(document):
    for extractor in EXTRACTORS.values():
        visits = [
            measure(extractor, document, level)[1]
            for level in range(1, extractor.max_level + 1)
        ]
        for cheap, precise in zip(visits, visits[1:]):
            assert precise >= cheap
