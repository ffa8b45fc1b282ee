import math
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from doctnn import (
    DocumentInstance,
    DocumentView,
    GenSpec,
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
    TOTAL_KEYWORDS,
    TOTAL_KEYWORDS_EXTENDED,
    ElementExtractor,
    Tally,
    _fold,
    _norm,
)
from doctnn.generator import DESK_NOISE
from conftest import doc, measure, reference_best_run, reference_keyword_hits, tok

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


def paragraph_block(rows=5, stagger=False):
    tokens = []
    lefts = (0.1, 0.2, 0.1, 0.3, 0.14)
    for r in range(rows):
        x0 = lefts[r % len(lefts)] if stagger else 0.1
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
    paragraph_block(stagger=True),
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


def test_amount_area_product_gate_fails():
    d = qp_amount_rows(amounts=("8.0",))
    assert value("amount_area", d, 1) == 1.0
    assert value("amount_area", d, 3) == 0.0


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


def test_code_area_empty_doc():
    assert value("code_area", doc([])) == 0.0


def test_code_area_rightmost_column_is_zero_at_level3():
    assert value("code_area", code_column(x=0.8), 3) == 0.0


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
    d = paragraph_block(stagger=True)
    assert value("text_block", d, 2) < value("text_block", d, 1)


# --- date indicator ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,level1,level2",
    [
        ("12/05/2021", 1.0, 1.0),
        ("12-05-21", 1.0, 1.0),
        ("45/13/2021", 1.0, 0.0),
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


def test_isolated_block_empty_bottom():
    d = doc([tok("body", 0.1, 0.4)])
    assert value("isolated_block", d) == 0.0


def test_isolated_block_dense_bottom():
    d = doc([tok("w", 0.1 + i * 0.08, 0.82 + (i % 3) * 0.05) for i in range(6)])
    assert value("isolated_block", d) == 0.0


def test_isolated_block_gap_too_small():
    d = doc([tok("Signed", 0.6, 0.85), tok("above", 0.6, 0.79)])
    assert value("isolated_block", d) == 0.0


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
    return [(kw, [id(t) for t in anchors]) for kw, anchors in hits.items()]


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
            tally, reference_tally = Tally(), Tally()
            hits = features._keyword_hits(view, keywords, tally, ALIGN_TOL)
            reference = reference_keyword_hits(view, keywords, reference_tally, ALIGN_TOL)
            assert anchor_ids(hits) == anchor_ids(reference)
            assert tally.visits == reference_tally.visits
        for min_rows in (1, 3):
            tally, reference_tally = Tally(), Tally()
            run = features._best_run(view, tally, ALIGN_TOL, min_rows)
            assert run == reference_best_run(view, reference_tally, ALIGN_TOL, min_rows)
            assert tally.visits == reference_tally.visits
        # every extractor value and visit count is the same with the references swapped in
        measured = all_measures(document)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "_keyword_hits", reference_keyword_hits)
            patch.setattr(features, "_best_run", reference_best_run)
            assert all_measures(document) == measured


@pytest.mark.parametrize("document", FIXTURES, ids=range(len(FIXTURES)))
def test_cost_ordering_by_token_visits(document):
    for extractor in EXTRACTORS.values():
        visits = [
            measure(extractor, document, level)[1]
            for level in range(1, extractor.max_level + 1)
        ]
        for cheap, precise in zip(visits, visits[1:]):
            assert precise >= cheap
