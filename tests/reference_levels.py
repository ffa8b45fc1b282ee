"""Plain references for extractor levels, each written from its docstring.

A reference takes a document's tokens and the extractor's params and returns
``(value, visits)``. It has no view, no memo and no ``_gate``, and it charges
visits by the rule ``features.py`` states: one per token the level reads, and
a lower level or shared intermediate that a level reads charged again in
full. ``ElementExtractor.evaluate`` must match each reference exactly, value
and visits.
"""
import math

from doctnn import TokenKind
from doctnn.features import (
    ALIGN_TOL,
    BOTTOM_BAND_Y,
    DATE_PATTERN,
    ISOLATED_MAX_TOKENS,
    ISOLATED_MIN_GAP,
    LEFT_BAND_X,
    MIDDLE_BAND,
    QTY_PRICE_REL_TOL,
    RIGHT_REGION_X,
    SHORT_TOKEN_LEN,
)


def groups_by(tokens, edge, tol):
    """Tokens taken in order of ``edge``, a gap above ``tol`` starting a new group."""
    groups = []
    previous = None
    for t in sorted(tokens, key=edge):
        if groups and edge(t) - previous <= tol:
            groups[-1].append(t)
        else:
            groups.append([t])
        previous = edge(t)
    return groups


def rows_by_top_edge(tokens, tol):
    """Rows top to bottom: tokens taken by top edge, a gap above ``tol`` starting
    a new row; each row ordered left to right."""
    return [sorted(row, key=lambda t: t.x) for row in groups_by(tokens, lambda t: t.y, tol)]


def count_kind(tokens, kind):
    return sum(1 for t in tokens if t.kind is kind)


def mean_left_edge(tokens):
    return sum(t.x for t in tokens) / len(tokens)


def short_wordlike(token):
    """At most ``SHORT_TOKEN_LEN`` characters, alphabetic or alphanumeric."""
    return (len(token.text) <= SHORT_TOKEN_LEN
            and token.kind in (TokenKind.ALPHABETIC, TokenKind.ALPHANUMERIC))


def horizontal_alignment_l1(tokens, params):
    tol = params.get("align_tol", ALIGN_TOL)
    scores = []
    for row in rows_by_top_edge(tokens, tol):
        if len(row) < 3:
            continue
        gaps = [row[i + 1].x - row[i].x for i in range(len(row) - 1)]
        mean = sum(gaps) / len(gaps)
        if mean * mean == 0.0:
            scores.append(0.0)
        else:
            variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            scores.append(max(0.0, 1.0 - variance / (mean * mean)))
    value = sum(scores) / len(scores) if scores else 0.0
    return value, len(tokens)


# --- designation zone ---------------------------------------------------------

def designation_band(tokens, params):
    lo, hi = params.get("middle_band", MIDDLE_BAND)
    return [t for t in tokens if lo <= t.x < hi]


def designation_zone_l1(tokens, params):
    band = designation_band(tokens, params)
    if not band:
        return 0.0, len(tokens)
    alpha = count_kind(band, TokenKind.ALPHABETIC)
    alnum = count_kind(band, TokenKind.ALPHANUMERIC)
    return (alpha + 0.5 * alnum) / len(band), len(tokens)


def designation_zone_l2(tokens, params):
    value, visits = designation_zone_l1(tokens, params)
    if value == 0.0:
        return 0.0, visits
    tol = params.get("align_tol", ALIGN_TOL)
    band = designation_band(tokens, params)
    aligned = any(len(g) >= 3 for g in groups_by(band, lambda t: t.x, tol))
    return (value if aligned else 0.0), visits + len(tokens)


def designation_zone_l3(tokens, params):
    value, visits = designation_zone_l2(tokens, params)
    if value == 0.0:
        return 0.0, visits
    tol = params.get("align_tol", ALIGN_TOL)
    band = designation_band(tokens, params)
    leftmost, rightmost = min(t.x for t in band), max(t.x for t in band)
    columns = [c for c in groups_by(tokens, lambda t: t.x, tol) if len(c) >= 2]
    code_left = any(mean_left_edge(c) < leftmost - tol and all(map(short_wordlike, c))
                    for c in columns)
    numeric_right = any(mean_left_edge(c) > rightmost + tol
                        and all(t.kind is TokenKind.NUMERIC for t in c) for c in columns)
    return (value if code_left and numeric_right else 0.0), visits + 2 * len(tokens)


# --- code area ----------------------------------------------------------------------

def code_band(tokens, params):
    left_x = params.get("left_band_x", LEFT_BAND_X)
    return [t for t in tokens if t.x <= left_x]


def code_area_l1(tokens, params):
    band = code_band(tokens, params)
    if not band:
        return 0.0, len(tokens)
    return sum(map(short_wordlike, band)) / len(band), len(tokens)


def candidate_column(tokens, params):
    """The first of the largest left-edge groups of three or more of the band's
    short word-like tokens ([] for none), and the visits that reading costs."""
    short = [t for t in code_band(tokens, params) if short_wordlike(t)]
    groups = [g for g in groups_by(short, lambda t: t.x, params.get("align_tol", ALIGN_TOL))
              if len(g) >= 3]
    largest = max(map(len, groups), default=0)
    column = next((g for g in groups if len(g) == largest), [])
    return column, len(tokens) + len(short)


def code_area_l2(tokens, params):
    value, visits = code_area_l1(tokens, params)
    if value == 0.0:
        return 0.0, visits
    column, cost = candidate_column(tokens, params)
    return (value if column else 0.0), visits + cost


def code_area_l3(tokens, params):
    value, visits = code_area_l2(tokens, params)
    if value == 0.0:
        return 0.0, visits
    tol = params.get("align_tol", ALIGN_TOL)
    column, cost = candidate_column(tokens, params)
    edge = mean_left_edge(column)
    left_of_it = any(len(c) >= 3 and mean_left_edge(c) < edge - tol
                     for c in groups_by(tokens, lambda t: t.x, tol))
    return (0.0 if left_of_it else value), visits + cost + len(tokens)


# --- text block -------------------------------------------------------------------

def best_run(tokens, params):
    """The first of the longest-by-tokens runs of at least ``min_rows``
    consecutive rows whose tokens are more than half alphabetic."""
    runs = [[]]
    for row in rows_by_top_edge(tokens, params.get("align_tol", ALIGN_TOL)):
        if count_kind(row, TokenKind.ALPHABETIC) * 2 > len(row):
            runs[-1].append(row)
        elif runs[-1]:
            runs.append([])
    runs = [run for run in runs if len(run) >= params.get("min_rows", 3)]
    return max(runs, key=lambda run: sum(map(len, run)), default=[])


def text_block_l1(tokens, params):
    run = best_run(tokens, params)
    if not run:
        return 0.0, len(tokens)
    words = [t for row in run for t in row]
    return count_kind(words, TokenKind.ALPHABETIC) / len(words), len(tokens)


def text_block_l2(tokens, params):
    value, visits = text_block_l1(tokens, params)
    if value == 0.0:
        return 0.0, visits
    run = best_run(tokens, params)
    lefts = groups_by([min(t.x for t in row) for row in run], lambda x: x,
                      params.get("align_tol", ALIGN_TOL))
    aligned = max(map(len, lefts)) / len(run) >= 0.8
    return (value if aligned else 0.0), visits + len(tokens)


# --- amount area --------------------------------------------------------------------

def amount_numeric(tokens, params):
    right_x = params.get("right_region_x", RIGHT_REGION_X)
    return [t for t in tokens if t.x >= right_x and t.kind is TokenKind.NUMERIC]


def amount_area_l1(tokens, params):
    right_x = params.get("right_region_x", RIGHT_REGION_X)
    region = [t for t in tokens if t.x >= right_x]
    visits = len(tokens) + len(region)
    if not region:
        return 0.0, visits
    return count_kind(region, TokenKind.NUMERIC) / len(region), visits


def amount_area_l2(tokens, params):
    value, visits = amount_area_l1(tokens, params)
    if value == 0.0:
        return 0.0, visits
    tol = params.get("align_tol", ALIGN_TOL)
    numeric = amount_numeric(tokens, params)
    columns = groups_by(numeric, lambda t: t.x, tol)
    rows = groups_by(numeric, lambda t: t.y, tol)
    aligned = (any(len(c) >= 2 for c in columns)
               and len([r for r in rows if len(r) >= 2]) >= 2)
    return (value if aligned else 0.0), visits + len(tokens) + 2 * len(numeric)


def parsed(text):
    try:
        return float(text.replace(",", "."))
    except ValueError:
        return None


def products_hold(numeric, params):
    """Some triple of columns of two or more tokens, taken left to right by
    mean left edge, where quantity * price = amount holds on at least half of
    the rows that all three give a value for. A column's value on a row is
    that of its leftmost token on the row that parses as a number."""
    tol = params.get("align_tol", ALIGN_TOL)
    rel_tol = params.get("product_rel_tol", QTY_PRICE_REL_TOL)
    row_of = {}
    for i, row in enumerate(groups_by(numeric, lambda t: t.y, tol)):
        row_of.update((id(t), i) for t in row)
    columns = [c for c in groups_by(numeric, lambda t: t.x, tol) if len(c) >= 2]
    columns.sort(key=lambda c: sum(t.x for t in c) / len(c))
    values = []
    for column in columns:
        by_row = {}
        for t in column:
            if parsed(t.text) is not None and row_of[id(t)] not in by_row:
                by_row[row_of[id(t)]] = parsed(t.text)
        values.append(by_row)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            for k in range(j + 1, len(values)):
                shared = values[i].keys() & values[j].keys() & values[k].keys()
                holding = [r for r in shared
                           if math.isclose(values[i][r] * values[j][r], values[k][r],
                                           rel_tol=rel_tol, abs_tol=1e-9)]
                if shared and len(holding) * 2 >= len(shared):
                    return True
    return False


def amount_area_l3(tokens, params):
    value, visits = amount_area_l2(tokens, params)
    if value == 0.0:
        return 0.0, visits
    numeric = amount_numeric(tokens, params)
    holds = products_hold(numeric, params)
    return (value if holds else 0.0), visits + len(tokens) + 2 * len(numeric)


# --- vertical alignment -------------------------------------------------------------

def justified_share(tokens, edge, tol):
    """The largest ``edge`` group's share of the tokens, when it holds three or more."""
    largest = max((len(g) for g in groups_by(tokens, edge, tol)), default=0)
    return largest / len(tokens) if largest >= 3 else 0.0


def vertical_alignment_l1(tokens, params):
    return justified_share(tokens, lambda t: t.x, params.get("align_tol", ALIGN_TOL)), len(tokens)


def vertical_alignment_l2(tokens, params):
    left, visits = vertical_alignment_l1(tokens, params)
    right = justified_share(tokens, lambda t: t.x + t.width, params.get("align_tol", ALIGN_TOL))
    return max(left, right), visits + len(tokens)


# --- date indicator -----------------------------------------------------------------

def date_indicator_l1(tokens, params):
    dated = any(DATE_PATTERN.match(t.text) for t in tokens)
    return (1.0 if dated else 0.0), len(tokens)


def valid_day_and_month(text):
    """Whether ``text`` matches ``DATE_PATTERN`` with its first two digits a day
    from 1 to 31 and its next two a month from 1 to 12."""
    return (DATE_PATTERN.match(text) is not None
            and 1 <= int(text[:2]) <= 31 and 1 <= int(text[3:5]) <= 12)


def date_indicator_l2(tokens, params):
    value, visits = date_indicator_l1(tokens, params)
    if value == 0.0:
        return 0.0, visits
    valid = any(valid_day_and_month(t.text) for t in tokens)
    return (value if valid else 0.0), visits + len(tokens)


# --- isolated block -----------------------------------------------------------------

def isolated_block_l1(tokens, params):
    band_y = params.get("bottom_band_y", BOTTOM_BAND_Y)
    cluster = [t for t in tokens if t.y > band_y]
    others = [t for t in tokens if t.y <= band_y]
    if not 1 <= len(cluster) <= params.get("max_tokens", ISOLATED_MAX_TOKENS):
        return 0.0, len(tokens)
    highest_top = min(t.y for t in cluster)
    isolated = all(highest_top - (t.y + t.height) >= params.get("min_gap", ISOLATED_MIN_GAP)
                   for t in others)
    return (1.0 if isolated else 0.0), len(tokens)
