"""Element-layer activation extractors.

Every input neuron is backed by one extractor with up to three refinement
levels. Level 1 is the cheapest scan and the least precise; higher levels
re-run the cheaper level and tighten it with extra evidence. A gated level
is ``_gate(lower, holds)``: it keeps the level below's value where the
predicate ``holds`` confirms it and is 0.0 elsewhere, so a refined value can
only confirm or cancel what level 1 saw, never invent new evidence.
``_gate`` is the one place that rule is enforced.

Extractors read a document through a ``DocumentView``: one reading that
folds keyword text and groups rows and columns once per alignment
tolerance, shared by every extractor and every refinement pass of one
``recognize`` call. Folding is ``str.casefold`` for ASCII text, where NFKD
normalization changes nothing; only other text takes the Unicode path. No
folded text is kept from one document to the next, so a new document costs
what a repeated one does. The view also computes each level function's
value once (``DocumentView.value``): a later pass that asks for the same
(element, level), and a higher level that re-runs a lower one, get the
stored value.
The intermediates that two levels of one extractor share (amount's numeric
columns and rows, code's candidate column, the address keyword hits, the
text block's best run) go through the same memo, so a raised level starts
from what its lower level already built. Work is metered in token visits so
the cost ordering between levels stays measurable. A visit is the modelled
cost of a level, one per token its algorithm reads; a read or a value the
view serves from memory is charged as if the tokens were scanned again, so
visits do not count the work the view saves. Wall time is measured apart
from visits.
"""
from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from operator import attrgetter, sub
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, Sized, TypeVar

from .documents import DocumentInstance, Token, TokenKind, expect_number

ALIGN_TOL = 0.01            # page fraction, shared by row and column grouping
RIGHT_REGION_X = 0.5        # tokens with left edge here or beyond form the amount region
MIDDLE_BAND = (0.28, 0.52)  # designation candidates sit in this x band
LEFT_BAND_X = 0.25          # code candidates sit left of this
SHORT_TOKEN_LEN = 5
QTY_PRICE_REL_TOL = 1e-6
BOTTOM_BAND_Y = 0.8
ISOLATED_MAX_TOKENS = 4
ISOLATED_MIN_GAP = 0.05
TOTAL_KEYWORDS = ("vat", "total")
TOTAL_KEYWORDS_EXTENDED = ("tax", "vat", "amount", "net pay", "total")
ADDRESS_KEYWORDS = (
    "mr", "mrs", "name", "postal code", "town", "country", "street", "codex", "bp",
)
DATE_PATTERN = re.compile(r"^(\d{2})([/-])(\d{2})\2(\d{2}|\d{4})$")

LevelFn = Callable[["DocumentView", "Tally"], float]
T = TypeVar("T")
S = TypeVar("S", bound=Sized)
Groups = tuple[tuple[Token, ...], ...]


class Tally:
    """Token-visit meter: ``charge(tokens)`` adds one visit per token that a
    level reads, scanned now or served from the document view's memory, and
    returns ``tokens`` itself, so a scan can charge and iterate in one step."""

    __slots__ = ("visits",)

    def __init__(self) -> None:
        self.visits = 0

    def charge(self, tokens: S) -> S:
        self.visits += len(tokens)
        return tokens


# A kind's builder pops each param it reads from its own copy of the spec's
# params, so whatever is left over is a param the kind does not know.
def _param(params: dict, key: str, default: float, least: float | None = None,
           kind: type = float) -> float:
    return expect_number(params.pop(key, default), kind, ValueError, f"param '{key}'", least)


def _words(params: dict, key: str, default: tuple[str, ...]) -> tuple[str, ...]:
    value = params.pop(key, default)
    if (isinstance(value, str) or not isinstance(value, Sequence)
            or not all(isinstance(w, str) and w for w in value)):
        raise ValueError(f"param '{key}' must be a list of non-empty strings, got {value!r}")
    return tuple(value)


def _fold(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(c for c in decomposed if not unicodedata.combining(c)).casefold()


def _norm(text: str) -> str:
    # NFKD leaves every ASCII character as it is and none is combining, so
    # for ASCII text _fold is casefold alone, at a tenth of the cost
    return (text.casefold() if text.isascii() else _fold(text)).strip(".,:;!?()[]\"'")


def _numeric_value(text: str) -> float | None:
    try:
        return float(text.replace(",", "."))
    except ValueError:
        return None


# token kinds bound once: looking a member up on the enum class costs more
# than the rest of a per-token test
_ALPHABETIC = TokenKind.ALPHABETIC
_ALPHANUMERIC = TokenKind.ALPHANUMERIC
_NUMERIC = TokenKind.NUMERIC
_WORDLIKE = (_ALPHABETIC, _ALPHANUMERIC)

_TEXT = attrgetter("text")
_X = attrgetter("x")
_Y = attrgetter("y")
_RIGHT = attrgetter("right")


def _cluster(tokens: Sequence[Token], key: Callable[[Token], float],
             tol: float) -> list[list[Token]]:
    """Single-linkage 1-D grouping: a gap above tol starts a new group."""
    ordered = sorted(tokens, key=key)
    groups: list[list[Token]] = []
    group: list[Token] = []
    last = 0.0
    for tok, edge in zip(ordered, map(key, ordered)):
        if group and edge - last <= tol:
            group.append(tok)
        else:
            group = [tok]
            groups.append(group)
        last = edge
    return groups


def _rows(tokens: Sequence[Token], tol: float) -> list[list[Token]]:
    return [sorted(g, key=_X) for g in _cluster(tokens, _Y, tol)]


def _columns(tokens: Sequence[Token], tol: float) -> list[list[Token]]:
    return _cluster(tokens, _X, tol)


def _right_groups(tokens: Sequence[Token], tol: float) -> list[list[Token]]:
    return _cluster(tokens, _RIGHT, tol)


class DocumentView:
    """One reading of a document, shared by the extractors of one recognize call.

    Folded keyword text and the full-document rows, columns (by left edge)
    and right-edge groups are computed on first use, the groupings once per
    alignment tolerance, and each level function's value or shared
    intermediate once (``value``). The view holds no state beyond one call:
    the document and its tokens are never written to.
    """

    __slots__ = ("id", "tokens", "_norms", "_folded", "_groups", "_row_norms", "_values")

    def __init__(self, doc: DocumentInstance) -> None:
        self.id = doc.id
        self.tokens = doc.tokens
        self._norms: tuple[str, ...] | None = None
        self._folded: str | None = None
        self._groups: dict[tuple[Callable, float], Groups] = {}
        self._row_norms: dict[float, tuple[tuple[str, ...], ...]] = {}
        self._values: dict[Callable, tuple[object, int]] = {}

    def value(self, fn: Callable[[DocumentView, Tally], T], tally: Tally) -> T:
        """``fn``'s result on this view, computed on first use.

        ``fn`` is a level function, whose result is its raw value, or an
        intermediate that levels share, such as a grouping or a keyword map;
        every caller gets the same object and must not change it. Every call
        charges ``tally`` the visits of the first run, so a level's modelled
        cost does not depend on what was evaluated before it. The key is the
        function object: functions built for another config never share an
        entry.
        """
        memo = self._values.get(fn)
        if memo is None:
            before = tally.visits
            value = fn(self, tally)
            self._values[fn] = (value, tally.visits - before)
            return value
        tally.visits += memo[1]
        return memo[0]

    @property
    def norms(self) -> tuple[str, ...]:
        """Keyword-folded text of each token, in token order.

        A token's text is casefolded, after NFKD normalization without
        combining marks when it is not ASCII, and stripped of surrounding
        punctuation; each is folded once per view.
        """
        if self._norms is None:
            self._norms = tuple(map(_norm, map(_TEXT, self.tokens)))
        return self._norms

    @property
    def folded(self) -> str:
        """Every token's folded text, one per line: a string absent here is in no token."""
        if self._folded is None:
            self._folded = "\n".join(self.norms)
        return self._folded

    def _grouped(self, group: Callable[[Sequence[Token], float], list[list[Token]]],
                 tol: float) -> Groups:
        groups = self._groups.get((group, tol))
        if groups is None:
            groups = tuple(map(tuple, group(self.tokens, tol)))
            self._groups[group, tol] = groups
        return groups

    def rows(self, tol: float) -> Groups:
        """Rows top to bottom, each ordered left to right."""
        return self._grouped(_rows, tol)

    def row_norms(self, tol: float) -> tuple[tuple[str, ...], ...]:
        """Folded text of each token of ``rows(tol)``, in the same layout."""
        row_norms = self._row_norms.get(tol)
        if row_norms is None:
            norm_of = dict(zip(map(id, self.tokens), self.norms)).__getitem__
            row_norms = tuple(tuple(map(norm_of, map(id, row))) for row in self.rows(tol))
            self._row_norms[tol] = row_norms
        return row_norms

    def columns(self, tol: float) -> Groups:
        """Groups of tokens sharing a left edge, left to right."""
        return self._grouped(_columns, tol)

    def right_groups(self, tol: float) -> Groups:
        """Groups of tokens sharing a right edge, left to right."""
        return self._grouped(_right_groups, tol)


def _column_x(column: Sequence[Token]) -> float:
    return sum(t.x for t in column) / len(column)


def _is_short_wordlike(tok: Token) -> bool:
    return len(tok.text) <= SHORT_TOKEN_LEN and tok.kind in _WORDLIKE


def _gate(lower: LevelFn, holds: Callable[[DocumentView, Tally], bool]) -> LevelFn:
    """A refined level: ``lower``'s value where ``holds`` confirms it, else 0.0.

    ``holds`` runs only when the lower value is not 0.0, so a refinement
    never pays for evidence that the level below already ruled out.
    """
    def gated(view: DocumentView, tally: Tally) -> float:
        base = view.value(lower, tally)
        return base if base != 0.0 and holds(view, tally) else 0.0

    return gated


# --- amount area ------------------------------------------------------------

def _amount_region(view: DocumentView, tally: Tally, right_x: float) -> list[Token]:
    return [t for t in tally.charge(view.tokens) if t.x >= right_x]


def _amount_levels(params: dict) -> tuple[LevelFn, ...]:
    right_x = _param(params, "right_region_x", RIGHT_REGION_X)
    tol = _param(params, "align_tol", ALIGN_TOL, least=0.0)
    rel_tol = _param(params, "product_rel_tol", QTY_PRICE_REL_TOL)

    def numeric_grid(view: DocumentView,
                     tally: Tally) -> tuple[list[list[Token]], list[list[Token]]]:
        """Columns and rows of the amount region's numeric tokens."""
        numeric = [t for t in _amount_region(view, tally, right_x)
                   if t.kind is _NUMERIC]
        return _columns(tally.charge(numeric), tol), _rows(tally.charge(numeric), tol)

    def level1(view: DocumentView, tally: Tally) -> float:
        region = _amount_region(view, tally, right_x)
        if not region:
            return 0.0
        numeric = [t for t in tally.charge(region) if t.kind is _NUMERIC]
        return len(numeric) / len(region)

    def grid_aligned(view: DocumentView, tally: Tally) -> bool:
        columns, rows = view.value(numeric_grid, tally)
        return (any(len(g) >= 2 for g in columns)
                and sum(1 for r in rows if len(r) >= 2) >= 2)

    def products_hold(view: DocumentView, tally: Tally) -> bool:
        columns, rows = view.value(numeric_grid, tally)
        cols = [g for g in columns if len(g) >= 2]
        cols.sort(key=_column_x)
        row_of: dict[int, int] = {}
        for ri, row in enumerate(rows):
            for tok in row:
                row_of[id(tok)] = ri
        per_col: list[dict[int, float]] = []
        for col in cols:
            values: dict[int, float] = {}
            for tok in col:
                v = _numeric_value(tok.text)
                if v is not None:
                    values.setdefault(row_of[id(tok)], v)
            per_col.append(values)
        # quantity * price = amount across any x-ordered column triple
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                for k in range(j + 1, len(cols)):
                    shared = per_col[i].keys() & per_col[j].keys() & per_col[k].keys()
                    if not shared:
                        continue
                    ok = sum(
                        1 for r in shared
                        if math.isclose(per_col[i][r] * per_col[j][r], per_col[k][r],
                                        rel_tol=rel_tol, abs_tol=1e-9)
                    )
                    if ok * 2 >= len(shared):
                        return True
        return False

    level2 = _gate(level1, grid_aligned)
    return (level1, level2, _gate(level2, products_hold))


# --- designation zone -------------------------------------------------------

def _designation_levels(params: dict) -> tuple[LevelFn, ...]:
    band_edges = params.pop("middle_band", MIDDLE_BAND)
    if isinstance(band_edges, str) or not isinstance(band_edges, Sequence) or len(band_edges) != 2:
        raise ValueError(f"param 'middle_band' must be two numbers, got {band_edges!r}")
    lo, hi = (expect_number(edge, float, ValueError, "param 'middle_band'") for edge in band_edges)
    tol = _param(params, "align_tol", ALIGN_TOL, least=0.0)

    def band(view: DocumentView, tally: Tally) -> list[Token]:
        return [t for t in tally.charge(view.tokens) if lo <= t.x < hi]

    def level1(view: DocumentView, tally: Tally) -> float:
        tokens = band(view, tally)
        if not tokens:
            return 0.0
        kinds = [t.kind for t in tokens]
        alpha = kinds.count(_ALPHABETIC)
        alnum = kinds.count(_ALPHANUMERIC)
        return (alpha + 0.5 * alnum) / len(tokens)

    def band_aligned(view: DocumentView, tally: Tally) -> bool:
        return any(len(g) >= 3 for g in _columns(band(view, tally), tol))

    def flanked(view: DocumentView, tally: Tally) -> bool:
        """A short-code column left of the band and a numeric column right of it."""
        tokens = band(view, tally)
        band_lo = min(t.x for t in tokens)
        band_hi = max(t.x for t in tokens)
        code_left = False
        numeric_right = False
        tally.charge(view.tokens)
        for col in view.columns(tol):
            if len(col) < 2:
                continue
            cx = _column_x(col)
            if cx < band_lo - tol and all(_is_short_wordlike(t) for t in col):
                code_left = True
            if cx > band_hi + tol and all(t.kind is _NUMERIC for t in col):
                numeric_right = True
        return code_left and numeric_right

    level2 = _gate(level1, band_aligned)
    return (level1, level2, _gate(level2, flanked))


# --- code area ----------------------------------------------------------------

def _code_levels(params: dict) -> tuple[LevelFn, ...]:
    left_x = _param(params, "left_band_x", LEFT_BAND_X)
    tol = _param(params, "align_tol", ALIGN_TOL, least=0.0)

    def band(view: DocumentView, tally: Tally) -> list[Token]:
        return [t for t in tally.charge(view.tokens) if t.x <= left_x]

    def candidate_column(view: DocumentView, tally: Tally) -> list[Token]:
        short = [t for t in band(view, tally) if _is_short_wordlike(t)]
        groups = [g for g in _columns(tally.charge(short), tol) if len(g) >= 3]
        return max(groups, key=len) if groups else []

    def level1(view: DocumentView, tally: Tally) -> float:
        tokens = band(view, tally)
        if not tokens:
            return 0.0
        return len([t for t in tokens if _is_short_wordlike(t)]) / len(tokens)

    def has_candidate(view: DocumentView, tally: Tally) -> bool:
        return bool(view.value(candidate_column, tally))

    def candidate_leftmost(view: DocumentView, tally: Tally) -> bool:
        cx = _column_x(view.value(candidate_column, tally))
        tally.charge(view.tokens)
        return not any(len(col) >= 3 and _column_x(col) < cx - tol
                       for col in view.columns(tol))

    level2 = _gate(level1, has_candidate)
    return (level1, level2, _gate(level2, candidate_leftmost))


# --- alignment --------------------------------------------------------------

def _vertical_levels(params: dict) -> tuple[LevelFn, ...]:
    tol = _param(params, "align_tol", ALIGN_TOL, least=0.0)

    def justify_score(view: DocumentView, edge_groups: Callable[[float], Groups],
                      tally: Tally) -> float:
        tally.charge(view.tokens)
        if len(view.tokens) < 3:
            return 0.0
        best = max(map(len, edge_groups(tol)))
        return best / len(view.tokens) if best >= 3 else 0.0

    def level1(view: DocumentView, tally: Tally) -> float:
        return justify_score(view, view.columns, tally)

    def level2(view: DocumentView, tally: Tally) -> float:
        left = view.value(level1, tally)
        right = justify_score(view, view.right_groups, tally)
        return max(left, right)

    return (level1, level2)


def _horizontal_levels(params: dict) -> tuple[LevelFn, ...]:
    tol = _param(params, "align_tol", ALIGN_TOL, least=0.0)

    def level1(view: DocumentView, tally: Tally) -> float:
        scores = []
        tally.charge(view.tokens)
        for row in view.rows(tol):
            if len(row) < 3:
                continue
            xs = list(map(_X, row))
            gaps = list(map(sub, xs[1:], xs))  # each x minus the one before it
            mean = sum(gaps) / len(gaps)
            # the square, not only the mean, can be 0: it underflows for gaps near 1e-170
            if mean * mean <= 0.0:
                scores.append(0.0)
                continue
            var = sum([(g - mean) ** 2 for g in gaps]) / len(gaps)
            scores.append(max(0.0, 1.0 - var / (mean * mean)))
        return sum(scores) / len(scores) if scores else 0.0

    return (level1,)


# --- keyword groups -----------------------------------------------------------

def _keyword_hits(view: DocumentView, keywords: Sequence[str],
                  tally: Tally, tol: float) -> dict[str, list[Token]]:
    """Map each matched keyword to the tokens anchoring it (bigrams use the first)."""
    singles = [k for k in keywords if " " not in k]
    bigrams = [k for k in keywords if " " in k]
    hits: dict[str, list[Token]] = {}
    folded = view.folded
    tally.charge(view.tokens)
    for kw in singles:
        if kw in folded:
            anchors = [t for t, norm in zip(view.tokens, view.norms) if kw in norm]
            if anchors:
                hits[kw] = anchors
    if bigrams:
        tally.charge(view.tokens)
        # a bigram can only match where each of its words is in some token
        bigrams = [k for k in bigrams if all(word in folded for word in k.split(" "))]
    if bigrams:
        for row, norms in zip(view.rows(tol), view.row_norms(tol)):
            # an adjacent pair's joined text lies inside its row's joined text
            line = " ".join(norms)
            present = [kw for kw in bigrams if kw in line]
            if not present:
                continue
            for a, norm_a, norm_b in zip(row, norms, norms[1:]):
                joined = f"{norm_a} {norm_b}"
                for kw in present:
                    if kw in joined:
                        hits.setdefault(kw, []).append(a)
    return hits


def _keywords_total_levels(params: dict) -> tuple[LevelFn, ...]:
    tol = _param(params, "align_tol", ALIGN_TOL, least=0.0)
    base_set = _words(params, "keywords", TOTAL_KEYWORDS)
    extended = _words(params, "keywords_extended", TOTAL_KEYWORDS_EXTENDED)

    def level1(view: DocumentView, tally: Tally) -> float:
        hits = _keyword_hits(view, base_set, tally, tol)
        return 0.5 * len(hits)

    def level2(view: DocumentView, tally: Tally) -> float:
        view.value(level1, tally)
        hits = _keyword_hits(view, extended, tally, tol)
        return min(1.0, len(hits) / 2.0)

    return (level1, level2)


def _keywords_address_levels(params: dict) -> tuple[LevelFn, ...]:
    tol = _param(params, "align_tol", ALIGN_TOL, least=0.0)
    keywords = _words(params, "keywords", ADDRESS_KEYWORDS)
    singles = tuple(kw for kw in keywords if " " not in kw)

    def is_keyword_text(norm: str) -> bool:
        return any(kw in norm for kw in singles)

    def keyword_hits(view: DocumentView, tally: Tally) -> dict[str, list[Token]]:
        return _keyword_hits(view, keywords, tally, tol)

    def level1(view: DocumentView, tally: Tally) -> float:
        return min(1.0, len(view.value(keyword_hits, tally)) / 3.0)

    def level2(view: DocumentView, tally: Tally) -> float:
        view.value(level1, tally)
        hits = view.value(keyword_hits, tally)
        if not hits:
            return 0.0
        tally.charge(view.tokens)
        rows = view.rows(tol)
        row_norms = view.row_norms(tol)
        row_index = {id(t): i for i, row in enumerate(rows) for t in row}
        confirmed = 0
        for anchors in hits.values():
            found_value = False
            for anchor in anchors:
                # the anchor's row and the row below it, each token beside its folded text
                ri = row_index[id(anchor)]
                nearby = zip(sum(rows[ri:ri + 2], ()), sum(row_norms[ri:ri + 2], ()))
                if any(t is not anchor and not is_keyword_text(norm) for t, norm in nearby):
                    found_value = True
                    break
            confirmed += 1 if found_value else 0
        return min(1.0, confirmed / 3.0)

    return (level1, level2)


# --- text block ----------------------------------------------------------------

def _best_run(view: DocumentView, tally: Tally, tol: float,
              min_rows: int) -> list[tuple[Token, ...]]:
    """The run of at least ``min_rows`` consecutive mostly-alphabetic rows with most tokens."""
    tally.charge(view.tokens)
    best: list[tuple[Token, ...]] = []
    run: list[tuple[Token, ...]] = []
    best_size = run_size = 0
    for row in view.rows(tol):
        if [t.kind for t in row].count(_ALPHABETIC) * 2 > len(row):
            run.append(row)
            run_size += len(row)
        else:
            run = []
            run_size = 0
            continue
        if len(run) >= min_rows and run_size > best_size:
            best = list(run)
            best_size = run_size
    return best


def _text_block_levels(params: dict) -> tuple[LevelFn, ...]:
    tol = _param(params, "align_tol", ALIGN_TOL, least=0.0)
    min_rows = _param(params, "min_rows", 3, least=1, kind=int)

    def best_run(view: DocumentView, tally: Tally) -> list[tuple[Token, ...]]:
        return _best_run(view, tally, tol, min_rows)

    def level1(view: DocumentView, tally: Tally) -> float:
        run = view.value(best_run, tally)
        if not run:
            return 0.0
        kinds = [t.kind for row in run for t in row]
        return kinds.count(_ALPHABETIC) / len(kinds)

    def rows_left_aligned(view: DocumentView, tally: Tally) -> bool:
        """At least 80% of the run's rows start at one left edge."""
        run = view.value(best_run, tally)
        lefts = sorted(row[0].x for row in run)
        biggest = 0
        count = 1
        for prev, cur in zip(lefts, lefts[1:]):
            count = count + 1 if cur - prev <= tol else 1
            biggest = max(biggest, count)
        biggest = max(biggest, 1)
        return biggest / len(run) >= 0.8

    return (level1, _gate(level1, rows_left_aligned))


# --- date indicator -------------------------------------------------------------

def _date_levels(params: dict) -> tuple[LevelFn, ...]:
    def level1(view: DocumentView, tally: Tally) -> float:
        for tok in tally.charge(view.tokens):
            if DATE_PATTERN.match(tok.text):
                return 1.0
        return 0.0

    def valid_date(view: DocumentView, tally: Tally) -> bool:
        for tok in tally.charge(view.tokens):
            m = DATE_PATTERN.match(tok.text)
            if m and 1 <= int(m.group(1)) <= 31 and 1 <= int(m.group(3)) <= 12:
                return True
        return False

    return (level1, _gate(level1, valid_date))


# --- isolated bottom cluster -----------------------------------------------------

def _isolated_levels(params: dict) -> tuple[LevelFn, ...]:
    band_y = _param(params, "bottom_band_y", BOTTOM_BAND_Y)
    max_tokens = _param(params, "max_tokens", ISOLATED_MAX_TOKENS, least=1, kind=int)
    min_gap = _param(params, "min_gap", ISOLATED_MIN_GAP, least=0.0)

    def level1(view: DocumentView, tally: Tally) -> float:
        tokens = tally.charge(view.tokens)
        cluster = [t for t in tokens if t.y > band_y]
        if not cluster or len(cluster) > max_tokens:
            return 0.0
        above = [t for t in tokens if t.y <= band_y]
        if not above:
            return 1.0
        gap = min([t.y for t in cluster]) - max([t.bottom for t in above])
        return 1.0 if gap >= min_gap else 0.0

    return (level1,)


# --- registry ----------------------------------------------------------------------

EXTRACTOR_KINDS: dict[str, Callable[[dict], tuple[LevelFn, ...]]] = {
    "amount_area": _amount_levels,
    "designation_zone": _designation_levels,
    "code_area": _code_levels,
    "vertical_alignment": _vertical_levels,
    "horizontal_alignment": _horizontal_levels,
    "keywords_total": _keywords_total_levels,
    "keywords_address": _keywords_address_levels,
    "text_block": _text_block_levels,
    "date_indicator": _date_levels,
    "isolated_block": _isolated_levels,
}


@dataclass(frozen=True)
class ExtractorSpec:
    """Config-file declaration: which extractor kind backs an element, with params.

    ``params`` is a read-only copy, list values copied too, so a change to
    the caller's dict or lists cannot reach a config built from the spec.
    """

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        params = {key: list(value) if isinstance(value, list) else value
                  for key, value in self.params.items()}
        object.__setattr__(self, "params", MappingProxyType(params))


@dataclass(frozen=True)
class ElementExtractor:
    name: str
    levels: tuple[LevelFn, ...]  # ordered by cost, cheapest first

    def __post_init__(self) -> None:
        if not 1 <= len(self.levels) <= 3:
            raise ValueError(f"extractor '{self.name}': 1 to 3 levels required")

    @property
    def max_level(self) -> int:
        return len(self.levels)

    def evaluate(self, doc: DocumentInstance | DocumentView, level: int,
                 tally: Tally | None = None) -> float:
        """The level's value clamped to [0, 1]: NaN and -0.0 give 0.0, an int a float."""
        levels = self.levels
        if not 1 <= level <= len(levels):
            raise ValueError(f"extractor '{self.name}': level {level} not in 1..{len(levels)}")
        view = doc if type(doc) is DocumentView else DocumentView(doc)
        value = float(view.value(levels[level - 1], tally if tally is not None else Tally()))
        # every comparison with NaN is false, and -0.0 > 0.0 is false too
        if value > 0.0:
            return value if value < 1.0 else 1.0
        return 0.0


def build_extractor(name: str, spec: ExtractorSpec) -> ElementExtractor:
    unread = dict(spec.params)
    try:
        if spec.kind not in EXTRACTOR_KINDS:
            raise ValueError(f"unknown extractor kind '{spec.kind}'")
        levels = EXTRACTOR_KINDS[spec.kind](unread)
        if unread:
            raise ValueError(f"param '{next(iter(unread))}' is unknown to kind '{spec.kind}'")
    except ValueError as exc:
        raise ValueError(f"element '{name}': {exc}") from exc
    return ElementExtractor(name=name, levels=levels)


def build_extractors(specs: Mapping[str, ExtractorSpec]) -> dict[str, ElementExtractor]:
    return {name: build_extractor(name, spec) for name, spec in specs.items()}


def extract_all(
    extractors: Mapping[str, ElementExtractor],
    doc: DocumentInstance | DocumentView,
    level_overrides: Mapping[str, int] | None = None,
) -> dict[str, float]:
    """Each element's activation in [0, 1], from one document view.

    Every element is evaluated at level 1 unless ``level_overrides`` names
    another level for it.
    """
    overrides = level_overrides or {}
    if overrides and not overrides.keys() <= extractors.keys():
        unknown = set(overrides) - set(extractors)
        raise ValueError(f"unknown element name(s) in overrides: {sorted(unknown)}")
    view = doc if type(doc) is DocumentView else DocumentView(doc)
    tally = Tally()  # nothing reads the total, so one meter serves every element
    return {
        name: extractor.evaluate(view, overrides.get(name, 1), tally)
        for name, extractor in extractors.items()
    }
