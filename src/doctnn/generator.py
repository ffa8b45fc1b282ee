"""Deterministic synthetic corpus of invoice / form / letter token layouts.

Layouts are built from fixed column positions plus seeded randomness for
row counts, vocabulary, and arithmetic, so the same seed always yields the
same corpus byte for byte. Noise knobs jitter token positions, omit whole
structures, and misspell keyword tokens. A separate builder produces
deliberately ambiguous documents whose cheap level-1 evidence points two ways
until the expensive gates settle it.

Builders draw on a page they are given: ``generate`` and
``generate_ambiguous`` create each document's ``_Page``, and a builder places
its tokens there and returns nothing. Each page part that always means a label
(address block, signature, billed table, paragraphs) records it on the page
where it places its tokens, so the labels follow what was actually placed;
``_Page.document`` is the one place a labelled document is made.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .documents import DocumentInstance, GroundTruth, Token, expect_number

CHAR_WIDTH = 0.011
TOKEN_HEIGHT = 0.016

PARAGRAPH_WORDS = (
    "please", "enclosed", "regarding", "delivery", "payment", "service",
    "general", "remain", "further", "notice", "within", "confirm", "receipt",
    "kindly", "office", "agreed", "schedule", "request", "details", "records",
    "update", "review", "client", "during", "period", "support", "required",
    "settle", "against", "overdue", "account", "balance", "manager",
)
DESIGNATIONS = (
    "Widget", "Bracket", "Bolt", "Gasket", "Flange", "Washer", "Valve",
    "Sensor", "Clamp", "Roller",
)
SURNAMES = ("Martin", "Dupont", "Bernard", "Petit", "Durand", "Moreau", "Robert")
TOWNS = ("Marseille", "Bordeaux", "Toulouse", "Grenoble", "Perpignan", "Besancon")
STREETS = ("Chestnut", "Magnolia", "Sycamore", "Lavender", "Meridian", "Bellevue")
COMPANIES = ("Acme", "Norda", "Vertex", "Orion", "Helios")
COMPANY_SUFFIXES = ("Supplies", "Trading", "Industries", "Logistics")
FORM_TITLES = ("Application", "Registration", "Request", "Enrollment")
GENERIC_FIELDS = (
    "Account:", "Reference:", "Department:", "Status:", "Category:",
    "Branch:", "Section:", "Division:",
)

# structures a noise pass may omit, per class; dropping an invoice address
# models a torn or cropped top, taking the date line and header with it
DROPPABLE = {
    "invoice": ("signature", "address"),
    "letter": ("signature", "address"),
    "form": ("address",),
}


@dataclass(frozen=True)
class Noise:
    jitter: float = 0.0       # std-dev of token position jitter, page fraction
    drop_rate: float = 0.0    # probability each droppable structure is omitted
    distort_rate: float = 0.0 # probability a keyword token is misspelled

    def __post_init__(self) -> None:
        for name in ("drop_rate", "distort_rate"):
            rate = expect_number(getattr(self, name), float, ValueError, name, 0)
            if rate > 1:
                raise ValueError(f"{name} must be <= 1, got {rate!r}")
        expect_number(self.jitter, float, ValueError, "jitter", 0)


@dataclass(frozen=True)
class GenSpec:
    seed: int
    counts: Mapping[str, int] = field(default_factory=dict)
    noise: Noise = field(default_factory=Noise)

    def __post_init__(self) -> None:
        # numpy would read True as 1 and "3" as a seed, and refuse -1 only in generate
        expect_number(self.seed, int, ValueError, "seed", 0)
        # a read-only copy: a later change to the caller's dict cannot skip these checks
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        for name, count in self.counts.items():
            if name not in CLASSES:
                raise ValueError(f"count for unknown class {name!r}; "
                                 f"classes are {', '.join(CLASSES)}")
            expect_number(count, int, ValueError, f"count for {name!r}", 0)


# the desk-scale experiment: the corpus sizes and noise of the reported run,
# and its seeds, pinned so that every figure it gives can be reproduced
DESK_TRAIN_COUNTS = MappingProxyType({"invoice": 40, "form": 36, "letter": 26})
DESK_TEST_COUNTS = MappingProxyType({"invoice": 120, "form": 90, "letter": 40})
DESK_NOISE = Noise(jitter=0.005, drop_rate=0.05, distort_rate=0.05)
DESK_TRAIN_SEED = 51
DESK_TEST_SEED = DESK_TRAIN_SEED + 1
DESK_MODEL_SEED = 1


def generate_desk(
    train_seed: int = DESK_TRAIN_SEED,
) -> tuple[list[DocumentInstance], list[DocumentInstance]]:
    """The desk train and test corpora; the test corpus's seed is ``train_seed + 1``."""
    return (generate(GenSpec(seed=train_seed, counts=DESK_TRAIN_COUNTS, noise=DESK_NOISE)),
            generate(GenSpec(seed=train_seed + 1, counts=DESK_TEST_COUNTS, noise=DESK_NOISE)))


class _Page:
    """One document being built: its tokens and the labels of what was placed.

    Jitter and keyword distortion apply at placement, drawing on ``rng``.
    """

    def __init__(self, rng: np.random.Generator, noise: Noise) -> None:
        self.rng = rng
        self.noise = noise
        self.tokens: list[Token] = []
        self.structures: set[str] = set()
        self.substructures: set[str] = set()

    def put(self, text: str, x: float, y: float, keyword: bool = False) -> None:
        noise = self.noise
        if keyword and noise.distort_rate > 0.0:
            if self.rng.random() < noise.distort_rate:
                text = _misspell(self.rng, text)
        if noise.jitter > 0.0:
            # one draw of two values is the stream two scalar draws would take
            dx, dy = self.rng.normal(0.0, noise.jitter, 2).tolist()
            x += dx
            y += dy
        width = CHAR_WIDTH * len(text) + 0.004
        x = min(max(x, 0.0), 1.0 - width - 1e-6)
        y = min(max(y, 0.0), 1.0 - TOKEN_HEIGHT - 1e-6)
        self.tokens.append(Token(text, x, y, width, TOKEN_HEIGHT))

    def put_row(self, entries: Iterable[tuple[str, float]], y: float,
                keywords: frozenset[str] = frozenset()) -> None:
        for text, x in entries:
            self.put(text, x, y, keyword=text in keywords)

    def label(self, structures: Iterable[str], substructures: Iterable[str]) -> None:
        self.structures.update(structures)
        self.substructures.update(substructures)

    def document(self, doc_id: str, doc_class: str) -> DocumentInstance:
        return DocumentInstance(
            id=doc_id,
            tokens=tuple(self.tokens),
            labels=GroundTruth(
                document_class=doc_class,
                structures=frozenset(self.structures),
                substructures=frozenset(self.substructures),
            ),
        )


def _misspell(rng: np.random.Generator, text: str) -> str:
    idx = int(rng.integers(0, len(text)))
    replacement = "x" if text[idx] not in "xX" else "z"
    return text[:idx] + replacement + text[idx + 1 :]


def _pick(rng: np.random.Generator, options) -> str:
    return options[int(rng.integers(0, len(options)))]


def _date_text(rng: np.random.Generator) -> str:
    day = int(rng.integers(1, 29))
    month = int(rng.integers(1, 13))
    year = int(rng.integers(2018, 2026))
    sep = "/" if rng.random() < 0.5 else "-"
    return f"{day:02d}{sep}{month:02d}{sep}{year}"


def _zip_code(rng: np.random.Generator) -> str:
    return f"{int(rng.integers(10000, 99999))}"


def _letter(rng: np.random.Generator) -> str:
    return chr(ord("A") + int(rng.integers(0, 26)))


def _ref_code(rng: np.random.Generator) -> str:
    return f"{_letter(rng)}{_letter(rng)}-{int(rng.integers(100, 999))}"


def _item_code(rng: np.random.Generator) -> str:
    return f"{_letter(rng)}{_letter(rng)}{int(rng.integers(10, 99))}"


def _put_company_header(page: _Page) -> None:
    name = _pick(page.rng, COMPANIES)
    suffix = _pick(page.rng, COMPANY_SUFFIXES)
    page.put(name, 0.32, 0.03)
    page.put(suffix, 0.32 + CHAR_WIDTH * len(name) + 0.02, 0.03)


def _put_address_block(page: _Page) -> None:
    rng = page.rng
    # positions stay sums from the block's corner: 0.10 + 0.14 is not the float 0.24
    x = y = 0.10
    kw = frozenset({"Mr.", "Mrs.", "Street,", "postal"})
    title = "Mr." if rng.random() < 0.5 else "Mrs."
    page.put_row([(title, x), (_pick(rng, SURNAMES), x + 0.06)], y, kw)
    street = _pick(rng, STREETS)
    page.put_row(
        [(str(int(rng.integers(1, 120))), x), (street, x + 0.06), ("Street,", x + 0.13)],
        y + 0.022, kw,
    )
    page.put_row(
        [("postal", x), ("Code", x + 0.07), (_zip_code(rng), x + 0.14)],
        y + 0.044, kw,
    )
    page.put_row([(_pick(rng, TOWNS), x)], y + 0.066, kw)
    page.label({"address"}, {"address_block"})


def _put_signature(page: _Page) -> None:
    initials = f"{_letter(page.rng)}.{_letter(page.rng)}."
    page.put("Signed", 0.68, 0.91)
    page.put(initials, 0.78, 0.91)
    page.label({"signature"}, {"signature_block"})


def _put_decoy_numbers(page: _Page, y: float) -> None:
    """Aligned numeric columns whose row products are deliberately wrong."""
    rng = page.rng
    for row in range(3):
        q = int(rng.integers(2, 9))
        p = Decimal(int(rng.integers(2, 40))) + Decimal(int(rng.integers(0, 100))) / 100
        wrong = q * p + Decimal("0.37")
        page.put_row(
            [(str(q), 0.56), (str(p), 0.68), (str(wrong), 0.82)], y + row * 0.03
        )
    page.put("Total", 0.56, y + 0.09)
    page.put(str(Decimal(int(rng.integers(100, 900))) / 100), 0.82, y + 0.09)
    # a few word tokens inside the right-side region keep the evidence graded
    for i, word in enumerate(("filed", "under", "review")):
        page.put(word, 0.56 + 0.09 * i, y + 0.12)


def _put_billed_table(page: _Page, header_y: float, y0: float) -> tuple[Decimal, float]:
    """Ref / item / qty / price / amount rows whose row products hold exactly.

    Both positions are given, since ``header_y + 0.03`` may differ from the
    literal ``y0`` in its last bit. Returns the sum of the amounts and the y
    just below the last row.
    """
    rng = page.rng
    rows = int(rng.integers(4, 9))
    page.put_row(
        [("Ref", 0.06), ("Item", 0.30), ("Qty", 0.56), ("Price", 0.68), ("Amount", 0.82)],
        header_y,
    )
    for row in range(rows):
        page.put(_item_code(rng), 0.06, y0 + row * 0.03)
        page.put(_pick(rng, DESIGNATIONS), 0.30, y0 + row * 0.03)
    total = Decimal(0)
    for row in range(rows):
        qty = int(rng.integers(1, 10))
        price = Decimal(int(rng.integers(1, 40))) + Decimal(int(rng.integers(0, 100))) / 100
        amount = qty * price
        total += amount
        page.put_row(
            [(str(qty), 0.56), (str(price), 0.68), (str(amount), 0.82)],
            y0 + row * 0.03,
        )
    page.label({"table"}, {"tabular_grid", "numeric_column_group"})
    return total, y0 + rows * 0.03


def _put_paragraphs(page: _Page, y: float, rows: int, right_edge: float = 0.70,
                    pool: tuple[str, ...] = PARAGRAPH_WORDS, spacing: float = 0.028) -> None:
    for row in range(rows):
        x = 0.08
        while x < right_edge:
            word = _pick(page.rng, pool)
            page.put(word, x, y + row * spacing)
            x += CHAR_WIDTH * len(word) + 0.016
    page.label((), {"paragraph"})


def _build_invoice(page: _Page, dropped: frozenset[str], seq: int) -> None:
    rng = page.rng
    page.label({"invoice_body", "total"}, {"totals_line"})
    if "address" not in dropped:
        _put_company_header(page)
        page.put("Date:", 0.60, 0.10)
        page.put(_date_text(rng), 0.68, 0.10)
        _put_address_block(page)
        page.label({"header"}, {"date_line"})
    total, y = _put_billed_table(page, 0.31, 0.34)
    kw = frozenset({"VAT", "Total"})
    vat = (total * Decimal("0.2")).quantize(Decimal("0.01"))
    y += 0.03
    page.put_row([("VAT", 0.62), (str(vat), 0.82)], y, kw)
    page.put_row([("Total", 0.62), (str(total + vat), 0.82)], y + 0.03, kw)
    # payment-terms fine print; a real paragraph, but not a letter body
    _put_paragraphs(page, 0.70, 3, right_edge=0.38, spacing=0.03)
    if "signature" not in dropped:
        _put_signature(page)


def _build_letter(page: _Page, dropped: frozenset[str], seq: int) -> None:
    rng = page.rng
    _put_company_header(page)
    page.put(_pick(rng, TOWNS), 0.56, 0.10)
    page.put(_date_text(rng), 0.68, 0.10)
    page.label({"header", "letter_body"}, {"date_line"})
    if "address" not in dropped:
        _put_address_block(page)
    # style cycles with the sequence number so every corpus carries the same
    # share of payment reminders regardless of its size
    roll = (seq * 7) % 20
    if roll < 7:
        # payment reminder quoting the billed lines verbatim: codes,
        # designations, and genuine amounts, but no totals line
        _put_paragraphs(page, 0.32, 3, right_edge=0.44)
        if roll < 2:
            # dunning style, shouting money words; these read like invoices
            # to anything that only sees page-level evidence
            page.put_row(
                [("total", 0.30), ("vat", 0.38), ("amount", 0.44), ("overdue", 0.52)],
                0.41,
            )
        _put_billed_table(page, 0.44, 0.47)
    else:
        # plain correspondence; money words in prose are common enough
        money_pool = PARAGRAPH_WORDS + ("total", "vat") * 5 + ("amount",) * 3
        pool = money_pool if rng.random() < 0.45 else PARAGRAPH_WORDS
        _put_paragraphs(page, 0.32, int(rng.integers(5, 8)), pool=pool)
    page.put("Sincerely", 0.08, 0.74)
    if "signature" not in dropped:
        _put_signature(page)


def _build_form(page: _Page, dropped: frozenset[str], seq: int) -> None:
    rng = page.rng
    page.put(_pick(rng, FORM_TITLES), 0.32, 0.03)
    page.put("Form", 0.32 + 0.14, 0.03)
    page.put("Date:", 0.10, 0.11)
    page.put(_date_text(rng), 0.24, 0.11)
    page.label({"header", "table"}, {"date_line", "tabular_grid"})
    grid: list[list[tuple[str, float]]] = []
    kw = frozenset({"Name:", "Street:", "postal", "Town:"})
    if "address" not in dropped:
        street = _pick(rng, STREETS)
        grid += [
            [("Name:", 0.10), (_pick(rng, SURNAMES), 0.40)],
            [("Street:", 0.10), (str(int(rng.integers(1, 120))), 0.40), (street, 0.47)],
            [("postal", 0.10), ("Code:", 0.17), (_zip_code(rng), 0.40)],
            [("Town:", 0.10), (_pick(rng, TOWNS), 0.40)],
        ]
        page.label({"address"}, {"address_block"})
    for _ in range(int(rng.integers(5, 8))):
        label = _pick(rng, GENERIC_FIELDS)
        if rng.random() < 0.5:
            value = _ref_code(rng)
        else:
            value = _pick(rng, PARAGRAPH_WORDS).capitalize()
        grid.append([(label, 0.10), (value, 0.40)])
    for row, entries in enumerate(grid):
        # numbered field ids give the grid its code-like leftmost column
        page.put_row([(f"F{row + 1:02d}", 0.04)] + entries, 0.22 + row * 0.028, kw)


# each builder draws one document of its class on the page it is given
_BUILDERS = {
    "invoice": _build_invoice,
    "form": _build_form,
    "letter": _build_letter,
}
CLASSES = tuple(_BUILDERS)


def _drops(rng: np.random.Generator, doc_class: str, rate: float) -> frozenset[str]:
    # one deterministic draw per droppable slot, whatever the rate
    return frozenset(
        name for name in DROPPABLE[doc_class] if rng.random() < rate
    )


def generate(spec: GenSpec) -> list[DocumentInstance]:
    """Build the labeled corpus described by the spec, deterministically per seed."""
    docs: list[DocumentInstance] = []
    index = 0
    for doc_class in CLASSES:
        for seq in range(spec.counts.get(doc_class, 0)):
            rng = np.random.default_rng([spec.seed, index])
            dropped = _drops(rng, doc_class, spec.noise.drop_rate)
            page = _Page(rng, spec.noise)
            _BUILDERS[doc_class](page, dropped, seq)
            docs.append(page.document(f"{doc_class}-{index:04d}", doc_class))
            index += 1
    return docs


def generate_ambiguous(seed: int, count: int) -> list[DocumentInstance]:
    """Letters and forms carrying decoy amount columns.

    The decoy numbers are aligned well enough to survive the cheap checks but
    fail the quantity * price = amount gate, so a single extraction pass sees
    two plausible classes while a third pass does not. ``seed`` and ``count``
    must be ints >= 0, as in ``GenSpec``.
    """
    expect_number(seed, int, ValueError, "seed", 0)
    expect_number(count, int, ValueError, "count", 0)
    docs: list[DocumentInstance] = []
    for i in range(count):
        rng = np.random.default_rng([seed, 900000 + i])
        page = _Page(rng, Noise())
        if i % 2 == 0:
            doc_class = "letter"
            _put_company_header(page)
            _put_address_block(page)
            page.put_row([(_pick(rng, TOWNS), 0.10), (_date_text(rng), 0.22)], 0.22)
            page.label({"header", "letter_body"}, {"date_line"})
            _put_decoy_numbers(page, 0.30)
            _put_paragraphs(page, 0.55, 3, right_edge=0.44)
        else:
            doc_class = "form"
            _build_form(page, frozenset(), i)
            _put_decoy_numbers(page, 0.62)
        docs.append(page.document(f"ambig-{doc_class}-{i:04d}", doc_class))
    return docs
