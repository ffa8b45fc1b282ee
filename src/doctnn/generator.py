"""Deterministic synthetic corpus of invoice / form / letter token layouts.

Layouts are built from fixed column positions plus seeded randomness for
row counts, vocabulary, and arithmetic, so the same seed always yields the
same corpus byte for byte. Noise knobs jitter token positions, omit whole
structures (labels follow what was actually placed), and misspell keyword
tokens. A separate builder produces deliberately ambiguous documents whose
cheap level-1 evidence points two ways until the expensive gates settle it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterable, Mapping

import numpy as np

from .documents import DocumentInstance, GroundTruth, Token, expect_type, finite_number

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
        # a bool is not a number here, and a string is refused, not compared
        for name in ("drop_rate", "distort_rate"):
            v = getattr(self, name)
            if not finite_number(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {v!r}")
        if not finite_number(self.jitter) or self.jitter < 0.0:
            raise ValueError(f"jitter must be a finite number >= 0, got {self.jitter!r}")


@dataclass(frozen=True)
class GenSpec:
    seed: int
    counts: Mapping[str, int] = field(
        default_factory=lambda: {"invoice": 0, "form": 0, "letter": 0}
    )
    noise: Noise = field(default_factory=Noise)

    def __post_init__(self) -> None:
        # numpy would read True as 1 and "3" as a seed, and refuse -1 only in generate
        _non_negative_int(self.seed, "seed")
        for name, count in self.counts.items():
            if name not in _BUILDERS:
                raise ValueError(f"count for unknown class {name!r}; "
                                 f"classes are {', '.join(_BUILDERS)}")
            _non_negative_int(count, f"count for {name!r}")


def _non_negative_int(value: object, what: str) -> int:
    """``value`` if it is an int >= 0 (not a bool), else a ValueError naming ``what``."""
    if expect_type(value, int, ValueError, what) < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


class _Page:
    """Accumulates tokens; applies jitter and keyword distortion at placement."""

    def __init__(self, rng: np.random.Generator, noise: Noise) -> None:
        self.rng = rng
        self.noise = noise
        self.tokens: list[Token] = []

    def put(self, text: str, x: float, y: float, keyword: bool = False) -> None:
        if keyword and self.noise.distort_rate > 0.0:
            if self.rng.random() < self.noise.distort_rate:
                text = _misspell(self.rng, text)
        if self.noise.jitter > 0.0:
            x += float(self.rng.normal(0.0, self.noise.jitter))
            y += float(self.rng.normal(0.0, self.noise.jitter))
        width = CHAR_WIDTH * len(text) + 0.004
        x = min(max(x, 0.0), 1.0 - width - 1e-6)
        y = min(max(y, 0.0), 1.0 - TOKEN_HEIGHT - 1e-6)
        self.tokens.append(Token(text=text, x=x, y=y, width=width, height=TOKEN_HEIGHT))

    def put_row(self, entries: Iterable[tuple[str, float]], y: float,
                keywords: frozenset[str] = frozenset()) -> None:
        for text, x in entries:
            self.put(text, x, y, keyword=text in keywords)


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


def _ref_code(rng: np.random.Generator) -> str:
    letters = "".join(chr(ord("A") + int(rng.integers(0, 26))) for _ in range(2))
    return f"{letters}-{int(rng.integers(100, 999))}"


def _item_code(rng: np.random.Generator) -> str:
    letters = "".join(chr(ord("A") + int(rng.integers(0, 26))) for _ in range(2))
    return f"{letters}{int(rng.integers(10, 99))}"


def _put_company_header(page: _Page, rng: np.random.Generator) -> None:
    name = _pick(rng, COMPANIES)
    suffix = _pick(rng, COMPANY_SUFFIXES)
    page.put(name, 0.32, 0.03)
    page.put(suffix, 0.32 + CHAR_WIDTH * len(name) + 0.02, 0.03)


def _put_address_block(page: _Page, rng: np.random.Generator, x: float = 0.10,
                       y: float = 0.10) -> None:
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


def _put_signature(page: _Page, rng: np.random.Generator) -> None:
    initials = f"{chr(ord('A') + int(rng.integers(0, 26)))}.{chr(ord('A') + int(rng.integers(0, 26)))}."
    page.put("Signed", 0.68, 0.91)
    page.put(initials, 0.78, 0.91)


def _put_decoy_numbers(page: _Page, rng: np.random.Generator, y: float) -> None:
    """Aligned numeric columns whose row products are deliberately wrong."""
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


def _put_table_header(page: _Page, y: float) -> None:
    page.put_row(
        [("Ref", 0.06), ("Item", 0.30), ("Qty", 0.56), ("Price", 0.68), ("Amount", 0.82)],
        y,
    )


def _put_amount_rows(page: _Page, rng: np.random.Generator, y0: float,
                     rows: int) -> Decimal:
    """Quantity / price / amount columns whose row products hold exactly."""
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
    return total


def _build_invoice(rng: np.random.Generator, noise: Noise, dropped: frozenset[str],
                   seq: int = 0) -> tuple[list[Token], set[str], set[str]]:
    page = _Page(rng, noise)
    structures = {"invoice_body", "table", "total"}
    substructures = {"tabular_grid", "numeric_column_group", "paragraph", "totals_line"}
    if "address" not in dropped:
        _put_company_header(page, rng)
        page.put("Date:", 0.60, 0.10)
        page.put(_date_text(rng), 0.68, 0.10)
        _put_address_block(page, rng)
        structures.update({"header", "address"})
        substructures.update({"address_block", "date_line"})
    rows = int(rng.integers(4, 9))
    _put_table_header(page, 0.31)
    for row in range(rows):
        page.put(_item_code(rng), 0.06, 0.34 + row * 0.03)
        page.put(_pick(rng, DESIGNATIONS), 0.30, 0.34 + row * 0.03)
    total = _put_amount_rows(page, rng, 0.34, rows)
    kw = frozenset({"VAT", "Total"})
    vat = (total * Decimal("0.2")).quantize(Decimal("0.01"))
    y = 0.34 + rows * 0.03 + 0.03
    page.put_row([("VAT", 0.62), (str(vat), 0.82)], y, kw)
    page.put_row([("Total", 0.62), (str(total + vat), 0.82)], y + 0.03, kw)
    # payment-terms fine print; a real paragraph, but not a letter body
    for row in range(3):
        x = 0.08
        while x < 0.38:
            word = _pick(rng, PARAGRAPH_WORDS)
            page.put(word, x, 0.70 + row * 0.03)
            x += CHAR_WIDTH * len(word) + 0.016
    if "signature" not in dropped:
        _put_signature(page, rng)
        structures.add("signature")
        substructures.add("signature_block")
    return page.tokens, structures, substructures


def _put_paragraphs(page: _Page, rng: np.random.Generator, y: float,
                    rows: int, right_edge: float = 0.70,
                    pool: tuple[str, ...] = PARAGRAPH_WORDS) -> float:
    for row in range(rows):
        x = 0.08
        while x < right_edge:
            word = _pick(rng, pool)
            page.put(word, x, y + row * 0.028)
            x += CHAR_WIDTH * len(word) + 0.016
    return y + rows * 0.028


def _build_letter(rng: np.random.Generator, noise: Noise, dropped: frozenset[str],
                  seq: int = 0) -> tuple[list[Token], set[str], set[str]]:
    page = _Page(rng, noise)
    _put_company_header(page, rng)
    page.put(_pick(rng, TOWNS), 0.56, 0.10)
    page.put(_date_text(rng), 0.68, 0.10)
    structures = {"header", "letter_body"}
    substructures = {"date_line", "paragraph"}
    if "address" not in dropped:
        _put_address_block(page, rng)
        structures.add("address")
        substructures.add("address_block")
    # style cycles with the sequence number so every corpus carries the same
    # share of payment reminders regardless of its size
    roll = (seq * 7) % 20
    if roll < 7:
        # payment reminder quoting the billed lines verbatim: codes,
        # designations, and genuine amounts, but no totals line
        _put_paragraphs(page, rng, 0.32, 3, right_edge=0.44)
        if roll < 2:
            # dunning style, shouting money words; these read like invoices
            # to anything that only sees page-level evidence
            page.put_row(
                [("total", 0.30), ("vat", 0.38), ("amount", 0.44), ("overdue", 0.52)],
                0.41,
            )
        rows = int(rng.integers(4, 9))
        _put_table_header(page, 0.44)
        for row in range(rows):
            page.put(_item_code(rng), 0.06, 0.47 + row * 0.03)
            page.put(_pick(rng, DESIGNATIONS), 0.30, 0.47 + row * 0.03)
        _put_amount_rows(page, rng, 0.47, rows)
        structures.add("table")
        substructures.update({"numeric_column_group", "tabular_grid"})
    else:
        # plain correspondence; money words in prose are common enough
        money_pool = PARAGRAPH_WORDS + ("total", "vat") * 5 + ("amount",) * 3
        pool = money_pool if rng.random() < 0.45 else PARAGRAPH_WORDS
        _put_paragraphs(page, rng, 0.32, int(rng.integers(5, 8)), pool=pool)
    page.put("Sincerely", 0.08, 0.74)
    if "signature" not in dropped:
        _put_signature(page, rng)
        structures.add("signature")
        substructures.add("signature_block")
    return page.tokens, structures, substructures


def _build_form(rng: np.random.Generator, noise: Noise, dropped: frozenset[str],
                seq: int = 0) -> tuple[list[Token], set[str], set[str]]:
    page = _Page(rng, noise)
    page.put(_pick(rng, FORM_TITLES), 0.32, 0.03)
    page.put("Form", 0.32 + 0.14, 0.03)
    page.put("Date:", 0.10, 0.11)
    page.put(_date_text(rng), 0.24, 0.11)
    structures = {"header", "table"}
    substructures = {"date_line", "tabular_grid"}
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
        structures.add("address")
        substructures.add("address_block")
    fields = list(GENERIC_FIELDS)
    extra = int(rng.integers(5, 8))
    for i in range(extra):
        label = fields[int(rng.integers(0, len(fields)))]
        if rng.random() < 0.5:
            value = _ref_code(rng)
        else:
            value = _pick(rng, PARAGRAPH_WORDS).capitalize()
        grid.append([(label, 0.10), (value, 0.40)])
    for row, entries in enumerate(grid):
        # numbered field ids give the grid its code-like leftmost column
        page.put_row([(f"F{row + 1:02d}", 0.04)] + entries, 0.22 + row * 0.028, kw)
    return page.tokens, structures, substructures


_BUILDERS = {
    "invoice": _build_invoice,
    "form": _build_form,
    "letter": _build_letter,
}


def _drops(rng: np.random.Generator, doc_class: str, rate: float) -> frozenset[str]:
    # one deterministic draw per droppable slot, whatever the rate
    return frozenset(
        name for name in DROPPABLE[doc_class] if rng.random() < rate
    )


def generate(spec: GenSpec) -> list[DocumentInstance]:
    """Build the labeled corpus described by the spec, deterministically per seed."""
    docs: list[DocumentInstance] = []
    index = 0
    for doc_class in ("invoice", "form", "letter"):
        for seq in range(spec.counts.get(doc_class, 0)):
            rng = np.random.default_rng([spec.seed, index])
            dropped = _drops(rng, doc_class, spec.noise.drop_rate)
            tokens, structures, substructures = _BUILDERS[doc_class](
                rng, spec.noise, dropped, seq
            )
            docs.append(
                DocumentInstance(
                    id=f"{doc_class}-{index:04d}",
                    tokens=tuple(tokens),
                    labels=GroundTruth(
                        document_class=doc_class,
                        structures=frozenset(structures),
                        substructures=frozenset(substructures),
                    ),
                )
            )
            index += 1
    return docs


def generate_ambiguous(seed: int, count: int) -> list[DocumentInstance]:
    """Letters and forms carrying decoy amount columns.

    The decoy numbers are aligned well enough to survive the cheap checks but
    fail the quantity * price = amount gate, so a single extraction pass sees
    two plausible classes while a third pass does not. ``seed`` and ``count``
    must be ints >= 0, as in ``GenSpec``.
    """
    _non_negative_int(seed, "seed")
    _non_negative_int(count, "count")
    docs: list[DocumentInstance] = []
    for i in range(count):
        rng = np.random.default_rng([seed, 900000 + i])
        page = _Page(rng, Noise())
        if i % 2 == 0:
            doc_class = "letter"
            _put_company_header(page, rng)
            _put_address_block(page, rng)
            page.put_row([(_pick(rng, TOWNS), 0.10), (_date_text(rng), 0.22)], 0.22)
            _put_decoy_numbers(page, rng, 0.30)
            _put_paragraphs(page, rng, 0.55, 3, right_edge=0.44)
            structures = {"header", "address", "letter_body"}
            substructures = {"address_block", "date_line", "paragraph"}
        else:
            doc_class = "form"
            tokens, structures, substructures = _build_form(rng, Noise(), frozenset())
            page.tokens.extend(tokens)
            _put_decoy_numbers(page, rng, 0.62)
        docs.append(
            DocumentInstance(
                id=f"ambig-{doc_class}-{i:04d}",
                tokens=tuple(page.tokens),
                labels=GroundTruth(
                    document_class=doc_class,
                    structures=frozenset(structures),
                    substructures=frozenset(substructures),
                ),
            )
        )
    return docs
