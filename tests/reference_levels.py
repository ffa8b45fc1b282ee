"""Plain references for extractor levels, each written from its docstring.

A reference takes a document's tokens and the extractor's params and returns
``(value, visits)``. It has no view, no memo and no ``_gate``, and it charges
visits by the rule ``features.py`` states: one per token the level reads.
``ElementExtractor.evaluate`` must match each reference exactly, value and
visits.
"""
from doctnn.features import ALIGN_TOL


def rows_by_top_edge(tokens, tol):
    """Rows top to bottom: tokens taken by top edge, a gap above ``tol`` starting
    a new row; each row ordered left to right."""
    rows = []
    previous = None
    for t in sorted(tokens, key=lambda t: t.y):
        if rows and t.y - previous <= tol:
            rows[-1].append(t)
        else:
            rows.append([t])
        previous = t.y
    return [sorted(row, key=lambda t: t.x) for row in rows]


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
