"""Classical item analysis over a binary response matrix: per-item P value
(proportion correct) and the upper/lower-group discrimination index."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from ..errors import InvalidParams, TooFewParticipants, UnknownItem


@dataclass
class ResponseMatrix:
    """Complete participants x items matrix of 0/1 scores."""

    participants: list[str]
    items: list[str]
    rows: list[list[int]]

    def __post_init__(self):
        if len(self.participants) < 2:
            raise ValueError("need at least 2 participants")
        if not self.items:
            raise ValueError("need at least 1 item")
        if len(set(self.participants)) != len(self.participants):
            raise ValueError("participant ids must be unique")
        if len(set(self.items)) != len(self.items):
            raise ValueError("item ids must be unique")
        if len(self.rows) != len(self.participants):
            raise ValueError("one row per participant required")
        for pid, row in zip(self.participants, self.rows):
            if len(row) != len(self.items):
                raise ValueError(f"row for {pid!r} has {len(row)} cells, "
                                 f"expected {len(self.items)}")
            if row.count(0) + row.count(1) != len(row):
                raise ValueError(f"row for {pid!r} contains non-binary cells")

    def item_index(self, item: str) -> int:
        try:
            return self.items.index(item)
        except ValueError:
            raise UnknownItem(f"no item {item!r} in matrix") from None

    @classmethod
    def from_csv(cls, text: str) -> "ResponseMatrix":
        """Parse the response CSV: header ``participant,<item ids...>``,
        then one 0/1 row per participant."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty response CSV") from None
        if not header or header[0].strip() != "participant":
            raise ValueError("first CSV column must be 'participant'")
        items = [h.strip() for h in header[1:]]
        binary = _binary_rows(text, len(items))
        if binary is not None:
            return cls(binary[0], items, binary[1])
        participants: list[str] = []
        rows: list[list[int]] = []
        for line_no, record in enumerate(reader, start=2):
            if not record or not any(cell.strip() for cell in record):
                continue
            participants.append(record[0].strip())
            try:
                rows.append(list(map(int, record[1:])))
            except ValueError:
                raise ValueError(f"non-integer cell on line {line_no}") from None
        return cls(participants, items, rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["participant", *self.items])
        for pid, row in zip(self.participants, self.rows):
            writer.writerow([pid, *row])
        return out.getvalue()


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _binary_rows(text: str, width: int) -> tuple[list[str], list[list[int]]] | None:
    """Participants and rows after the header line when the text has no
    quote, CR or NUL and each line is blank or ``id,b,...,b`` with ``width``
    0/1 cells, which csv.reader + int read the same way; else None."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    commas = "," * (width - 1)
    limit = csv.field_size_limit()
    participants: list[str] = []
    rows: list[list[int]] = []
    for line in text.split("\n")[1:]:
        pid, _, cells = line.partition(",")
        if (len(cells) == 2 * width - 1 and len(pid) <= limit
                and cells.isascii() and cells[1::2] == commas):
            bits = cells[::2].encode("ascii")
            if not bits.translate(None, b"01"):
                participants.append(pid.strip())
                rows.append(list(bits.translate(_BITS)))
                continue
        if line.strip():
            return None
    return participants, rows


def item_p_values(matrix: ResponseMatrix) -> list[float]:
    """Proportion of participants answering each item correctly, in
    ``matrix.items`` order."""
    n = len(matrix.rows)
    return [sum(column) / n for column in zip(*matrix.rows)]


def item_discriminations(matrix: ResponseMatrix,
                         fraction: float = 0.25) -> list[float]:
    """Correct-proportion difference between the top and bottom score
    groups, for each item in ``matrix.items`` order.

    Participants are ranked once by (total score desc, participant id asc);
    k = ceil(fraction * n) are taken from each end of that ranking, and each
    group's column sums are taken once for all items.
    """
    return _discriminations(matrix, fraction, [sum(row) for row in matrix.rows])


def _discriminations(matrix: ResponseMatrix, fraction: float,
                     totals: list[int]) -> list[float]:
    """``item_discriminations`` with each participant's total score given,
    in ``matrix.participants`` order."""
    if not 0 < fraction <= 0.5:
        raise InvalidParams(f"fraction must be in (0, 0.5], got {fraction}")
    n = len(matrix.participants)
    if n < 4:
        raise TooFewParticipants(f"discrimination needs >= 4 participants, got {n}")
    order = sorted(zip(totals, matrix.participants, matrix.rows),
                   key=lambda entry: (-entry[0], entry[1]))
    ranked = [row for _, _, row in order]
    k = math.ceil(fraction * n)
    top = [sum(column) for column in zip(*ranked[:k])]
    bottom = [sum(column) for column in zip(*ranked[-k:])]
    return [t / k - b / k for t, b in zip(top, bottom)]


def item_p_value(matrix: ResponseMatrix, item: str) -> float:
    """Proportion of participants answering the item correctly."""
    return item_p_values(matrix)[matrix.item_index(item)]


def item_discrimination(matrix: ResponseMatrix, item: str,
                        fraction: float = 0.25) -> float:
    """Discrimination index of one item; see ``item_discriminations``."""
    return item_discriminations(matrix, fraction)[matrix.item_index(item)]
