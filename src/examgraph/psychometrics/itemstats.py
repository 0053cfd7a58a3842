"""Classical item analysis over a binary response matrix: per-item P value
(proportion correct) and the upper/lower-group discrimination index."""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator, Sequence
from operator import add

from ..errors import InvalidParams, TooFewParticipants, UnknownItem


class ResponseMatrix:
    """Complete participants x items matrix of 0/1 scores.

    The cells are stored once, packed row-major in one ``bytes`` object with
    one byte (0 or 1) per cell. The statistics below read each row as one
    int with cell j in byte j and get totals and column counts from int
    arithmetic in C: bit counts, and sums of up to 255 rows (``_tally``).
    ``rows`` reads the cells back as lists of ints, so it cannot disagree with
    the statistics. A row given to the constructor may be any sequence of
    cells that each equal 0 or 1.
    """

    def __init__(self, participants: list[str], items: list[str],
                 rows: list[list[int]]):
        if len(participants) < 2:
            raise InvalidParams("need at least 2 participants")
        if not items:
            raise InvalidParams("need at least 1 item")
        if len(set(participants)) != len(participants):
            raise InvalidParams("participant ids must be unique")
        if len(set(items)) != len(items):
            raise InvalidParams("item ids must be unique")
        if len(rows) != len(participants):
            raise InvalidParams("one row per participant required")
        self.participants = participants
        self.items = items
        self._cells = _pack(participants, rows, len(items))

    def __repr__(self) -> str:
        return (f"ResponseMatrix(participants={self.participants!r}, "
                f"items={self.items!r}, rows={self.rows!r})")

    def __eq__(self, other):
        if not isinstance(other, ResponseMatrix):
            return NotImplemented
        return (self.participants, self.items, self._cells) == \
            (other.participants, other.items, other._cells)

    @property
    def rows(self) -> list[list[int]]:
        """One new list of 0/1 ints per participant."""
        cells, width = self._cells, len(self.items)
        return [list(cells[i:i + width]) for i in range(0, len(cells), width)]

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
        records = _records(reader)
        try:
            header = next(records)
        except StopIteration:
            raise InvalidParams("empty response CSV") from None
        if not header or header[0].strip() != "participant":
            raise InvalidParams("first CSV column must be 'participant'")
        items = [h.strip() for h in header[1:]]
        binary = _binary_rows(text, len(items))
        if binary is not None:
            try:
                return cls(binary[0], items, binary[1])
            except InvalidParams:
                pass  # csv.reader + int below name this text's error
        participants: list[str] = []
        rows: list[list[int]] = []
        for record in records:
            if not record or not any(cell.strip() for cell in record):
                continue
            participants.append(record[0].strip())
            try:
                rows.append(list(map(int, record[1:])))
            except ValueError:
                raise InvalidParams(f"non-integer cell on line {reader.line_num}") from None
        return cls(participants, items, rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["participant", *self.items])
        cells, width = self._cells, len(self.items)
        for pid, start in zip(self.participants, range(0, len(cells), width)):
            writer.writerow([pid, *cells[start:start + width]])
        return out.getvalue()


def _records(reader) -> Iterator[list[str]]:
    """The reader's records; a ``csv.Error`` becomes ``InvalidParams`` naming
    the line it stopped on."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InvalidParams(f"malformed CSV on line {reader.line_num}: {exc}") from None


def _pack(participants: list[str], rows, width: int) -> bytes:
    """The rows' cells as one row-major ``bytes`` object. Lists, tuples and
    bytes of 0/1 ints are packed and checked in C; only when that fails are
    the rows walked, which names the first bad row, accepts cells such as
    ``1.0`` that equal 0 or 1, and raises what any other row raises there."""
    try:
        if all(type(row) in (list, tuple, bytes) and len(row) == width
               for row in rows):
            cells = b"".join(map(bytes, rows))
            if not cells.translate(None, b"\x00\x01"):
                return cells
    except (TypeError, ValueError):
        pass
    for pid, row in zip(participants, rows):
        if len(row) != width:
            raise InvalidParams(f"row for {pid!r} has {len(row)} cells, "
                                f"expected {width}")
        if row.count(0) + row.count(1) != len(row):
            raise InvalidParams(f"row for {pid!r} contains non-binary cells")
    return bytes(cell == 1 for row in rows for cell in row)


# '0' -> 0 and '1' -> 1; every other byte -> 2, which _pack rejects
_BITS = bytes({ord("0"): 0, ord("1"): 1}.get(b, 2) for b in range(256))


def _binary_rows(text: str, width: int) -> tuple[list[str], list[bytes]] | None:
    """Participants and packed rows after the header line when the text has
    no quote, CR or NUL and each line is blank or ``id,c,...,c`` with
    ``width`` one-character ASCII cells, which csv.reader reads the same
    way; else None. A cell other than ``0``/``1`` becomes byte 2, so the
    constructor rejects the rows and ``from_csv`` falls back to csv.reader."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    commas = "," * (width - 1)
    limit = csv.field_size_limit()
    participants: list[str] = []
    rows: list[bytes] = []
    for line in text.split("\n")[1:]:
        pid, _, cells = line.partition(",")
        if (len(cells) == 2 * width - 1 and len(pid) <= limit
                and cells.isascii() and cells[1::2] == commas):
            participants.append(pid.strip())
            rows.append(cells[::2].encode("ascii").translate(_BITS))
        elif line.strip():
            return None
    return participants, rows


# a byte lane holds a column count up to 255 before it carries into the next
_LANE_MAX = 255


def _tally(matrix: ResponseMatrix,
           positions: Sequence[int] | None = None) -> tuple[list[int], list[int]]:
    """The total score of each participant and the number of 1 cells in
    each item's column, over every participant or over those at the given
    row positions. A row is read as one int with cell j in byte j: each cell
    is 0 or 1, so its total is the int's bit count, and up to ``_LANE_MAX``
    rows add with no carry between bytes, so the bytes of such a chunk's sum
    are its column counts. At most one chunk of row ints is held at a time."""
    cells, width = matrix._cells, len(matrix.items)
    if positions is None:
        positions = range(len(matrix.participants))
    totals: list[int] = []
    counts = [0] * width
    for start in range(0, len(positions), _LANE_MAX):
        rows = [int.from_bytes(cells[i * width:(i + 1) * width], "little")
                for i in positions[start:start + _LANE_MAX]]
        totals += map(int.bit_count, rows)
        counts = list(map(add, counts, sum(rows).to_bytes(width, "little")))
    return totals, counts


def _totals(matrix: ResponseMatrix) -> list[int]:
    """Each participant's total score, in ``matrix.participants`` order."""
    return _tally(matrix)[0]


def item_p_values(matrix: ResponseMatrix) -> list[float]:
    """Proportion of participants answering each item correctly, in
    ``matrix.items`` order."""
    n = len(matrix.participants)
    return [count / n for count in _tally(matrix)[1]]


def item_discriminations(matrix: ResponseMatrix,
                         fraction: float = 0.25) -> list[float]:
    """Correct-proportion difference between the top and bottom score
    groups, for each item in ``matrix.items`` order.

    Participants are ranked once by (total score desc, participant id asc);
    k = ceil(fraction * n) are taken from each end of that ranking, and each
    group's column sums are taken once for all items.
    """
    return _discriminations(matrix, fraction, _totals(matrix))


def _discriminations(matrix: ResponseMatrix, fraction: float,
                     totals: list[int]) -> list[float]:
    """``item_discriminations`` with each participant's total score given,
    in ``matrix.participants`` order."""
    if not 0 < fraction <= 0.5:
        raise InvalidParams(f"fraction must be in (0, 0.5], got {fraction}")
    participants = matrix.participants
    n = len(participants)
    if n < 4:
        raise TooFewParticipants(f"discrimination needs >= 4 participants, got {n}")
    order = sorted(range(n), key=lambda i: (-totals[i], participants[i]))
    k = math.ceil(fraction * n)
    top, bottom = _tally(matrix, order[:k])[1], _tally(matrix, order[-k:])[1]
    return [t / k - b / k for t, b in zip(top, bottom)]


def item_p_value(matrix: ResponseMatrix, item: str) -> float:
    """Proportion of participants answering the item correctly."""
    return item_p_values(matrix)[matrix.item_index(item)]


def item_discrimination(matrix: ResponseMatrix, item: str,
                        fraction: float = 0.25) -> float:
    """Discrimination index of one item; see ``item_discriminations``."""
    return item_discriminations(matrix, fraction)[matrix.item_index(item)]
