import csv
import io
import json
import math
import random

import pytest
from scipy import integrate

from examgraph.errors import (
    DegenerateInput,
    DomainError,
    InvalidParams,
    TooFewParticipants,
    UnbalancedDesign,
    UnknownItem,
)
from examgraph.psychometrics import (
    ResponseMatrix,
    analyze,
    f_survival,
    item_discrimination,
    item_discriminations,
    item_p_value,
    item_p_values,
    levene_test,
    one_way_anova,
    pairwise_welch_bonferroni,
    reg_incomplete_beta,
    t_survival_two_sided,
    two_way_anova,
)
from examgraph.psychometrics.itemstats import _binary_rows, _totals


def beta_quadrature(x, a, b):
    """Quadrature oracle: integrate the beta density directly."""
    ln_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = lambda t: math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                                 - ln_norm)
    value, _ = integrate.quad(density, 0.0, x, limit=200)
    return value


def matrix_from_rows(rows, items=None):
    participants = [f"p{i:03d}" for i in range(len(rows))]
    items = items or [f"q{j:02d}" for j in range(len(rows[0]))]
    return ResponseMatrix(participants, items, rows)


# --- item stats ---

def test_p_value_arithmetic():
    matrix = matrix_from_rows([[1], [1], [1], [0]])
    assert item_p_value(matrix, "q00") == 0.75


def test_p_value_all_correct_and_unknown_item():
    matrix = matrix_from_rows([[1], [1]])
    assert item_p_value(matrix, "q00") == 1.0
    with pytest.raises(UnknownItem):
        item_p_value(matrix, "missing")


def test_matrix_validation():
    with pytest.raises(ValueError):
        ResponseMatrix(["p1"], ["q1"], [[1]])  # one participant
    with pytest.raises(ValueError):
        ResponseMatrix(["p1", "p2"], [], [[], []])  # no items
    with pytest.raises(ValueError):
        ResponseMatrix(["p1", "p2"], ["q1"], [[1], [2]])  # non-binary
    with pytest.raises(ValueError):
        ResponseMatrix(["p1", "p1"], ["q1"], [[1], [0]])  # duplicate ids


@pytest.mark.parametrize("cell, binary", [
    (0, True), (1, True), (True, True), (False, True), (1.0, True), (0.0, True),
    (2, False), (-1, False), (0.5, False), ("1", False), (None, False),
    ([1], False), ({}, False), (float("nan"), False),
])
def test_matrix_cells_must_equal_zero_or_one(cell, binary):
    rows = [[1, cell, 0], [0, 1, 1]]
    if binary:
        assert ResponseMatrix(["p1", "p2"], ["q1", "q2", "q3"], rows).rows == rows
    else:
        with pytest.raises(ValueError, match="row for 'p1' contains non-binary cells"):
            ResponseMatrix(["p1", "p2"], ["q1", "q2", "q3"], rows)


def _raised(call):
    """The type and message of what ``call`` raises on this interpreter:
    3.13 words some of these messages differently from 3.10."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("no error")


# Each row set with its outcome before the cells were packed: the exception
# and its message, or for accepted rows the rows, the CSV body and the P
# values. Two outcomes changed on purpose, noted where they occur, and a bad
# cell or row width now raises InvalidParams, a ValueError, not a plain
# ValueError, with the same message.
P0_NOT_BINARY = (InvalidParams, "row for 'p0' contains non-binary cells")
ODD_ROWS = [
    ("bad width before a later non-binary row", [[1, 0, 1], [1], [2, 0, 1]],
     (InvalidParams, "row for 'p1' has 1 cells, expected 3")),
    ("non-binary row before a later bad width", [[1, 2, 1], [1], [0, 0, 1]],
     P0_NOT_BINARY),
    ("non-binary row after good rows", [[0], [1], [0], [5]],
     (InvalidParams, "row for 'p3' contains non-binary cells")),
    ("two", [[2], [0]], P0_NOT_BINARY),
    ("minus one", [[-1], [0]], P0_NOT_BINARY),
    ("256", [[256], [0]], P0_NOT_BINARY),
    ("string cell", [["1"], [0]], P0_NOT_BINARY),
    ("None", [[None], [0]], P0_NOT_BINARY),
    ("NaN", [[float("nan")], [0]], P0_NOT_BINARY),
    ("string row", ["1", [0]], _raised(lambda: "1".count(0))),
    ("int row", [3, [0]], _raised(lambda: len(3))),
    ("set row", [{1}, [0]], _raised(lambda: {1}.count(0))),
    # written as "p0,True" and "p0,1.0" before, which from_csv rejected
    ("True", [[True], [0]], ([[1], [0]], "p0,1\np1,0\n", [0.5])),
    ("float", [[1.0], [0]], ([[1], [0]], "p0,1\np1,0\n", [0.5])),
    # .rows held the tuple or the bytes object itself before
    ("tuple row", [(1, 0), [0, 1]], ([[1, 0], [0, 1]], "p0,1,0\np1,0,1\n", [0.5, 0.5])),
    ("bytes row", [b"\x01\x00", [0, 1]],
     ([[1, 0], [0, 1]], "p0,1,0\np1,0,1\n", [0.5, 0.5])),
]


@pytest.mark.parametrize("rows, expected", [case[1:] for case in ODD_ROWS],
                         ids=[case[0] for case in ODD_ROWS])
def test_odd_constructor_rows(rows, expected):
    participants = [f"p{i}" for i in range(len(rows))]
    items = [f"q{j}" for j in range(len(rows[-1]))]
    if isinstance(expected[0], type):
        with pytest.raises(expected[0]) as caught:
            ResponseMatrix(participants, items, rows)
        assert type(caught.value) is expected[0]
        assert str(caught.value) == expected[1]
        return
    matrix = ResponseMatrix(participants, items, rows)
    assert matrix.rows == expected[0]
    assert all(type(row) is list and all(type(cell) is int for cell in row)
               for row in matrix.rows)
    assert matrix.to_csv() == ",".join(["participant", *items]) + "\n" + expected[1]
    assert item_p_values(matrix) == expected[2]
    assert ResponseMatrix.from_csv(matrix.to_csv()) == matrix


def test_group_means_reproduce_reported_ordering():
    # Synthetic groups built to sit at the published mean accuracies;
    # the recovered ordering must be Low > ACT ~ Medium > High.
    rng = random.Random(42)
    targets = {"low": 0.82, "act": 0.76, "medium": 0.71, "high": 0.63}
    means = {}
    for label, p in targets.items():
        rows = [[1 if rng.random() < p else 0 for _ in range(30)]
                for _ in range(40)]
        matrix = matrix_from_rows(rows)
        means[label] = sum(item_p_value(matrix, q) for q in matrix.items) / 30
    assert means["low"] > means["act"] > means["medium"] > means["high"]
    assert abs(means["act"] - means["medium"]) < 0.1  # ACT ~ Medium


def test_discrimination_extreme_case():
    # 8 participants; top two answer a battery plus the probe correctly
    rows = []
    for i in range(8):
        score = 1 if i < 2 else 0
        battery = [1] * (7 - i) + [0] * i  # strictly decreasing totals
        rows.append(battery + [score])
    matrix = matrix_from_rows(rows)
    probe = matrix.items[-1]
    assert item_discrimination(matrix, probe, fraction=0.25) == 1.0


def test_discrimination_uniform_item_is_zero():
    rows = [[1, i % 2, (i // 2) % 2] for i in range(8)]
    matrix = matrix_from_rows(rows)
    assert item_discrimination(matrix, matrix.items[0]) == 0.0


def test_discrimination_needs_enough_participants():
    matrix = matrix_from_rows([[1], [0], [1]])
    with pytest.raises(TooFewParticipants):
        item_discrimination(matrix, "q00")
    with pytest.raises(InvalidParams):
        item_discrimination(matrix_from_rows([[1], [0], [1], [0]]), "q00",
                            fraction=0.6)


def brute_force_discrimination(matrix, item, fraction=0.25):
    totals = {p: sum(r) for p, r in zip(matrix.participants, matrix.rows)}
    ranked = sorted(matrix.participants, key=lambda p: (-totals[p], p))
    k = math.ceil(fraction * len(ranked))
    idx = matrix.items.index(item)
    rows = dict(zip(matrix.participants, matrix.rows))
    top = sum(rows[p][idx] for p in ranked[:k]) / k
    bottom = sum(rows[p][idx] for p in ranked[-k:]) / k
    return top - bottom


def test_discrimination_matches_brute_force_on_random_matrices():
    rng = random.Random(77)
    for _ in range(10):
        rows = [[rng.randint(0, 1) for _ in range(12)] for _ in range(25)]
        matrix = matrix_from_rows(rows)
        for item in matrix.items:
            assert item_discrimination(matrix, item) == \
                brute_force_discrimination(matrix, item)


def brute_force_p_value(matrix, item):
    idx = matrix.items.index(item)
    return sum(row[idx] for row in matrix.rows) / len(matrix.rows)


def _brute_force_rows(rng, n):
    for _ in range(10):
        # three items keep totals in 0..3, so most participants tie and the
        # shuffled ids decide the ranking
        yield [[rng.randint(0, 1) for _ in range(3)] for _ in range(n)]
    yield [[1] * 3 for _ in range(n)]
    yield [[0] * 3 for _ in range(n)]
    yield [[rng.randint(0, 1)] for _ in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 25, 255, 256, 510, 511])
@pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5])
def test_analyze_item_stats_match_brute_force(n, fraction):
    """Counts come from rows added as ints, 255 rows at a time, one byte per
    column: n = 255, 256, 510 and 511 put a chunk boundary at or just past
    the end of the matrix and, at fraction 0.5, of the top and bottom groups;
    all-ones rows fill every byte to 255 in a full chunk."""
    rng = random.Random(f"{n}|{fraction}")
    for rows in _brute_force_rows(rng, n):
        participants = [f"p{i:03d}" for i in range(n)]
        rng.shuffle(participants)
        matrix = ResponseMatrix(participants, [f"q{j}" for j in range(len(rows[0]))], rows)
        expected = [{
            "item": item,
            "p_value": brute_force_p_value(matrix, item),
            "discrimination": (brute_force_discrimination(matrix, item, fraction)
                               if n >= 4 else None),
        } for item in matrix.items]
        assert _totals(matrix) == [sum(row) for row in rows]
        assert item_p_values(matrix) == [stats["p_value"] for stats in expected]
        assert analyze(matrix, discrimination_fraction=fraction)["item_stats"] \
            == expected


def test_tied_totals_rank_by_participant_id():
    # equal totals: "a" ranks first and "d" last whatever the row order
    matrix = ResponseMatrix(["d", "b", "c", "a"], ["q0", "q1"],
                            [[0, 1], [0, 1], [1, 0], [1, 0]])
    assert item_discriminations(matrix) == [1.0, -1.0]
    assert item_p_values(matrix) == [0.5, 0.5]


def test_analyze_rejects_bad_fraction_before_counting_participants():
    for rows in ([[1], [0]], [[1], [0], [1], [0]]):
        with pytest.raises(InvalidParams):
            analyze(matrix_from_rows(rows), discrimination_fraction=0.7)


def test_permutation_invariance():
    rng = random.Random(13)
    rows = [[rng.randint(0, 1) for _ in range(10)] for _ in range(20)]
    matrix = matrix_from_rows(rows)
    order = list(range(20))
    rng.shuffle(order)
    shuffled = ResponseMatrix([matrix.participants[i] for i in order],
                              list(matrix.items),
                              [matrix.rows[i] for i in order])
    for item in matrix.items:
        assert item_p_value(matrix, item) == item_p_value(shuffled, item)
        assert item_discrimination(matrix, item) == \
            item_discrimination(shuffled, item)


# --- one-way ANOVA ---

def test_one_way_hand_example():
    result = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert result.ss_between == pytest.approx(6.0, abs=1e-12)
    assert result.ss_within == pytest.approx(6.0, abs=1e-12)
    assert result.f_stat == pytest.approx(3.0, abs=1e-12)
    assert (result.df_between, result.df_within) == (2, 6)
    assert 0 < result.p < 1


def test_one_way_identical_groups():
    result = one_way_anova([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    assert result.f_stat == 0.0
    assert result.p == 1.0


def test_one_way_p_decreases_as_mean_shifts():
    previous = 1.1
    for shift in [0.0, 0.5, 1.0, 2.0, 4.0]:
        groups = [[1.0, 2.0, 3.0, 4.0], [1.0 + shift, 2.0 + shift,
                                         3.0 + shift, 4.0 + shift]]
        p = one_way_anova(groups).p
        assert p < previous or shift == 0.0
        previous = p


def test_one_way_zero_variance_flagged():
    result = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
    assert result.degenerate
    assert math.isinf(result.f_stat)
    assert result.p == 0.0


def test_one_way_preconditions():
    with pytest.raises(DegenerateInput):
        one_way_anova([[1.0, 2.0]])
    with pytest.raises(DegenerateInput):
        one_way_anova([[1.0, 2.0], [1.0]])


def test_one_way_ss_conservation_and_invariances():
    rng = random.Random(101)
    for _ in range(20):
        groups = [[rng.gauss(mu, 1.0) for _ in range(rng.randint(3, 9))]
                  for mu in [0.0, 0.4, 1.1]]
        result = one_way_anova(groups)
        assert result.ss_between + result.ss_within == \
            pytest.approx(result.ss_total, rel=1e-9)
        shifted = one_way_anova([[x + 13.7 for x in g] for g in groups])
        assert shifted.f_stat == pytest.approx(result.f_stat, rel=1e-9)
        scaled = one_way_anova([[x * -2.5 for x in g] for g in groups])
        assert scaled.f_stat == pytest.approx(result.f_stat, rel=1e-9)


# --- two-way ANOVA ---

def brute_force_two_way(cells):
    """Definitional sums of squares for a balanced a x b x n table."""
    a, b, n = len(cells), len(cells[0]), len(cells[0][0])
    allx = [x for row in cells for cell in row for x in cell]
    grand = sum(allx) / len(allx)
    cm = [[sum(c) / n for c in row] for row in cells]
    am = [sum(row) / b for row in cm]
    bm = [sum(cm[i][j] for i in range(a)) / a for j in range(b)]
    ss_a = b * n * sum((m - grand) ** 2 for m in am)
    ss_b = a * n * sum((m - grand) ** 2 for m in bm)
    ss_ab = n * sum((cm[i][j] - am[i] - bm[j] + grand) ** 2
                    for i in range(a) for j in range(b))
    ss_resid = sum((x - cm[i][j]) ** 2 for i in range(a) for j in range(b)
                   for x in cells[i][j])
    ss_total = sum((x - grand) ** 2 for x in allx)
    return ss_a, ss_b, ss_ab, ss_resid, ss_total


def test_two_way_constructed_null_for_factor_b():
    # identical columns within each row: B margins equal, no interaction
    base = [[0.0, 1.0, 2.0], [5.0, 6.0, 7.0]]
    cells = [[list(base[i]) for _ in range(3)] for i in range(2)]
    result = two_way_anova(cells)
    assert result.factor_b.f_stat == pytest.approx(0.0, abs=1e-12)
    assert result.interaction.f_stat == pytest.approx(0.0, abs=1e-12)
    assert result.factor_a.p < 0.01


def test_two_way_matches_brute_force_oracle():
    rng = random.Random(55)
    for _ in range(10):
        a, b, n = rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 6)
        cells = [[[rng.gauss(i - j, 1.0) for _ in range(n)]
                  for j in range(b)] for i in range(a)]
        result = two_way_anova(cells)
        ss_a, ss_b, ss_ab, ss_resid, ss_total = brute_force_two_way(cells)
        assert result.factor_a.ss == pytest.approx(ss_a, rel=1e-9, abs=1e-12)
        assert result.factor_b.ss == pytest.approx(ss_b, rel=1e-9, abs=1e-12)
        assert result.interaction.ss == pytest.approx(ss_ab, rel=1e-9, abs=1e-12)
        assert result.ss_residual == pytest.approx(ss_resid, rel=1e-9, abs=1e-12)
        assert (result.factor_a.ss + result.factor_b.ss + result.interaction.ss
                + result.ss_residual) == pytest.approx(ss_total, rel=1e-9)
        assert result.df_residual == a * b * (n - 1)


def test_two_way_rejects_unbalanced():
    with pytest.raises(UnbalancedDesign):
        two_way_anova([[[1.0, 2.0], [1.0, 2.0]],
                       [[1.0, 2.0], [1.0, 2.0, 3.0]]])
    with pytest.raises(UnbalancedDesign):
        two_way_anova([[[1.0, 2.0]]])


# --- Levene ---

def test_levene_identical_dispersion():
    result = levene_test([[1.0, 2.0, 3.0], [11.0, 12.0, 13.0]])
    assert result.f_stat == pytest.approx(0.0, abs=1e-12)


def test_levene_detects_scale_difference():
    rng = random.Random(2024)
    tight = [rng.gauss(0, 1) for _ in range(30)]
    wide = [rng.gauss(0, 10) for _ in range(30)]
    result = levene_test([tight, wide])
    assert result.p < 0.05


def test_levene_is_anova_on_median_deviations():
    import statistics

    groups = [[1.0, 4.0, 2.0, 8.0], [3.0, 3.5, 9.0, 0.5]]
    direct = one_way_anova([
        [abs(x - statistics.median(g)) for x in g] for g in groups
    ])
    via_levene = levene_test(groups)
    assert via_levene.f_stat == direct.f_stat
    assert via_levene.p == direct.p


# --- incomplete beta and F tails ---

def test_beta_boundary_and_uniform_identities():
    assert reg_incomplete_beta(0.0, 2.0, 3.0) == 0.0
    assert reg_incomplete_beta(1.0, 2.0, 3.0) == 1.0
    assert reg_incomplete_beta(0.5, 1.0, 1.0) == 0.5
    assert reg_incomplete_beta(0.123, 1.0, 1.0) == 0.123


def test_beta_domain_errors():
    with pytest.raises(DomainError):
        reg_incomplete_beta(-0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_incomplete_beta(1.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_incomplete_beta(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        reg_incomplete_beta(0.5, 1.0, -2.0)


def test_beta_matches_quadrature():
    cases = [(0.3, 2.0, 5.0), (0.5, 0.5, 0.5), (0.9, 4.0, 1.5),
             (0.05, 3.0, 3.0), (0.62, 10.0, 2.0), (0.5, 17.0, 0.5)]
    for x, a, b in cases:
        assert reg_incomplete_beta(x, a, b) == \
            pytest.approx(beta_quadrature(x, a, b), abs=1e-10)


def test_beta_complement_symmetry():
    rng = random.Random(31)
    for _ in range(100):
        x = rng.random()
        a = rng.uniform(0.2, 8)
        b = rng.uniform(0.2, 8)
        total = reg_incomplete_beta(x, a, b) + reg_incomplete_beta(1 - x, b, a)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_f_survival_boundaries_and_monotonicity():
    assert f_survival(0.0, 2, 6) == 1.0
    assert f_survival(math.inf, 2, 6) == 0.0
    previous = 1.0
    for f in [0.5, 1.0, 2.0, 4.0, 8.0]:
        p = f_survival(f, 2, 6)
        assert p < previous
        previous = p
    with pytest.raises(DomainError):
        f_survival(-1.0, 2, 6)
    with pytest.raises(DomainError):
        f_survival(1.0, 0, 6)


def test_f_survival_matches_quadrature():
    for f, d1, d2 in [(3.0, 2, 6), (1.4, 5, 20), (7.7, 3, 12), (0.3, 8, 4)]:
        x = d2 / (d2 + d1 * f)
        expected = beta_quadrature(x, d2 / 2, d1 / 2)
        assert f_survival(f, d1, d2) == pytest.approx(expected, abs=1e-8)


def test_t_survival_consistent_with_f():
    # two-sided t tail equals the F tail with df1=1
    for t, df in [(1.5, 7), (2.2, 20), (0.4, 3)]:
        assert t_survival_two_sided(t, df) == \
            pytest.approx(f_survival(t * t, 1, df), abs=1e-12)


def test_p_values_always_in_unit_interval():
    rng = random.Random(606)
    for _ in range(200):
        f = rng.uniform(0, 50)
        d1 = rng.randint(1, 40)
        d2 = rng.randint(1, 200)
        p = f_survival(f, d1, d2)
        assert 0.0 <= p <= 1.0


# --- pairwise comparisons and the report ---

def test_pairwise_welch_bonferroni_labels_and_adjustment():
    groups = [[1.0, 2.0, 3.0], [1.1, 2.1, 3.1], [8.0, 9.0, 10.0]]
    results = pairwise_welch_bonferroni(groups, ["a", "b", "c"])
    assert len(results) == 3
    for entry in results:
        assert entry["method"] == "bonferroni_welch"
        assert entry["p_adjusted"] == pytest.approx(min(1.0, entry["p"] * 3))
    near = next(e for e in results if e["pair"] == ["a", "b"])
    far = next(e for e in results if e["pair"] == ["a", "c"])
    assert far["p"] < near["p"]


def test_analyze_report_shape():
    rng = random.Random(8)
    rows = [[rng.randint(0, 1) for _ in range(6)] for _ in range(16)]
    matrix = matrix_from_rows(rows)
    groups = {pid: ("even" if i % 2 == 0 else "odd")
              for i, pid in enumerate(matrix.participants)}
    report = analyze(matrix, groups)
    assert report["participants"] == 16
    assert report["items"] == 6
    assert len(report["item_stats"]) == 6
    assert set(report["groups"]) == {"even", "odd"}
    for summary in report["groups"].values():
        assert 0.0 <= summary["mean"] <= 1.0
        assert summary["sd"] >= 0.0
    assert "anova" in report and "levene" in report and "pairwise" in report


def test_csv_round_trip():
    rows = [[1, 0], [0, 1], [1, 1]]
    matrix = matrix_from_rows(rows, items=["item_a", "item_b"])
    text = matrix.to_csv()
    clone = ResponseMatrix.from_csv(text)
    assert clone.participants == matrix.participants
    assert clone.items == matrix.items
    assert clone.rows == matrix.rows
    assert clone.to_csv() == text
    with pytest.raises(ValueError):
        ResponseMatrix.from_csv("wrongheader,q1\np1,1\np2,0\n")
    with pytest.raises(ValueError, match="non-integer cell on line 3"):
        ResponseMatrix.from_csv("participant,q1\np1,1\np2,x\n")
    # a quoted newline in an id: the bad cell is on physical line 4
    with pytest.raises(InvalidParams, match="non-integer cell on line 4"):
        ResponseMatrix.from_csv('participant,q1\n"p\n1",1\np2,x\n')


def csv_int_reference(text):
    """``from_csv`` as it read every text before its binary-row fast path:
    csv.reader, then int on every cell. Its errors, a ``csv.Error`` among
    them, are InvalidParams. Both name the physical line a record ends on."""
    reader = csv.reader(io.StringIO(text))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidParams("empty response CSV") from None
        if not header or header[0].strip() != "participant":
            raise InvalidParams("first CSV column must be 'participant'")
        items = [h.strip() for h in header[1:]]
        participants, rows = [], []
        for record in reader:
            if not record or not any(cell.strip() for cell in record):
                continue
            participants.append(record[0].strip())
            try:
                rows.append(list(map(int, record[1:])))
            except ValueError:
                raise InvalidParams(f"non-integer cell on line {reader.line_num}") from None
    except csv.Error as exc:
        raise InvalidParams(f"malformed CSV on line {reader.line_num}: {exc}") from None
    return ResponseMatrix(participants, items, rows)


# the last two hold characters that str.splitlines, unlike csv, breaks at
ODD_CELLS = [" 1", "1 ", "+1", "-0", "01", "\uff11", "\u0661", "1_0", "2", "x",
             "", " ", "0.0", "1\x1cp9,0", "0\u2028p8,1"]
ODD_IDS = ["\u00e9", "\u540d\u524d", " p ", "", "p q", "p\x85", "p\x0bq", "p\x1c", "\t"]
BLANK_LINES = ["", "  ", "\t", ",", " , ", ",,,", "\u3000"]


def _mutate(rng, kind, lines):
    """Apply one named edit to the lines of a CSV text (header first)."""
    row = rng.randrange(len(lines))
    cells = lines[row].split(",")
    col = rng.randrange(len(cells))
    if kind == "quote":
        cells[col] = rng.choice(['"{}"', '"{}""x"', '{}"', '"{},{}"']).format(
            cells[col], cells[col])
    elif kind == "cr":
        cells[col] += rng.choice(["\r", "\r\n", "\rx"])
    elif kind == "nul":
        cells[col] += "\0"
    elif kind == "blank":
        lines.insert(rng.randint(1, len(lines)), rng.choice(BLANK_LINES))
        return
    elif kind == "cell" and col:
        cells[col] = rng.choice(ODD_CELLS)
    elif kind == "short" and len(cells) > 1:
        cells.pop()
    elif kind == "separator" and row and len(cells) > 2:
        cells[col - 1:col + 1] = [cells[col - 1] + rng.choice(";\t 01") + cells[col]]
    elif kind == "long":
        cells.append(rng.choice("01"))
    elif kind == "trailing_comma":
        cells.append("")
    elif kind == "odd_id" and row:
        cells[0] = rng.choice(ODD_IDS)
    elif kind == "long_id" and row:
        cells[0] = "p" * (csv.field_size_limit() + rng.choice([-1, 0, 1]))
    elif kind == "duplicate_id" and row > 1:
        cells[0] = lines[1].split(",")[0]
    lines[row] = ",".join(cells)


MUTATIONS = ["none", "quote", "cr", "nul", "blank", "cell", "separator", "short",
             "long", "trailing_comma", "odd_id", "long_id", "duplicate_id"]


def _fuzz_text(rng, kind):
    width = rng.choice([1, 1, 2, 3, 7])
    lines = [",".join(["participant", *(f"q{j}" for j in range(width))])]
    for i in range(rng.randint(0, 8)):
        lines.append(",".join([f"p{i}", *(rng.choice("01") for _ in range(width))]))
    for extra in [kind] + rng.choices(MUTATIONS, k=rng.choice([0, 0, 1, 2])):
        if extra != "none":
            _mutate(rng, extra, lines)
    newline = "\r\n" if rng.random() < 0.1 else "\n"
    return newline.join(lines) + rng.choice([newline, newline, ""])


def _outcome(parse, text):
    try:
        matrix = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return matrix.participants, matrix.items, matrix.rows


def test_from_csv_matches_csv_int_reference():
    """Every text gives the matrix, or the error, that csv.reader + int
    gives: the fast path takes only the texts it reads the same way."""
    rng = random.Random(1709)
    matrices = 0
    for case in range(1200):
        text = _fuzz_text(rng, MUTATIONS[case % len(MUTATIONS)])
        expected = _outcome(csv_int_reference, text)
        assert _outcome(ResponseMatrix.from_csv, text) == expected, repr(text[:200])
        matrices += not isinstance(expected[0], type)
    for text in ("", "\n", "participant\n", "participant,q\n", "participant,q\np1,1\np2,0"):
        assert _outcome(ResponseMatrix.from_csv, text) == \
            _outcome(csv_int_reference, text), repr(text)
    # both outcomes are common, so neither path is checked only vacuously
    assert 200 < matrices < 1000


def _add(values):
    total = 0
    for value in values:
        total += value
    return total


def list_reference_analysis(participants, items, rows, groups, fraction):
    """``analyze`` over lists of rows: columns by zip, totals by sum."""
    n = len(rows)
    totals = [sum(row) for row in rows]
    p_values = [sum(column) / n for column in zip(*rows)]
    discriminations = [None] * len(items)
    if n >= 4:
        ranked = [row for _, _, row in sorted(zip(totals, participants, rows),
                                              key=lambda e: (-e[0], e[1]))]
        k = math.ceil(fraction * n)
        top = [sum(column) for column in zip(*ranked[:k])]
        bottom = [sum(column) for column in zip(*ranked[-k:])]
        discriminations = [t / k - b / k for t, b in zip(top, bottom)]
    report = {
        "participants": n,
        "items": len(items),
        "item_stats": [{"item": item, "p_value": p, "discrimination": d}
                       for item, p, d in zip(items, p_values, discriminations)],
        "mean_p_value": _add(p_values) / len(p_values),
    }
    by_group = {}
    for pid, total in zip(participants, totals):
        if pid in groups:
            by_group.setdefault(groups[pid], []).append(total / len(items))
    summary = {}
    for label in sorted(by_group):
        values = by_group[label]
        mean = _add(values) / len(values)
        sd = (math.sqrt(_add((v - mean) ** 2 for v in values) / (len(values) - 1))
              if len(values) > 1 else 0.0)
        summary[label] = {"n": len(values), "mean": mean, "sd": sd}
    if groups:
        report["groups"] = summary
    labels = [label for label in sorted(by_group) if len(by_group[label]) >= 2]
    samples = [by_group[label] for label in labels]
    if len(samples) >= 2:
        report["anova"] = one_way_anova(samples).to_dict()
        report["levene"] = levene_test(samples).to_dict()
        report["pairwise"] = pairwise_welch_bonferroni(samples, labels)
    return totals, p_values, discriminations, report


EQUIVALENCE_SHAPES = [
    # (participants, items, kind)
    (2, 1, "random"), (3, 1, "random"), (2, 5, "random"), (3, 4, "random"),
    (4, 1, "random"), (5, 3, "random"), (12, 3, "random"), (40, 7, "random"),
    (9, 6, "zeros"), (9, 6, "ones"), (10, 4, "extremes"), (30, 2, "random"),
]


def _seeded_rows(rng, n, width, kind):
    if kind == "zeros":
        return [[0] * width for _ in range(n)]
    if kind == "ones":
        return [[1] * width for _ in range(n)]
    rows = [[rng.randint(0, 1) for _ in range(width)] for _ in range(n)]
    if kind == "extremes":
        rows[0], rows[-1] = [1] * width, [0] * width
        rows[n // 2] = [0] * width
    return rows


@pytest.mark.parametrize("n, width, kind", EQUIVALENCE_SHAPES)
def test_packed_statistics_equal_list_reference(n, width, kind):
    """P values, discriminations, totals and the whole report from the
    packed cells equal a zip/sum reference over the rows, for matrices built
    by the constructor, by from_csv's 0/1 fast path and by its csv.reader
    path. Few items make tied totals common."""
    rng = random.Random(f"{n}|{width}|{kind}")
    for _ in range(6):
        rows = _seeded_rows(rng, n, width, kind)
        participants = [f"p{i:02d}" for i in range(n)]
        rng.shuffle(participants)
        items = [f"q{j}" for j in range(width)]
        groups = {pid: rng.choice("abc") for pid in participants
                  if rng.random() < 0.9}
        fraction = rng.choice([0.1, 0.25, 0.5])
        totals, p_values, discriminations, report = list_reference_analysis(
            participants, items, rows, groups, fraction)

        built = ResponseMatrix(participants, items, rows)
        fast_text = built.to_csv()
        slow_text = fast_text.replace(f"\n{participants[0]},",
                                      f'\n"{participants[0]}",', 1)
        assert _binary_rows(fast_text, width) is not None
        assert _binary_rows(slow_text, width) is None
        for matrix in (built, ResponseMatrix.from_csv(fast_text),
                       ResponseMatrix.from_csv(slow_text)):
            assert matrix.rows == rows
            assert _totals(matrix) == totals
            assert item_p_values(matrix) == p_values
            if n >= 4:
                assert item_discriminations(matrix, fraction) == discriminations
            else:
                with pytest.raises(TooFewParticipants):
                    item_discriminations(matrix, fraction)
            for g in (groups, None):
                expected = report if g else {key: report[key] for key in (
                    "participants", "items", "item_stats", "mean_p_value")}
                assert json.dumps(analyze(matrix, g, fraction), sort_keys=True) == \
                    json.dumps(expected, sort_keys=True)
