"""linalg: exact RREF, rank, nullspace."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from e8jac.linalg import integerize, nullspace, rank, rref
from oracles import rank_by_bareiss


def test_rref_identity():
    m, pivots = rref([[1, 0], [0, 1]])
    assert m == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rank_singular():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([]) == 0


def test_nullspace_simple():
    # x + y + z = 0, x - z = 0  ->  (1, -2, 1)
    basis = nullspace([[1, 1, 1], [1, 0, -1]], 3)
    assert basis == [[1, -2, 1]]


def test_nullspace_full_space_when_no_rows():
    basis = nullspace([], 3)
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i] == 1 and sum(map(abs, v)) == 1


def test_nullspace_trivial():
    assert nullspace([[1, 0], [0, 1]], 2) == []


def test_integerize():
    assert integerize([Fraction(1, 2), Fraction(-1, 3)]) == [3, -2]
    assert integerize([Fraction(-2), Fraction(4)]) == [1, -2]
    assert integerize([0, 0]) == [0, 0]


ints = st.integers(min_value=-9, max_value=9)


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_nullspace_vectors_annihilate(rows):
    for v in nullspace(rows, 4):
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_rank_nullity(rows):
    assert rank(rows) + len(nullspace(rows, 4)) == 4


# ---------------------------------------------------------------------------
# Oracle: Gauss-Jordan elimination on Fraction entries, the route the
# fraction-free rref replaced. Pivot: the entry maximizing
# |numerator * denominator| in the current column (lowest row on ties).


def rref_by_fractions(rows):
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        best, best_size = -1, -1
        for i in range(r, len(m)):
            if m[i][c]:
                size = abs(m[i][c].numerator * m[i][c].denominator)
                if size > best_size:
                    best, best_size = i, size
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-50, max_value=50).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)


@st.composite
def rational_matrices(draw, entries=entries):
    """Wide, tall or empty matrices with zero, duplicate and dependent rows."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "comb"]), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * ncols)
        elif kind == "dup":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entries), draw(entries)
            rows.append([x * p + y * q for p, q in zip(a, b)])
    return draw(st.permutations(rows))


@given(rational_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_fraction_oracle(rows):
    before = [list(r) for r in rows]
    m, pivots = rref(rows)
    assert (m, pivots) == rref_by_fractions(rows)
    assert all(type(x) is Fraction for r in m for x in r)
    assert rows == before


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_is_the_rref_pivot_count(rows):
    before = [list(r) for r in rows]
    assert rank(rows) == len(rref(rows)[1])
    assert rows == before


@given(rational_matrices(st.integers(min_value=-2**80, max_value=2**80)))
@settings(max_examples=150, deadline=None)
def test_rank_is_the_rref_pivot_count_on_wide_integers(rows):
    assert rank(rows) == len(rref(rows)[1])


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_bareiss_oracle(rows):
    assert rank(rows) == rank_by_bareiss(rows)


@given(rational_matrices(st.integers(min_value=-2**80, max_value=2**80)))
@settings(max_examples=150, deadline=None)
def test_rank_matches_bareiss_oracle_on_wide_integers(rows):
    assert rank(rows) == rank_by_bareiss(rows)


def test_rank_builds_no_fraction_on_integer_rows(monkeypatch):
    import e8jac.linalg as linalg

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built for an integer matrix")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    assert rank([[0, 2, 4], [0, 1, 2], [3, 0, 0], [0, 0, 0]]) == 2
    assert rank([[2**80, 1], [2**81, 2], [1, 2**80]]) == 2


def test_rref_empty_and_zero_rows():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    m, pivots = rref([[0, 2, 4], [0, 0, 0], [0, 1, 2]])
    assert (m, pivots) == ([[0, 1, 2], [0, 0, 0], [0, 0, 0]], [1])
