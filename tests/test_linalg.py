import hashlib
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzylink import linalg
from fuzzylink.codes import bch_build
from fuzzylink.fields import GF2, field
from fuzzylink.linalg import (
    AffineSolutions,
    FieldMatrix,
    FieldVector,
    NoSolutionError,
    RowReduction,
    SingularMatrixError,
    concat_cols,
    hamming_distance,
    invert,
    kernel_basis,
    permuted_rows,
    random_vector,
    random_weight_vector,
    rank,
    solve_affine,
)

GF3 = field(3)
GF5 = field(5)
GF32 = field(2, 5)


# ---------------------------------------------------------------------------
# naive per-entry reference implementations (independent oracle for the
# bit-packed GF(2) fast path)
# ---------------------------------------------------------------------------

def ref_matvec(grid, vec):
    return [sum(a * x for a, x in zip(row, vec)) % 2 for row in grid]


def ref_rref(grid, f=GF2):
    """Column-order Gauss-Jordan, entry by entry: (RREF rows, then the
    zero rows; pivot columns)."""
    grid = [row[:] for row in grid]
    rows = len(grid)
    cols = len(grid[0]) if grid else 0
    pivots = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, rows) if grid[i][c]), None)
        if sel is None:
            continue
        grid[r], grid[sel] = grid[sel], grid[r]
        inv = f.inv(grid[r][c])
        grid[r] = [f.mul(inv, x) for x in grid[r]]
        for i in range(rows):
            if i != r and grid[i][c]:
                k = grid[i][c]
                grid[i] = [f.sub(x, f.mul(k, y)) for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
    return grid, pivots


def random_gf2_matrix(rng, rows, cols):
    return [[int(x) for x in rng.integers(0, 2, size=cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def test_vec_add_examples():
    a = FieldVector(GF2, [1, 0, 1, 1])
    b = FieldVector(GF2, [0, 0, 1, 1])
    assert (a + b).entries == (1, 0, 0, 0)
    assert a + FieldVector.zeros(GF2, 4) == a
    assert (FieldVector(GF5, (3, 4)) - FieldVector(GF5, (4, 4))).entries == (4, 0)


def test_vec_mismatch_errors():
    with pytest.raises(ValueError):
        FieldVector(GF2, [1, 0]) + FieldVector(GF2, [1, 0, 0])
    with pytest.raises(ValueError):
        FieldVector(GF2, [1, 0]) + FieldVector(GF5, [1, 0])


def test_hamming_weight_examples():
    assert FieldVector.zeros(GF2, 9).weight() == 0
    assert FieldVector(GF2, [1, 0, 1, 1]).weight() == 3
    v = FieldVector(GF5, (0, 3, 2))
    assert hamming_distance(v, v) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.data())
def test_distance_equals_weight_of_difference(n, data):
    f = data.draw(st.sampled_from([GF2, GF5, field(2, 3)]))
    a = FieldVector(f, data.draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)))
    b = FieldVector(f, data.draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)))
    assert hamming_distance(a, b) == (a - b).weight()


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_mat_vec_examples():
    M = FieldMatrix(GF2, [[1, 1], [0, 1]])
    assert (M @ FieldVector(GF2, [1, 1])).entries == (0, 1)
    I5 = FieldMatrix.identity(GF5, 3)
    v = FieldVector(GF5, (2, 0, 4))
    assert I5 @ v == v
    Z = FieldMatrix.zeros(GF2, 3, 4)
    assert (Z @ FieldVector(GF2, [1, 1, 1, 1])).weight() == 0


def test_mat_mul_dimension_mismatch():
    M = FieldMatrix(GF2, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        M @ FieldVector(GF2, [1, 1, 1])


def test_matvec_matches_reference(rng):
    # small shapes, then products wider than 64 bits and a bch:255:26 H-sized one
    shapes = [tuple(int(x) for x in rng.integers(1, 24, size=2)) for _ in range(50)]
    for r, c in shapes + [(77, 127), (127, 50), (70, 1), (1, 130), (208, 255)]:
        grid = random_gf2_matrix(rng, r, c)
        vec = [int(x) for x in rng.integers(0, 2, size=c)]
        M = FieldMatrix(GF2, grid)
        out = M @ FieldVector(GF2, vec)
        assert list(out.entries) == ref_matvec(grid, vec)


def ref_mat_mul_gf2(left, right):
    """The GF(2) product of packed rows, bit by bit: row i XORs the rows of
    right that the set bits of left row i select."""
    out = []
    for r in left:
        acc = 0
        for j, w in enumerate(right):
            if r >> j & 1:
                acc ^= w
        out.append(acc)
    return out


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.integers(0, 9), st.integers(60, 140)),
       st.one_of(st.integers(0, 17), st.integers(60, 140)),
       st.one_of(st.integers(0, 9), st.integers(60, 140)), st.data())
def test_gf2_mat_mul_matches_bit_loop(rows, inner, cols, data):
    """The numpy product (Four Russians) equals the per-bit loop on empty
    shapes, inner sizes that are not a multiple of 8, and products wider
    than 64 bits (more than one u8 word per row); Python ints come out."""
    left = data.draw(st.lists(st.integers(0, (1 << inner) - 1), min_size=rows, max_size=rows))
    right = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=inner, max_size=inner))
    P = (FieldMatrix(GF2, cols=inner, packed_rows=left)
         @ FieldMatrix(GF2, cols=cols, packed_rows=right))
    assert (P.rows, P.cols) == (rows, cols)
    assert list(P.packed_rows) == ref_mat_mul_gf2(left, right)
    assert all(type(w) is int for w in P.packed_rows)


def test_gf2_mat_mul_at_length_255(rng):
    """255 x 255 times 255 x 128, the products a bch:255:26 pair's read-off
    takes, and dense all-ones rows."""
    for fill in ("random", "ones"):
        if fill == "ones":
            left, right = [(1 << 255) - 1] * 255, [(1 << 128) - 1] * 255
        else:
            left = [FieldVector(GF2, row).bits for row in random_gf2_matrix(rng, 255, 255)]
            right = [FieldVector(GF2, row).bits for row in random_gf2_matrix(rng, 255, 128)]
        P = FieldMatrix(GF2, cols=255, packed_rows=left) @ FieldMatrix(GF2, cols=128,
                                                                       packed_rows=right)
        assert list(P.packed_rows) == ref_mat_mul_gf2(left, right)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([GF2, GF3, GF32, field(2, 9)]), st.integers(0, 140), st.data())
def test_vector_gathered_picks_entries(f, n, data):
    """v.gathered(index) has entry index[i] of v at i, for any index list
    over the positions of v, repeats and an empty list included."""
    v = FieldVector(f, data.draw(st.lists(_elements(f), min_size=n, max_size=n)))
    index = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 3)) if n else []
    g = v.gathered(index)
    assert (g.field, g.n, g.entries) == (f, len(index), tuple(v.entries[j] for j in index))


def test_matmul_associative_with_vector(rng):
    for f in (GF2, GF5):
        A = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=4)] for _ in range(3)])
        B = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=5)] for _ in range(4)])
        v = random_vector(f, 5, rng)
        assert (A @ B) @ v == A @ (B @ v)


# ---------------------------------------------------------------------------
# rank / kernel / solving
# ---------------------------------------------------------------------------

def test_rank_trivial():
    assert rank(FieldMatrix.identity(GF2, 8)) == 8
    assert rank(FieldMatrix.zeros(GF2, 5, 7)) == 0
    assert rank(FieldMatrix.identity(GF5, 4)) == 4


@pytest.mark.parametrize("rows,cols", [(16, 16), (40, 64), (256, 256)])
def test_rank_equals_transpose_rank(rng, rows, cols):
    masks = [int.from_bytes(rng.bytes((cols + 7) // 8), "little") & ((1 << cols) - 1)
             for _ in range(rows)]
    M = FieldMatrix(GF2, cols=cols, packed_rows=masks)
    assert rank(M) == rank(M.transpose())


def _rref_from_null_space(red):
    """The reduced row echelon form of M, as packed words in pivot order,
    read off pivot_cols and null_space: the null-space column of free
    column j is 1 at j, 0 at the other free columns and, at each pivot
    column, minus the RREF's entry in column j of that pivot's row."""
    f = red.field
    free = [j for j in range(red.cols) if j not in red.pivot_cols]
    kernel = red.null_space().transpose().to_grid()  # one row per free column
    rows = []
    for c in red.pivot_cols:
        row = [0] * red.cols
        row[c] = 1
        for j, v in zip(free, kernel):
            row[j] = f.neg(v[c])
        rows.append(FieldVector(f, row).packed)
    return rows


def test_rref_matches_naive_reference(rng):
    """Pivots, the RREF read off null_space and the left kernel against
    column-order Gauss-Jordan."""
    for _ in range(40):
        r, c = (int(x) for x in rng.integers(1, 20, size=2))
        grid = random_gf2_matrix(rng, r, c)
        M = FieldMatrix(GF2, grid)
        red = RowReduction(M)
        work = _rref_from_null_space(red) + [0] * (r - red.rank)
        ref_grid, ref_pivots = ref_rref(grid)
        assert red.pivot_cols == ref_pivots
        unpacked = [[(m >> j) & 1 for j in range(c)] for m in work]
        assert unpacked == ref_grid
        assert red.left_kernel.to_grid() == ref_solve(GF2, M.transpose().to_grid(), [0] * c)[1]


def test_kernel_trivial():
    assert kernel_basis(FieldMatrix.identity(GF2, 6)).cols == 0
    K = kernel_basis(FieldMatrix.zeros(GF2, 2, 2))
    assert K.cols == 2


@pytest.mark.parametrize("f", [GF2, GF5])
def test_kernel_properties(rng, f):
    for _ in range(25):
        r, c = (int(x) for x in rng.integers(2, 14, size=2))
        M = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=c)] for _ in range(r)])
        K = kernel_basis(M)
        assert K.cols == c - rank(M)
        for j in range(K.cols):
            assert (M @ K.transpose().row(j)).weight() == 0
        if K.cols:
            assert rank(K) == K.cols  # columns linearly independent


def test_solve_identity():
    y = FieldVector(GF2, [1, 0, 1])
    sols = solve_affine(FieldMatrix.identity(GF2, 3), y)
    assert sols.particular == y and sols.count == 1


@pytest.mark.parametrize("f", [GF2, GF5])
def test_solve_enumerates_all_solutions(rng, f):
    for _ in range(20):
        r, c = (int(x) for x in rng.integers(2, 9, size=2))
        M = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=c)] for _ in range(r)])
        y = M @ random_vector(f, c, rng)
        sols = solve_affine(M, y)
        assert sols.count == f.q ** (c - rank(M))
        seen = set()
        for x in sols:
            assert M @ x == y
            seen.add(x)
        assert len(seen) == sols.count


@pytest.mark.parametrize("f", [GF2, GF3, field(2, 2), field(3, 2)])
def test_coset_walk_follows_digit_order(rng, f):
    """The stepping walk of AffineSolutions lists solution i as the
    particular solution plus the kernel columns weighted by the base-q
    digits of i, least significant first.  Over GF(4) and GF(9) a step is
    not a plain addition of the column."""
    for d in (0, 1, 2, 3):
        n = d + 3
        x = random_vector(f, n, rng)
        cols = [random_vector(f, n, rng) for _ in range(d)]
        K = (FieldMatrix(f, [list(v.entries) for v in cols]).transpose() if d
             else FieldMatrix.zeros(f, n, 0))
        expected = []
        for i in range(f.q ** d):
            v = x
            for col in cols:
                i, c = divmod(i, f.q)
                v = v + col.scale(c)
            expected.append(v)
        assert list(AffineSolutions(x, K)) == expected


def test_solve_inconsistent():
    M = FieldMatrix(GF2, [[1, 0], [1, 0]])
    with pytest.raises(NoSolutionError):
        solve_affine(M, FieldVector(GF2, [1, 0]))


@pytest.mark.parametrize("f", [GF2, GF5, GF32])
def test_invert_round_trip(rng, f):
    ident = FieldMatrix.identity(f, 6)
    assert invert(ident) == ident
    for _ in range(15):
        while True:
            M = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=6)] for _ in range(6)])
            if rank(M) == 6:
                break
        assert invert(M) @ M == ident


@pytest.mark.parametrize("f", [GF2, GF5])
@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (1, 1), (5, 9), (28, 127)])
def test_transpose(rng, f, rows, cols):
    grid = [[int(x) for x in rng.integers(0, f.q, size=cols)] for _ in range(rows)]
    T = FieldMatrix(f, grid, cols=cols).transpose()
    assert (T.rows, T.cols) == (cols, rows)
    assert T.to_grid() == [[row[j] for row in grid] for j in range(cols)]


def ref_transpose_gf2(rows, cols, words):
    """The GF(2) transpose through the rows' binary strings, entry by entry:
    column j reads character j from the right of every row's string."""
    strings = [format(w, f"0{cols}b") for w in reversed(words)]
    return [int("".join(col), 2) for col in zip(*strings)][::-1] if rows and cols else [0] * cols


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(0, 9), st.integers(60, 140)),
       st.one_of(st.integers(0, 17), st.integers(60, 130)), st.data())
def test_gf2_transpose_matches_string_reference(rows, cols, data):
    """The numpy bit transpose equals the string one on shapes with 0 and 1
    rows or columns, columns not a multiple of 8, and more than 64 rows
    (a column of more than 8 bytes), and returns Python ints."""
    words = data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    T = FieldMatrix(GF2, cols=cols, packed_rows=words).transpose()
    assert (T.rows, T.cols) == (cols, rows)
    assert list(T.packed_rows) == ref_transpose_gf2(rows, cols, words)
    assert all(type(w) is int for w in T.packed_rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF2, GF32, GF3]), st.integers(0, 5), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_derived_reversed_rows_match_fresh_reversal(f, rows, k1, k2, data):
    """The reversed rows that permuted_rows and concat_cols derive from
    their operands' kept ones, also nested, equal a fresh _reversed of each
    row, and the reduction that reads them equals one of a matrix that
    keeps nothing."""
    A = FieldMatrix(f, _grid(data.draw, f, rows, k1), cols=k1)
    B = FieldMatrix(f, _grid(data.draw, f, rows, k2), cols=k2)
    A.reversed_rows()
    B.reversed_rows()
    p1, p2 = (data.draw(st.permutations(range(rows))) for _ in range(2))
    PA, PB = permuted_rows(A, p1), permuted_rows(B, p2)
    for D in (PA, concat_cols(A, B), concat_cols(PA, PB), concat_cols(concat_cols(PA, B), PA),
              permuted_rows(concat_cols(PB, A), p1)):
        assert D._rev == [linalg._reversed(f, r, D.cols) for r in D.packed_rows]
        fresh = FieldMatrix(f, D.to_grid(), cols=D.cols)
        assert _reduction_fields(D.reduction()) == _reduction_fields(RowReduction(fresh))


def test_invert_permutation_is_transpose(rng):
    perm = [int(i) for i in rng.permutation(7)]
    P = FieldMatrix(GF2, cols=7, packed_rows=[1 << p for p in perm])
    assert invert(P) == P.transpose()


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert(FieldMatrix.zeros(GF2, 3, 3))
    with pytest.raises(SingularMatrixError):
        invert(FieldMatrix.zeros(GF2, 2, 3))


# ---------------------------------------------------------------------------
# one-pass reduction of [G~ | I]
# ---------------------------------------------------------------------------

def ref_solve(f, grid, y):
    """Particular solution (free variables 0) and null-space columns of
    M x = y by column-order Gauss-Jordan on [M | y], entry by entry;
    None when y is outside the column space."""
    cols = len(grid[0])
    aug = [list(row) + [ye] for row, ye in zip(grid, y)]
    pivots = []
    for c in range(cols + 1):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if sel is None:
            continue
        if c == cols:
            return None
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = f.inv(aug[r][c])
        aug[r] = [f.mul(inv, e) for e in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                x = aug[i][c]
                aug[i] = [f.sub(e, f.mul(x, pe)) for e, pe in zip(aug[i], aug[r])]
        pivots.append(c)
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    kernel = []
    for fc in (j for j in range(cols) if j not in pivots):
        v = [0] * cols
        v[fc] = 1
        for i, c in enumerate(pivots):
            v[c] = f.neg(aug[i][fc])
        kernel.append(v)
    return x, kernel


@st.composite
def gtilde(draw):
    """(G1 | G2) over GF(2), GF(3) or GF(32); G2 = G1 gives rank deficiency."""
    f = draw(st.sampled_from([GF2, GF3, GF32]))
    n = draw(st.integers(1, 9))
    k1 = draw(st.integers(1, 5))
    entries = st.integers(0, f.q - 1)
    G1 = draw(st.lists(st.lists(entries, min_size=k1, max_size=k1), min_size=n, max_size=n))
    if draw(st.booleans()):
        G2 = G1
    else:
        k2 = draw(st.integers(1, 5))
        G2 = draw(st.lists(st.lists(entries, min_size=k2, max_size=k2), min_size=n, max_size=n))
    return concat_cols(FieldMatrix(f, G1), FieldMatrix(f, G2))


@settings(max_examples=150, deadline=None)
@given(gtilde(), st.data())
def test_row_reduction_annihilator_and_solver(Gt, data):
    f, n = Gt.field, Gt.rows
    red = RowReduction(Gt)
    Ht = red.left_kernel
    assert (Ht.rows, Ht.cols) == (n - rank(Gt), n)
    assert rank(Ht) == Ht.rows
    assert all(v == 0 for row in (Ht @ Gt).to_grid() for v in row)
    kernel = red.null_space()
    for _ in range(4):
        x = FieldVector(f, data.draw(st.lists(st.integers(0, f.q - 1),
                                              min_size=Gt.cols, max_size=Gt.cols)))
        y = Gt @ x
        particular = red.particular(y)
        sols = solve_affine(Gt, y)
        assert (particular, kernel) == (sols.particular, sols.kernel)
        ref_x, ref_kernel = ref_solve(f, Gt.to_grid(), list(y.entries))
        assert list(particular.entries) == ref_x
        assert [list(kernel.transpose().row(j).entries) for j in range(kernel.cols)] == ref_kernel
    if Ht.rows:
        y = FieldVector(f, [1 if i == n - 1 else 0 for i in range(n)])
        while ref_solve(f, Gt.to_grid(), list(y.entries)) is not None:
            y = FieldVector(f, data.draw(st.lists(st.integers(0, f.q - 1),
                                                  min_size=n, max_size=n)))
        with pytest.raises(NoSolutionError):
            red.particular(y)


def seeded_matrices(seed):
    """Random matrices over GF(2), GF(3) and GF(32), each followed by the
    rank-deficient (A | A) built from its left half."""
    rng = np.random.default_rng(seed)
    for f in (GF2, GF3, GF32):
        for rows, cols in ((6, 6), (9, 14), (14, 9), (20, 32), (32, 20)):
            grid = [[int(x) for x in rng.integers(0, f.q, size=cols)] for _ in range(rows)]
            yield FieldMatrix(f, grid)
            yield FieldMatrix(f, [row[: cols // 2] * 2 for row in grid])


def seeded_invertibles(seed):
    rng = np.random.default_rng(seed)
    for f in (GF2, GF3, GF32):
        for n in (1, 6, 12, 12):
            while True:
                M = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=n)]
                                    for _ in range(n)])
                if rank(M) == n:
                    yield M
                    break


def matrices_sha256(mats):
    h = hashlib.sha256()
    for M in mats:
        h.update(json.dumps([M.rows, M.cols, M.to_grid()]).encode())
    return h.hexdigest()


# kernel_basis and invert outputs of the column-order RREF implementation
# these routines replaced, on the seeded matrices above
PINNED_KERNELS = {
    1: "4e24a15b5574e941fd200d909f6ed8321b3e8e71fddf4888fc9653278b8cd24a",
    2: "2f7085f2878996cdc4186a32a37a30a6f4991433829842378ea07f65b9e98b48",
    3: "87a0730313fd8d3c4392b45cdadcc51a0d86efcb188d23dc1150ff8ae15cf01a",
}
PINNED_INVERSES = {
    1: "60a59196b64b4def7f7db22a6533fdbc74ca445cbc976ae27f6e0acbce3f89bf",
    2: "b792451accf1933ba265f5415b55fa477d0e2f66db23299e2214f58441c02d6d",
    3: "e10409134e8cda74e4a1a22a3f12518383277d6ea658783e9e60ce594566f915",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_basis_and_invert_pinned(seed):
    assert matrices_sha256(kernel_basis(M) for M in seeded_matrices(seed)) == PINNED_KERNELS[seed]
    assert matrices_sha256(invert(M) for M in seeded_invertibles(seed)) == PINNED_INVERSES[seed]


def _rank_deficient(f, rng, rows, cols, r):
    """A seeded rows x cols matrix over f of rank at most r."""
    A = [[int(x) for x in rng.integers(0, f.q, size=r)] for _ in range(rows)]
    B = [[int(x) for x in rng.integers(0, f.q, size=cols)] for _ in range(r)]
    return FieldMatrix(f, A) @ FieldMatrix(f, B)


# sha256 of every reading of a reduction, recorded before the reduction
# stopped finishing the RREF of its echelon rows
REDUCTION_DIGESTS = {
    "bch:127:13": "454b17c7d56c96078d7e94b645ddc8d07c8b3fd15e237a4c48e47a0e63c71a86",
    "bch:255:26": "46922f4df954c1f63e9c3589bb613374e38cf661f11977957100058807feca26",
    "gf32": "11bc47d2ab0af2fd58874c60d688f4c355db253eaaf346fbf59e17d362827968",
    "gf3": "ac2117c6d401ad18c176793490a9b37f1190114907f7ab645c5e9f187ef454d1",
    "doubled": "1834ee917c358fa92692bcfe4e5a900938b3af4ba54ec2e7daa8831edac88d0b",
}


@pytest.mark.parametrize("case", list(REDUCTION_DIGESTS))
def test_reduction_readings_pinned(case):
    """pivot_cols, left_kernel, the particular solution of a consistent
    right-hand side and null_space on seeded matrices:
    bit-permuted G~ of bch:127:13 and bch:255:26, rank-deficient GF(32)
    and GF(3) matrices, and bch:63:7's G read off as [G | G]."""
    rng = np.random.default_rng(1901)
    if case in ("bch:127:13", "bch:255:26"):
        G = bch_build(*{"bch:127:13": (7, 13), "bch:255:26": (8, 26)}[case]).G
        M = concat_cols(*(permuted_rows(G, [int(i) for i in rng.permutation(G.rows)])
                          for _ in range(2)))
        red = RowReduction(M)
    elif case == "doubled":
        G = bch_build(6, 7).G
        M, red = concat_cols(G, G), RowReduction(G).doubled()
    else:
        M = _rank_deficient(GF32 if case == "gf32" else GF3, rng, 14, 11, 7)
        red = RowReduction(M)
    y = M @ random_vector(M.field, M.cols, rng)
    readings = [red.pivot_cols, red.left_kernel.to_grid(), list(red.particular(y).entries),
                red.null_space().to_grid()]
    digest = hashlib.sha256(json.dumps(readings).encode()).hexdigest()
    assert digest == REDUCTION_DIGESTS[case]


# ---------------------------------------------------------------------------
# packed storage against entrywise FieldSpec arithmetic
# ---------------------------------------------------------------------------

# both slot widths, 8 bits for q <= 256 and 16 above, in characteristic 2
# and odd characteristic
PACKED_FIELDS = [field(2, m) for m in (2, 3, 5, 8, 9, 16)] + [
    GF3, field(3, 2), field(257), field(65521)]


def _slot_entries(f, n, word):
    """The n entries of a packed word, slot by slot: 1 bit over GF(2), 8 bits
    up to q = 256 and 16 bits above."""
    s = 1 if f.q == 2 else 8 if f.q <= 256 else 16
    return [(word >> (s * j)) & ((1 << s) - 1) for j in range(n)]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 100, 127, 255])
@pytest.mark.parametrize("f", [GF2, GF32, field(2, 9), GF3, field(257)], ids=str)
def test_reversed_slot_order(f, n):
    """linalg._reversed moves slot j to slot n - 1 - j at slot widths 1, 8
    and 16: read slot by slot, and through _unpack, it is the word's
    entries reversed, and reversing twice gives the word back."""
    rng = np.random.default_rng(n)
    for word in (0, random_vector(f, n, rng).packed, FieldVector(f, [f.q - 1] * n).packed,
                 FieldVector.from_support(f, n, [0], [1]).packed if n else 0):
        back = linalg._reversed(f, word, n)
        assert _slot_entries(f, n, back) == _slot_entries(f, n, word)[::-1]
        assert linalg._unpack(f, back, n) == linalg._unpack(f, word, n)[::-1]
        assert linalg._reversed(f, back, n) == word


def _elements(f):
    return st.one_of(st.sampled_from([0, 1, f.q - 1]), st.integers(0, f.q - 1))


def _grid(draw, f, rows, cols):
    return draw(st.lists(st.lists(_elements(f), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def packed_operands(draw):
    f = draw(st.sampled_from(PACKED_FIELDS))
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    A, B, C = _grid(draw, f, rows, inner), _grid(draw, f, inner, cols), _grid(draw, f, rows, cols)
    x, y = (draw(st.lists(_elements(f), min_size=inner, max_size=inner)) for _ in range(2))
    return f, cols, A, B, C, x, y, draw(_elements(f)), draw(st.permutations(range(rows)))


@settings(max_examples=150, deadline=None)
@given(packed_operands(), st.data())
def test_packed_arithmetic_matches_entrywise(operands, data):
    f, cols, A, B, C, x, y, c, perm = operands
    rows, inner = len(A), len(x)
    MA, MB, MC = FieldMatrix(f, A, cols=inner), FieldMatrix(f, B, cols=cols), FieldMatrix(f, C, cols=cols)
    vx, vy = FieldVector(f, x), FieldVector(f, y)
    assert vx.bits is None
    assert vx.entries == tuple(x) and [vx[i] for i in range(inner)] == x
    assert _slot_entries(f, inner, vx.packed) == x
    if f.p == 2:
        assert FieldVector(f, n=inner, packed=vx.packed) == vx
        assert (-vx) == vx
    else:
        with pytest.raises(ValueError):
            FieldVector(f, n=inner, packed=vx.packed)
        assert (-vx).entries == tuple(f.neg(a) for a in x)
    assert (vx + vy).entries == tuple(f.add(a, b) for a, b in zip(x, y))
    assert (vx - vy).entries == tuple(f.sub(a, b) for a, b in zip(x, y))
    assert vx.scale(c).entries == tuple(f.mul(c, a) for a in x)
    ar = linalg.word_arithmetic(f, inner)
    dot = 0
    for xi, yi in zip(x, y):
        dot = f.add(dot, f.mul(xi, yi))
    assert ar.dot(ar.x_powers(vx.packed) if f.p == 2 else vx.packed, vy.packed) == dot
    assert vx.weight() == sum(1 for a in x if a)
    lo = data.draw(st.integers(0, inner))
    hi = data.draw(st.integers(lo, inner))
    assert vx[lo:hi].entries == tuple(x[lo:hi])
    assert MA.row_entries == tuple(tuple(r) for r in A)
    assert [MA.row(i).entries for i in range(rows)] == [tuple(r) for r in A]
    ref_mv = []
    for row in A:
        acc = 0
        for a, e in zip(row, x):
            acc = f.add(acc, f.mul(a, e))
        ref_mv.append(acc)
    assert (MA @ vx).entries == tuple(ref_mv)
    ref_mm = []
    for row in A:
        out = [0] * MB.cols
        for a, brow in zip(row, B):
            out = [f.add(o, f.mul(a, e)) for o, e in zip(out, brow)]
        ref_mm.append(out)
    assert (MA @ MB).to_grid() == ref_mm
    assert MA.transpose().to_grid() == [[row[j] for row in A] for j in range(inner)]
    assert concat_cols(MA, MC).to_grid() == [a + b for a, b in zip(A, C)]
    assert permuted_rows(MA, perm).to_grid() == [A[j] for j in perm]
    assert MA.scale(c).to_grid() == [[f.mul(c, e) for e in row] for row in A]
    _assert_row_multiples_and_scalars(f, MA, A, c)


def _assert_row_multiples_and_scalars(f, MA, A, c):
    """row_multiples and row_scalars of MA (rows A) against entrywise
    FieldSpec products, compared as packed words."""
    def word(entries):
        return FieldVector(f, entries).packed

    multiples = MA.row_multiples()
    assert len(multiples) == len(A)
    for row, mult in zip(A, multiples):
        assert len(mult) == f.q
        for v in {0, 1, c, f.q - 1}:
            assert mult[v] == word([f.mul(v, e) for e in row])
    if A:
        target = [f.mul(c, e) for e in A[0]]
        pairs = MA.row_scalars(FieldVector(f, target))
        assert pairs == sorted(pairs)
        assert all([f.mul(k, e) for e in A[j]] == target for j, k in pairs)
        assert (0, c) in pairs or not (c and any(A[0]))
        if f.q <= 512:
            assert pairs == [(j, k) for j in range(len(A)) for k in range(1, f.q)
                             if [f.mul(k, e) for e in A[j]] == target]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([GF3, GF5, field(3, 2)]), st.data())
def test_dense_row_multiples_and_scalars_match_entrywise(f, data):
    """The odd-characteristic branches, on rows with zero and scaled copies."""
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    A = _grid(data.draw, f, rows, cols)
    if rows and data.draw(st.booleans()):  # a scaled copy of row 0 repeats its scalars
        A.append([f.mul(data.draw(_elements(f)), e) for e in A[0]])
    _assert_row_multiples_and_scalars(f, FieldMatrix(f, A, cols=cols), A, data.draw(_elements(f)))


@st.composite
def packed_systems(draw, fields=PACKED_FIELDS):
    f = draw(st.sampled_from(fields))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    grid = _grid(draw, f, rows, cols)
    if draw(st.booleans()):  # repeat rows, possibly scaled, for rank deficiency
        grid += [[f.mul(draw(_elements(f)), e) for e in grid[0]]]
    return f, grid


@settings(max_examples=150, deadline=None)
@given(packed_systems([GF2] + PACKED_FIELDS), st.data())
def test_packed_row_reduction_matches_reference(system, data):
    """Pivots, and the RREF read off null_space, equal column-order
    Gauss-Jordan.  ``left_kernel`` is pinned down by insertion order: the
    left-kernel row of a row a that did not raise the rank when inserted
    is 1 at a and 0 at every later or dependent row."""
    f, grid = system
    rows, cols = len(grid), len(grid[0])
    M = FieldMatrix(f, grid)
    red = RowReduction(M)
    rref, pivots = ref_rref(grid, f)
    assert red.pivot_cols == pivots
    assert [_slot_entries(f, cols, r) for r in _rref_from_null_space(red)] == rref[:len(pivots)]
    ranks = [len(ref_rref(grid[:i + 1], f)[1]) for i in range(rows)]
    raised = [i for i in range(rows) if ranks[i] > (ranks[i - 1] if i else 0)]
    dependent = [i for i in range(rows) if i not in raised]
    assert red.left_kernel.rows == len(dependent)
    for a, h in zip(dependent, red.left_kernel.to_grid()):
        assert h[a] == 1
        assert all(h[i] == 0 for i in range(rows) if i > a or (i in dependent and i != a))
    assert all(v == 0 for row in (red.left_kernel @ M).to_grid() for v in row)
    x = data.draw(st.lists(_elements(f), min_size=cols, max_size=cols))
    y = M @ FieldVector(f, x)
    ref_x, ref_kernel = ref_solve(f, grid, list(y.entries))
    assert list(red.particular(y).entries) == ref_x
    kernel = red.null_space()
    assert [list(kernel.transpose().row(j).entries) for j in range(kernel.cols)] == ref_kernel


@pytest.mark.parametrize("pair", ["independent", "near", "equal"])
@pytest.mark.parametrize("m, t", [(6, 7), (7, 13)])
def test_attack_sized_reduction_matches_reference(m, t, pair):
    """The reduction of (G1 | G2), two row-permuted generators of bch:63:7
    or bch:127:13, against entry-by-entry Gauss-Jordan.  The second
    permutation is independent of the first (full column rank), the first
    with its first three entries rotated (a few dependent columns) or the
    first itself (rank k).  The left kernel is the kernel of the transpose, whose free
    columns are the rows that did not raise the rank."""
    rng = np.random.default_rng(100 * m + t)
    G = bch_build(m, t).G
    n = G.rows
    perm1 = [int(i) for i in rng.permutation(n)]
    perm2 = {"independent": [int(i) for i in rng.permutation(n)],
             "near": perm1[1:3] + perm1[:1] + perm1[3:],
             "equal": perm1}[pair]
    Gt = concat_cols(permuted_rows(G, perm1), permuted_rows(G, perm2))
    grid = Gt.to_grid()
    red = RowReduction(Gt)
    assert red.pivot_cols == ref_rref(grid)[1]
    assert red.left_kernel.to_grid() == ref_solve(GF2, Gt.transpose().to_grid(), [0] * Gt.cols)[1]
    for _ in range(3):
        y = Gt @ random_vector(GF2, Gt.cols, rng)
        ref_x, ref_kernel = ref_solve(GF2, grid, list(y.entries))
        assert list(red.particular(y).entries) == ref_x
    kernel = red.null_space()
    assert kernel.transpose().to_grid() == ref_kernel
    assert kernel.cols or pair == "independent"
    y = random_vector(GF2, n, rng)
    while ref_solve(GF2, grid, list(y.entries)) is not None:
        y = random_vector(GF2, n, rng)
    with pytest.raises(NoSolutionError):
        red.particular(y)


def _reduction_fields(red):
    return (red.field, red.cols, red.pivot_cols, red._rows, red.left_kernel)


@settings(max_examples=120, deadline=None)
@given(packed_systems([GF2] + PACKED_FIELDS), st.data())
def test_doubled_reduction_matches_full_reduction(system, data):
    """RowReduction(M).doubled() against the elimination of [M | M] it
    stands in for, on rank-deficient M too: the same pivots, echelon rows
    and left kernel, null space and particular solutions."""
    f, grid = system
    rows = len(grid)
    M = FieldMatrix(f, grid)
    red = RowReduction(M)
    derived = red.doubled()
    wide = concat_cols(M, M)
    full = RowReduction(wide)
    assert _reduction_fields(derived) == _reduction_fields(full)
    assert derived.rank == full.rank
    assert derived.left_kernel is red.left_kernel and derived.pivot_cols is red.pivot_cols
    assert derived.null_space() == full.null_space()
    x = data.draw(st.lists(_elements(f), min_size=wide.cols, max_size=wide.cols))
    y = wide @ FieldVector(f, x)
    assert derived.particular(y) == full.particular(y)
    # an arbitrary right-hand side: the same solution, or refused by both
    y = FieldVector(f, data.draw(st.lists(_elements(f), min_size=rows, max_size=rows)))
    try:
        expected = full.particular(y)
    except NoSolutionError:
        with pytest.raises(NoSolutionError):
            derived.particular(y)
    else:
        assert derived.particular(y) == expected


@st.composite
def row_map_pairs(draw):
    """A matrix over GF(2), GF(3) or GF(32), with a repeated row in some
    draws, and two row index maps for doubled(): both None, one None, equal,
    near-equal (the first with two entries swapped: [M1 | M2] loses rank,
    so a hit has a coset larger than one solution) or independent."""
    f = draw(st.sampled_from([GF2, GF3, GF32]))
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    grid = _grid(draw, f, rows, cols)
    if draw(st.booleans()):  # repeat a row, possibly scaled, for rank deficiency
        grid += [[f.mul(draw(_elements(f)), e) for e in grid[0]]]
    p1, p2 = (draw(st.permutations(range(len(grid)))) for _ in range(2))
    near = list(p1)
    if len(near) > 1:
        i, j = draw(st.lists(st.integers(0, len(near) - 1), min_size=2, max_size=2,
                             unique=True))
        near[i], near[j] = near[j], near[i]
    maps = draw(st.sampled_from([(None, None), (None, p2), (p1, None), (p1, p1), (p1, near),
                                 (p1, p2)]))
    return FieldMatrix(f, grid), maps


@settings(max_examples=200, deadline=None)
@given(row_map_pairs(), st.data())
def test_pair_readoff_matches_full_reduction(system, data):
    """RowReduction(M).doubled(first, second) against RowReduction of
    [M1 | M2], the rows of M picked by each map: the same rank, pivot
    columns, null space and particular solutions, and the same refusals of
    a right-hand side outside the column space.  The left kernel may have
    another basis, so it is checked for what it must be: as many rows, each
    annihilating [M1 | M2], and of full rank."""
    M, (first, second) = system
    f, rows = M.field, M.rows
    wide = concat_cols(*(M if p is None else permuted_rows(M, p) for p in (first, second)))
    full = RowReduction(wide)
    derived = RowReduction(M).doubled(first, second)
    if f.q > 2 and first != second:  # reduced afresh
        assert _reduction_fields(derived) == _reduction_fields(full)
    assert (derived.field, derived.cols, derived.rank) == (f, full.cols, full.rank)
    assert derived.pivot_cols == full.pivot_cols
    assert derived.null_space() == full.null_space()
    K = derived.left_kernel
    assert (K.rows, K.cols) == (full.left_kernel.rows, rows)
    assert K @ wide == FieldMatrix.zeros(f, K.rows, wide.cols)
    assert rank(K) == K.rows
    x = data.draw(st.lists(_elements(f), min_size=wide.cols, max_size=wide.cols))
    y = wide @ FieldVector(f, x)
    assert derived.particular(y) == full.particular(y)
    y = FieldVector(f, data.draw(st.lists(_elements(f), min_size=rows, max_size=rows)))
    try:
        expected = full.particular(y)
    except NoSolutionError:
        with pytest.raises(NoSolutionError):
            derived.particular(y)
    else:
        assert derived.particular(y) == expected


@pytest.mark.parametrize("pair", ["independent", "near", "equal"])
def test_pair_readoff_matches_full_reduction_on_bch(pair):
    """The read-off on bch:63:7's G against the full reduction of the pair:
    independent maps (full rank 2k - 1, a shared all-ones word), the first
    with its first three entries rotated (a few more dependent columns) and
    one map twice (rank k)."""
    rng = np.random.default_rng(6307)
    G = bch_build(6, 7).G
    n = G.rows
    p1 = [int(i) for i in rng.permutation(n)]
    p2 = {"independent": [int(i) for i in rng.permutation(n)],
          "near": p1[1:3] + p1[:1] + p1[3:], "equal": p1}[pair]
    wide = concat_cols(permuted_rows(G, p1), permuted_rows(G, p2))
    full = RowReduction(wide)
    derived = G.reduction().doubled(p1, p2)
    assert (derived.rank, derived.pivot_cols) == (full.rank, full.pivot_cols)
    assert derived.null_space() == full.null_space()
    assert derived.left_kernel.rows == n - full.rank
    assert derived.left_kernel @ wide == FieldMatrix.zeros(GF2, n - full.rank, wide.cols)
    for _ in range(4):
        y = wide @ random_vector(GF2, wide.cols, rng)
        assert derived.particular(y) == full.particular(y)
    y = random_vector(GF2, n, rng)
    while not (full.left_kernel @ y).weight():
        y = random_vector(GF2, n, rng)
    with pytest.raises(NoSolutionError):
        derived.particular(y)


@pytest.mark.parametrize("m,t", [(6, 7), (7, 13)])
def test_kept_reduction_stays_clean_across_pairs(m, t):
    """One kept G.reduction() reads off 20 seeded bit-permuted pairs and
    then the first pair again: each time the rank, pivot columns, null
    space and a particular solution equal those of a fresh reduction of
    the pair, so nothing the reduction keeps for its products is changed
    by a pair; the left kernel keeps the transpose of its rows."""
    rng = np.random.default_rng(2800 + m)
    G = bch_build(m, t).G
    n, red = G.rows, G.reduction()
    pairs = [tuple([int(i) for i in rng.permutation(n)] for _ in range(2)) for _ in range(20)]
    for p1, p2 in pairs + pairs[:1]:
        wide = concat_cols(permuted_rows(G, p1), permuted_rows(G, p2))
        full = RowReduction(wide)
        derived = red.doubled(p1, p2)
        assert (derived.rank, derived.pivot_cols) == (full.rank, full.pivot_cols)
        assert derived.null_space() == full.null_space()
        y = wide @ random_vector(GF2, wide.cols, rng)
        assert derived.particular(y) == full.particular(y)
        K = derived.left_kernel
        rebuilt = FieldMatrix(GF2, cols=K.cols, packed_rows=K.packed_rows)
        assert K.transpose() == rebuilt.transpose() and K.transpose().transpose() is K
        assert K @ wide == FieldMatrix.zeros(GF2, K.rows, wide.cols)
    assert red is G.reduction()


def test_pair_readoff_refuses_maps_of_another_length():
    red = FieldMatrix.identity(GF2, 4).reduction()
    for maps in (([0, 1, 2], None), (None, [0, 1, 2, 3, 4])):
        with pytest.raises(ValueError, match="index map length"):
            red.doubled(*maps)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([GF2] + PACKED_FIELDS), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matrices_keep_their_transpose_and_row_multiples(f, rows, cols, data):
    """transpose(), row_multiples(), multiples_table(), reversed_rows() and
    reduction() equal a fresh computation, a second call returns the same
    object, a transpose's transpose is the matrix itself, and every
    constructor starts with nothing kept, also after its operand has filled
    its own; only permuted_rows and concat_cols keep reversed rows from the
    start, when their operands keep theirs.  Row multiples and their table
    are compared for q <= 512 only (q words per row)."""
    M = FieldMatrix(f, _grid(data.draw, f, rows, cols), cols=cols)
    c = data.draw(st.integers(1, f.q - 1))
    perm = data.draw(st.permutations(range(rows)))
    built, derived = [M], []
    for make, derives in ((lambda: M.scale(c), False), (lambda: permuted_rows(M, perm), True),
                          (lambda: concat_cols(M, M.scale(c)), f.q == 2),  # M.scale(1) is M
                          (lambda: concat_cols(M, M), True),
                          (lambda: FieldMatrix.identity(f, cols), False),
                          (lambda: FieldMatrix.zeros(f, rows, cols), False)):
        M.transpose()
        M.reduction()  # fills M's reversed rows too
        assert M._rev is not None
        if f.q <= 512:
            M.row_multiples()
            M.multiples_table()
        built.append(make())
        derived.append(derives)
    for A, derives in zip(built[1:], derived):
        if A is not M:  # over GF(2), M.scale(1) is M
            assert A._transposed is None and A._multiples is None and A._reduced is None
            assert A._table is None
            assert (A._rev is not None) == derives
    for A in built:
        grid = A.to_grid()
        T = A.transpose()
        assert (T.rows, T.cols) == (A.cols, A.rows)
        assert T.to_grid() == [[row[j] for row in grid] for j in range(A.cols)]
        assert A.transpose() is T and T.transpose() is A
        rev = A.reversed_rows()
        assert rev == [linalg._reversed(f, r, A.cols) for r in A.packed_rows]
        assert A.reversed_rows() is rev
        red = A.reduction()
        assert _reduction_fields(red) == _reduction_fields(RowReduction(A))
        assert A.reduction() is red
        if f.q <= 512:
            multiples = A.row_multiples()
            assert multiples == [[FieldVector(f, [f.mul(v, e) for e in row]).packed
                                  for v in range(f.q)] for row in grid]
            assert A.row_multiples() is multiples
            # -v*row j for v != 0 lists entry j*(q - 1) + v - 1; a key
            # without repeats maps to its one index
            entries = {}
            for i, (row, v) in enumerate(product(grid, range(1, f.q))):
                key = FieldVector(f, [f.mul(f.neg(v), e) for e in row]).packed
                entries.setdefault(key, []).append(i)
            table = A.multiples_table()
            repeats = any(len(lst) > 1 for lst in entries.values())
            assert table == (entries if repeats else {k: i for k, (i,) in entries.items()})
            assert A.multiples_table() is table


@pytest.mark.parametrize("m", [1, 3, 9])
def test_packed_words_are_checked_once(m):
    f = field(2, m)
    s = 1 if m == 1 else 8 if m <= 8 else 16
    good = [0, 1 << (2 * s), 1 | (1 << s)]
    assert FieldMatrix(f, cols=3, packed_rows=good).to_grid() == [[0, 0, 0], [0, 0, 1], [1, 1, 0]]
    bad = [1 << (3 * s), -1]  # a bit beyond cols, a negative word
    if m > 1:
        bad += [1 << m, 1 << (s + m)]  # a slot bit at or above m
    for word in bad:
        with pytest.raises(ValueError):
            FieldMatrix(f, cols=3, packed_rows=[0, word])
        with pytest.raises(ValueError):
            FieldVector(f, n=3, packed=word)
    with pytest.raises(ValueError):
        FieldVector(GF5, n=1, packed=1)
    with pytest.raises(ValueError):
        FieldVector(f, [0, f.q])


@pytest.mark.parametrize("p, m, words, transposed, pivot_rows, left_kernel", [
    (2, 8, [0x200ff01, 0xff0100fe, 0xfd01ffff], [0xfffe01, 0xff00ff, 0x10100, 0xfdff02],
     [0x7f7e0001, 0x99830100], [0x10101]),
    (2, 9, [0x2000001ff0001, 0x1ff0001000001fe, 0x1fd000101ff01ff],
     [0x1ff01fe0001, 0x1ff000001ff, 0x100010000, 0x1fd01ff0002],
     [0x4e004f00000001, 0x89002c00010000], [0x100010001]),
    (251, 1, [0x200fa01, 0xfa0100f9, 0x101fafa], [0xfaf901, 0xfa00fa, 0x10100, 0x1fa02],
     [0x7e7d0001, 0x7c7d0100], [0x1fafa]),
    (257, 1, [0x2000001000001, 0x1000001000000ff, 0x1000101000100],
     [0x10000ff0001, 0x10000000100, 0x100010000, 0x101000002],
     [0x81008000000001, 0x7f008000010000], [0x101000100]),
])
def test_slot_boundaries_pinned(p, m, words, transposed, pivot_rows, left_kernel):
    """Rows (1, q-1, 0, 2), (q-2, 0, 1, q-1) and their sum on either side of
    the 8/16-bit slot boundary (q = 256 | 512, 251 | 257).  The pinned RREF
    rows are read off null_space."""
    f = field(p, m)
    q = f.q
    r0, r1 = [1, q - 1, 0, 2], [q - 2, 0, 1, q - 1]
    M = FieldMatrix(f, [r0, r1, [f.add(a, b) for a, b in zip(r0, r1)]])
    assert list(M.packed_rows) == words
    assert list(M.transpose().packed_rows) == transposed
    red = RowReduction(M)
    assert (red.pivot_cols, _rref_from_null_space(red)) == ([0, 1], pivot_rows)
    assert list(red.left_kernel.packed_rows) == left_kernel


@pytest.mark.parametrize("f", [GF2, GF32, GF3])
def test_one_matrix_is_eliminated_once(f, monkeypatch):
    """rank, kernel_basis, solve_affine (one consistent and one
    inconsistent right-hand side) and invert of one matrix read the one
    reduction of [M | I] that the matrix keeps; so does invert of a
    full-rank matrix, which back-substitutes over it."""
    calls = []

    def counted(*args, _reduce=linalg._reduce):
        calls.append(args)
        return _reduce(*args)
    monkeypatch.setattr(linalg, "_reduce", counted)
    r0, r1 = [1, f.q - 1, 0], [0, 1, 1]
    M = FieldMatrix(f, [r0, r1, [f.add(a, b) for a, b in zip(r0, r1)]])
    assert rank(M) == 2
    red = M._reduced
    assert red is not None
    K = kernel_basis(M)
    assert K.cols == 1 and M @ K == FieldMatrix.zeros(f, 3, 1)
    y = M @ FieldVector(f, [1, 0, 1])
    sols = solve_affine(M, y)
    assert M @ sols.particular == y and sols.kernel == K
    with pytest.raises(NoSolutionError):
        solve_affine(M, FieldVector(f, [0, 0, 1]))  # y2 != y0 + y1
    with pytest.raises(SingularMatrixError):
        invert(M)
    assert len(calls) == 1
    assert M._reduced is red
    N = FieldMatrix(f, [r0, r1, [0, 0, 1]])
    assert rank(N) == 3
    kept = N._reduced
    inverse = invert(N)
    ident = FieldMatrix.identity(f, 3)
    assert inverse @ N == ident and N @ inverse == ident
    assert len(calls) == 2
    assert N._reduced is kept


# ---------------------------------------------------------------------------
# concatenation / permutation helpers
# ---------------------------------------------------------------------------

def test_concat_identity_blocks():
    I2 = FieldMatrix.identity(GF2, 2)
    C = concat_cols(I2, I2)
    assert (C.rows, C.cols) == (2, 4)
    assert C.to_grid() == [[1, 0, 1, 0], [0, 1, 0, 1]]


@pytest.mark.parametrize("f", [GF2, GF5])
def test_concat_evaluates_blockwise(rng, f):
    n, k1, k2 = 6, 3, 4
    G1 = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=k1)] for _ in range(n)])
    G2 = FieldMatrix(f, [[int(x) for x in rng.integers(0, f.q, size=k2)] for _ in range(n)])
    m1 = random_vector(f, k1, rng)
    m2 = random_vector(f, k2, rng)
    stacked = FieldVector(f, list(m1.entries) + [f.neg(e) for e in m2.entries])
    lhs = concat_cols(G1, G2) @ stacked
    rhs = (G1 @ m1) - (G2 @ m2)
    assert lhs == rhs


def test_permuted_rows(rng):
    M = FieldMatrix(GF2, random_gf2_matrix(rng, 5, 3))
    order = [int(i) for i in rng.permutation(5)]
    P = permuted_rows(M, order)
    for i, j in enumerate(order):
        assert P.row(i) == M.row(j)


@pytest.mark.parametrize("f", [GF2, field(2, 2), GF3])
def test_zero_row_matrices_keep_their_width(f):
    A, B = FieldMatrix.zeros(f, 0, 3), FieldMatrix.zeros(f, 0, 2)
    assert (concat_cols(A, B).rows, concat_cols(A, B).cols) == (0, 5)
    assert (permuted_rows(A, []).rows, permuted_rows(A, []).cols) == (0, 3)


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

def test_random_weight_vector_basics(rng):
    assert random_weight_vector(GF2, 12, 0, rng).weight() == 0
    for w in (1, 4, 12):
        for _ in range(40):
            assert random_weight_vector(GF2, 12, w, rng).weight() == w
    for _ in range(40):
        v = random_weight_vector(GF5, 9, 3, rng)
        assert v.weight() == 3
    with pytest.raises(ValueError):
        random_weight_vector(GF2, 5, 6, rng)


def test_random_weight_vector_coordinate_frequency(rng):
    # per-coordinate one-bit frequency for n=31, w=4 is exactly 4/31
    n, w, draws = 31, 4, 100_000
    counts = np.zeros(n, dtype=int)
    for _ in range(draws):
        bits = random_weight_vector(GF2, n, w, rng).bits
        idx = []
        while bits:
            idx.append((bits & -bits).bit_length() - 1)
            bits &= bits - 1
        counts[idx] += 1
    freq = counts / draws
    expected = w / n
    sigma = np.sqrt(expected * (1 - expected) / draws)
    assert np.all(np.abs(freq - expected) < 5 * sigma)


@pytest.mark.parametrize("p, m, n, w, words", [
    (3, 1, 10, 4, (0x2020102020102, 0x20001000000000102, 0x1010101020002000100)),
    (2, 5, 12, 5, (0x1b090901071a18121c15141e, 0x8001700000900000b0a, 0x131619191f101112100f0e1f)),
    (257, 1, 9, 3, (0xe003900d600c7009400e600af00a000f2, 0x2200d30000000000000000008000000000,
                    0x4100b800470057004d00d10078001e00cc)),
])
def test_random_draws_pinned(p, m, n, w, words):
    """random_vector, random_weight_vector and random_vector again from one
    seeded stream, as packed words: the draws, and so every seeded report,
    do not depend on how the words are built."""
    f, rng = field(p, m), np.random.default_rng(7)
    drawn = (random_vector(f, n, rng), random_weight_vector(f, n, w, rng), random_vector(f, n, rng))
    assert tuple(v.packed for v in drawn) == words
    assert drawn[1].weight() == w
    assert all(v == FieldVector(f, v.entries) for v in drawn)


def test_random_vector_field_range(rng):
    v = random_vector(GF5, 200, rng)
    assert all(0 <= e < 5 for e in v.entries)
    assert len(set(v.entries)) == 5  # all symbols appear at this length w.h.p.
