import re

import pytest

from nexakt import quivers
from nexakt.fp import FieldSpec
from nexakt.presets import (gen_auslander_linear_A, gen_linear_An_J2,
                            gen_preprojective_A, nakayama_algebra)
from nexakt.quivers import (AdmissibilityError, BoundError, PathWord, Quiver,
                            QuiverError, Relation, _enumerate_paths,
                            _spot_check_table, build_algebra, opposite_algebra,
                            path_endpoints)
from nexakt.reps import all_projectives, basis_paths

from conftest import (DUALITY_ALGEBRAS, DUALITY_CASES, kronecker_algebra,
                      linear_a3_j2, preprojective_a2, two_loops)


def test_quiver_validation():
    with pytest.raises(QuiverError):
        Quiver.build(["1", "1"], [])
    with pytest.raises(QuiverError):
        Quiver.build(["1"], [("a", "1", "2")])
    with pytest.raises(QuiverError):
        Quiver.build(["1"], [("a", "1", "1"), ("a", "1", "1")])


def test_a3_basis(a3):
    assert a3.dim == 5
    words = sorted(w.arrows for w in a3.basis)
    assert words == [(), (), (), ("a",), ("b",)]
    # J^2 = 0: the product b*a vanishes
    bi = a3.arrow_basis_index("b")
    ai = a3.arrow_basis_index("a")
    assert a3.multiply(bi, ai) == []


def test_one_vertex_algebra():
    q = Quiver.build(["*"], [])
    alg = build_algebra(q, [], 1, FieldSpec(101))
    assert alg.dim == 1


def test_pi2_dimension(pi2):
    assert pi2.dim == 4


def test_admissibility_error_on_short_relation():
    q = Quiver.build(["1", "2"], [("a", "1", "2")])
    with pytest.raises(AdmissibilityError):
        build_algebra(q, [Relation(((1, PathWord(("a",))),))], 2, FieldSpec(101))


def test_bound_error_when_ideal_does_not_kill_paths():
    # loop with no relations: J^2 never vanishes
    q = Quiver.build(["1"], [("x", "1", "1")])
    with pytest.raises(BoundError):
        build_algebra(q, [], 2, FieldSpec(101))


def test_loop_truncated_algebra():
    alg = nakayama_algebra(1, 3, cyclic=True, p=5)
    assert alg.dim == 3  # e, x, x^2 with x = a0


def test_unit_multiplication(a3):
    for i in range(a3.dim):
        ev = a3.vertex_unit(a3.source_of[i])
        ew = a3.vertex_unit(a3.target_of[i])
        assert a3.multiply(ev, i) == [(i, 1)]
        assert a3.multiply(i, ew) == [(i, 1)]


def test_dim_formula(a3, pi2):
    for alg in (a3, pi2):
        total = 0
        for v in alg.quiver.vertices:
            for w in alg.quiver.vertices:
                total += len(alg.block_indices(v, w))
        assert total == alg.dim


def test_opposite_a3(a3):
    opp = opposite_algebra(a3)
    assert opp.dim == 5
    assert opp.quiver.arrow("a").source == "0"
    # double opposite restores the original basis data
    back = opposite_algebra(opp)
    assert back.dim == a3.dim
    assert sorted(w.arrows for w in back.basis) == sorted(w.arrows for w in a3.basis)
    assert back.source_of == a3.source_of
    assert back.target_of == a3.target_of


def test_opposite_single_vertex():
    q = Quiver.build(["*"], [])
    alg = build_algebra(q, [], 1, FieldSpec(7))
    opp = opposite_algebra(alg)
    assert opp.dim == 1


def test_opposite_pi2_selfopposite(pi2):
    opp = opposite_algebra(pi2)
    assert opp.dim == 4
    assert {a.name for a in opp.quiver.arrows} == {"a", "b"}


def _opposite_by_build_algebra(alg):
    """The opposite derived from scratch: the reversed relation words over
    the opposite quiver, their ideal reduced again by build_algebra."""
    rels = tuple(Relation(tuple((c, PathWord(w.arrows[::-1], w.base))
                                for c, w in r.terms))
                 for r in alg.relations)
    return build_algebra(alg.quiver.opposite(), rels, alg.nilpotency_bound,
                         alg.field)


@pytest.mark.parametrize("name, p", DUALITY_CASES)
def test_opposite_transposes_the_table_on_the_same_indices(name, p):
    alg = DUALITY_ALGEBRAS[name](p)
    op = opposite_algebra(alg)
    assert opposite_algebra(op) is alg and opposite_algebra(alg) is op
    alg.store.clear()
    assert opposite_algebra(alg) is op
    for i in range(alg.dim):
        ends = (op.source_of[i], op.target_of[i])
        assert path_endpoints(op.quiver, op.basis[i]) == ends \
            == (alg.target_of[i], alg.source_of[i])
        for j in range(alg.dim):
            assert op.multiply(i, j) == alg.multiply(j, i)
    _spot_check_table(op)
    old = _opposite_by_build_algebra(alg)
    assert (op.quiver, op.relations, op.dim) == (old.quiver, old.relations, old.dim)
    for v in alg.quiver.vertices:
        for w in alg.quiver.vertices:
            assert len(op.block_indices(v, w)) == len(old.block_indices(v, w))
    assert "opposite" not in repr(alg) and op != alg


def test_two_term_commutativity_relation():
    # commutative square: ab = cd survives as one length-2 residue
    q = Quiver.build(["1", "2", "3", "4"],
                     [("a", "1", "2"), ("b", "2", "4"),
                      ("c", "1", "3"), ("d", "3", "4")])
    rel = Relation(((1, PathWord(("a", "b"))), (100, PathWord(("c", "d")))))
    # J^2 is not inside the ideal (cd is nonzero), so the bound 2 is rejected
    with pytest.raises(BoundError):
        build_algebra(q, [rel], 2, FieldSpec(101))
    alg = build_algebra(q, [rel], 3, FieldSpec(101))
    # basis: 4 units + 4 arrows + one surviving length-2 residue
    assert alg.dim == 9


# -- reference: the ideal as the old dict-based closure built it ------------
#
# A plain copy of the fixpoint closure and normal form that build_algebra
# used before it shared fp's row reduction.  build_algebra must give the
# same basis, endpoints, table and BoundError message on every input.

def _reference_closure(q, p, max_len, paths, rel_vectors):
    ends = {w: path_endpoints(q, w) for w in paths}
    path_pos = {w: k for k, w in enumerate(paths)}

    def extend_left(vec, a):
        out = {}
        for w, c in vec.items():
            if ends[w][0] != a.target:
                return {}
            nw = PathWord((a.name,) + w.arrows)
            if nw.length() <= max_len:
                out[nw] = c
        return out

    def extend_right(vec, a):
        out = {}
        for w, c in vec.items():
            if ends[w][1] != a.source:
                return {}
            nw = PathWord(w.arrows + (a.name,))
            if nw.length() <= max_len:
                out[nw] = c
        return out

    pivot_rows = {}

    def reduce_vec(vec):
        vec = {w: c % p for w, c in vec.items() if c % p}
        while vec:
            lead = min(vec, key=lambda w: path_pos[w])
            row = pivot_rows.get(lead)
            if row is None:
                return vec
            c = vec[lead]
            vec = {w: (vec.get(w, 0) - c * row.get(w, 0)) % p
                   for w in set(vec) | set(row)}
            vec = {w: x for w, x in vec.items() if x}
        return vec

    def insert(vec):
        vec = reduce_vec(vec)
        if not vec:
            return False
        lead = min(vec, key=lambda w: path_pos[w])
        inv = pow(vec[lead], p - 2, p)
        pivot_rows[lead] = {w: (c * inv) % p for w, c in vec.items()}
        for piv in list(pivot_rows):
            if piv == lead:
                continue
            row = pivot_rows[piv]
            if lead in row:
                c = row[lead]
                newrow = {w: (row.get(w, 0) - c * pivot_rows[lead].get(w, 0)) % p
                          for w in set(row) | set(pivot_rows[lead])}
                pivot_rows[piv] = {w: x for w, x in newrow.items() if x}
        return True

    for v in [dict(v) for v in rel_vectors]:
        insert(v)
    changed = True
    while changed:
        changed = False
        for vec in [dict(v) for v in pivot_rows.values()]:
            for a in q.arrows:
                for ext in (extend_left(vec, a), extend_right(vec, a)):
                    if ext and insert(ext):
                        changed = True
    return pivot_rows, path_pos


def _reference_algebra(q, rels, n_bound, p):
    """(basis, source_of, target_of, table) as the old build_algebra made
    them; raises its BoundError."""
    paths, _ = _enumerate_paths(q, n_bound)
    rel_vectors = [{word: coeff % p for coeff, word in r.terms} for r in rels]
    pivot_rows, path_pos = _reference_closure(q, p, n_bound, paths, rel_vectors)

    def normal_form(vec):
        vec = {w: c % p for w, c in vec.items() if c % p}
        again = True
        while again:
            again = False
            for w in sorted(vec, key=lambda w: path_pos[w]):
                row = pivot_rows.get(w)
                if row is not None and vec.get(w, 0):
                    c = vec[w]
                    vec = {u: (vec.get(u, 0) - c * row.get(u, 0)) % p
                           for u in set(vec) | set(row)}
                    vec = {u: x for u, x in vec.items() if x}
                    again = True
                    break
        return vec

    for w in paths:
        if w.length() == n_bound and w not in pivot_rows:
            if normal_form({w: 1}):
                raise BoundError(
                    f"path {w.arrows} of length {n_bound} is nonzero in the "
                    f"quotient; ideal not verified admissible with this bound")

    basis_words = [w for w in paths
                   if w.length() < n_bound and w not in pivot_rows]
    ends = {w: path_endpoints(q, w) for w in basis_words}
    basis_pos = {w: i for i, w in enumerate(basis_words)}
    table = {}
    for i, wi in enumerate(basis_words):
        for j, wj in enumerate(basis_words):
            if ends[wi][1] != ends[wj][0]:
                continue
            if wi.length() + wj.length() >= n_bound:
                table[(i, j)] = []
                continue
            concat = PathWord(wi.arrows + wj.arrows,
                              wi.base if wi.is_trivial() and wj.is_trivial() else None)
            nf = normal_form({concat: 1})
            table[(i, j)] = sorted((basis_pos[w], c) for w, c in nf.items())
    return (tuple(basis_words), tuple(ends[w][0] for w in basis_words),
            tuple(ends[w][1] for w in basis_words), table)


def _built(q, rels, n_bound, p):
    """What build_algebra gives, in the reference's shape, or the message
    of its BoundError."""
    try:
        alg = build_algebra(q, rels, n_bound, FieldSpec(p))
    except BoundError as exc:
        return "BoundError", str(exc)
    return alg.basis, alg.source_of, alg.target_of, alg.table


def _expected(q, rels, n_bound, p):
    try:
        return _reference_algebra(q, rels, n_bound, p)
    except BoundError as exc:
        return "BoundError", str(exc)


def _opposite_input(q, rels):
    return q.opposite(), [
        Relation(tuple((c, PathWord(tuple(reversed(w.arrows)), w.base))
                       for c, w in r.terms))
        for r in rels]


def _commutative_square(bound, p):
    q = Quiver.build(["1", "2", "3", "4"],
                     [("a", "1", "2"), ("b", "2", "4"),
                      ("c", "1", "3"), ("d", "3", "4")])
    return q, [Relation(((1, PathWord(("a", "b"))), (p - 1, PathWord(("c", "d")))))], bound


def _inputs(alg):
    return alg.quiver, list(alg.relations), alg.nilpotency_bound


def _reference_cases(p):
    counts = sorted({n * m + 1 for n in range(1, 12) for m in range(0, 12)
                     if n * m + 1 <= 12})
    # gen_linear_An_J2(n, m) builds K A_{nm+1}/J^2 whatever n and m are
    for k in counts:
        yield f"A{k}-J2", _inputs(gen_linear_An_J2(1, k - 1, p)[0])
    for n in (2, 3):
        yield f"pi{n}", _inputs(gen_preprojective_A(n, p))
    for m in (1, 2, 3, 4):
        yield f"aus{m}", _inputs(gen_auslander_linear_A(m, p))
    yield "cyclic6-J2", _inputs(nakayama_algebra(6, 2, cyclic=True, p=p))
    for m in (4, 5, 7):
        for l in (3, 4):
            yield f"A{m}-J{l}", _inputs(nakayama_algebra(m, l, p=p))
    for bound in (3, 5):
        # no relations: at bound 3 every path of length 3 survives, and
        # BoundError names the first; A_5 has no path of length 5
        yield f"A5-free-N{bound}", (nakayama_algebra(5, 2, p=p).quiver, [], bound)
    for bound in (2, 3):
        yield f"square-N{bound}", _commutative_square(bound, p)
    yield "x3", _inputs(nakayama_algebra(1, 3, cyclic=True, p=p))
    for bound in (4, 5, 6, 7):
        yield f"two-loops-N{bound}", two_loops(bound, p)


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_build_algebra_matches_reference_closure(p):
    seen = 0
    for name, (q, rels, bound) in _reference_cases(p):
        for side, (qq, rr) in (("", (q, rels)), (" op", _opposite_input(q, rels))):
            assert _built(qq, rr, bound, p) == _expected(qq, rr, bound, p), name + side
            seen += 1
    assert seen == 2 * 34


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_non_homogeneous_bound_error_names_its_path(p):
    q, rels, _ = two_loops(4, p)
    with pytest.raises(BoundError, match=r"path \('y', 'y', 'y', 'x'\) of length 4 "):
        build_algebra(q, rels, 4, FieldSpec(p))
    assert build_algebra(q, rels, 5, FieldSpec(p)).dim == 8


def test_relation_listing_one_path_twice_is_refused():
    # 1*ab + 100*ab is zero at p = 101, so it imposes nothing; read as
    # {word: coeff}, the last term won and ab was killed (dimension 5)
    q = Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    rel = Relation(((1, PathWord(("a", "b"))), (100, PathWord(("a", "b")))))
    with pytest.raises(AdmissibilityError,
                       match=r"relation term \('a', 'b'\) is listed twice"):
        build_algebra(q, [rel], 3, FieldSpec(101))
    assert build_algebra(q, [], 3, FieldSpec(101)).dim == 6


@pytest.mark.parametrize("q, rels, word", [
    (Quiver.build(["1"], [("x", "1", "1")]),
     [Relation(((1, PathWord(("x", "x", "x", "x"))),))], "('x', 'x', 'x', 'x')"),
    (*two_loops(3, 101)[:2], "('y', 'y', 'y', 'y')"),
], ids=["x4", "two-loops"])
def test_relation_term_longer_than_the_bound_is_refused(q, rels, word):
    # the term is no enumerated path: this was a bare KeyError
    with pytest.raises(AdmissibilityError) as exc:
        build_algebra(q, rels, 3, FieldSpec(101))
    assert str(exc.value) == (f"relation term {word} is longer than the "
                              "nilpotency bound 3")


@pytest.mark.parametrize("m, dim", [(22, 63), (25, 72)])
def test_table_check_runs_above_dimension_64(monkeypatch, m, dim):
    # the check was skipped above dimension 64; it visits only composable
    # triples, so it runs at every dimension, and each P_v is still built
    # by the checked constructor
    calls = 0
    multiply = quivers.AlgebraBasis.multiply

    def spy(self, i, j):
        nonlocal calls
        calls += 1
        return multiply(self, i, j)
    monkeypatch.setattr(quivers.AlgebraBasis, "multiply", spy)
    alg = nakayama_algebra(m, 3)
    assert alg.dim == dim
    assert calls > 0
    projs = all_projectives(alg)
    assert sum(sum(pv.dim_vector()) for pv in projs) == dim


# -- the basis index against the scans it replaced -------------------------


def _scanned_index(alg):
    """The basis paths, arrow indices and vertex units found by linear
    scans of the basis: the reference for the basis index."""
    vs = alg.quiver.vertices
    starting = {v: {w: tuple(i for i in range(alg.dim) if alg.source_of[i] == v
                             and alg.target_of[i] == w) for w in vs} for v in vs}
    ending = {v: {w: tuple(i for i in range(alg.dim) if alg.target_of[i] == v
                           and alg.source_of[i] == w) for w in vs} for v in vs}
    arrows = {a.name: next(i for i, w in enumerate(alg.basis) if w.arrows == (a.name,))
              for a in alg.quiver.arrows}
    units = {v: next(i for i, w in enumerate(alg.basis) if w.is_trivial() and w.base == v)
             for v in vs}
    return starting, ending, arrows, units


def _test_algebras():
    """Every algebra family the tests build, at p = 101."""
    for name, (q, rels, bound) in _reference_cases(101):
        try:
            yield name, build_algebra(q, rels, bound, FieldSpec(101))
        except BoundError:
            continue
    for name, make in DUALITY_ALGEBRAS.items():
        yield name, make(101)
    yield "one-vertex", build_algebra(Quiver.build(["*"], []), [], 1, FieldSpec(101))
    yield "a3-named", linear_a3_j2()
    yield "pi2-named", preprojective_a2()
    yield "kronecker", kronecker_algebra()


def test_basis_index_equals_the_scans():
    names = []
    for name, built in _test_algebras():
        names.append(name)
        for alg in (built, opposite_algebra(built)):
            starting, ending, arrows, units = _scanned_index(alg)
            for v in alg.quiver.vertices:
                assert basis_paths(alg, v, True) == starting[v], name
                assert basis_paths(alg, v, False) == ending[v], name
                assert alg.vertex_unit(v) == units[v], name
                for w in alg.quiver.vertices:
                    assert alg.block_indices(v, w) == list(starting[v][w]), name
            for a, i in arrows.items():
                assert alg.arrow_basis_index(a) == i, name
            with pytest.raises(QuiverError, match="arrow 'nowhere' vanishes"):
                alg.arrow_basis_index("nowhere")
            with pytest.raises(QuiverError, match="unknown vertex 'nowhere'"):
                alg.vertex_unit("nowhere")
            assert alg.block_indices("nowhere", alg.quiver.vertices[0]) == []
            assert basis_paths(alg, "nowhere", True) == {w: () for w in alg.quiver.vertices}
    assert len(names) == len(set(names)) > 40


class _CountedReads(tuple):
    """A tuple that counts the items read from it, one by one or by
    iteration."""

    reads = 0

    def __getitem__(self, i):
        _CountedReads.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def test_index_reads_scan_nothing():
    alg = nakayama_algebra(7, 3)
    alg._index                                  # built in one pass
    alg.basis, alg.source_of, alg.target_of = (
        _CountedReads(alg.basis), _CountedReads(alg.source_of),
        _CountedReads(alg.target_of))
    _CountedReads.reads = 0
    for v in alg.quiver.vertices:
        basis_paths(alg, v, True)
        basis_paths(alg, v, False)
        alg.vertex_unit(v)
    for a in alg.quiver.arrows:
        alg.arrow_basis_index(a.name)
    assert _CountedReads.reads == 0


def test_basis_paths_refuses_a_write_to_the_index():
    alg = nakayama_algebra(4, 2)
    v, w = alg.quiver.vertices[:2]
    for starting in (True, False):
        before = dict(basis_paths(alg, v, starting))
        with pytest.raises(TypeError):
            basis_paths(alg, v, starting)[w] = (0,)
        with pytest.raises(TypeError):
            del basis_paths(alg, v, starting)[w]
        assert basis_paths(alg, v, starting) == before


def test_table_check_visits_only_composable_triples():
    # the table is asked only for composable pairs: a unit twice per basis
    # element, by the unit check; then, for the composable triples of
    # paths of positive length in increasing order, b_i b_j once per pair,
    # b_j b_k once per triple, and the products of the two sides of a
    # triple where either is nonzero.  No triple has a unit in it.  Last,
    # each relation's words are multiplied arrow by arrow from the first,
    # one product per term of the product so far
    alg = nakayama_algebra(7, 3)
    d, src, tgt = alg.dim, alg.source_of, alg.target_of
    paths = [i for i in range(d) if alg.basis[i].arrows]
    pairs = [(i, j) for i in paths for j in paths if tgt[i] == src[j]]
    assert len(pairs) < d * d // 4
    expected = [pair for i in range(d) for pair in (
        (alg.vertex_unit(src[i]), i), (i, alg.vertex_unit(tgt[i])))]
    for i, j in pairs:
        expected.append((i, j))
        for k in paths:
            if tgt[j] == src[k]:
                ij, jk = alg.multiply(i, j), alg.multiply(j, k)
                expected.append((j, k))
                if ij or jk:
                    expected += [(t, k) for t, _ in ij] + [(i, t) for t, _ in jk]
    for rel in alg.relations:
        for _, word in rel.terms:
            prod = [alg.arrow_basis_index(word.arrows[0])]
            for a in word.arrows[1:]:
                j = alg.arrow_basis_index(a)
                expected += [(i, j) for i in prod]
                prod = [k for i in prod for k, _ in alg.multiply(i, j)]
    asked = []
    multiply = alg.multiply
    alg.multiply = lambda i, j: asked.append((i, j)) or multiply(i, j)
    _spot_check_table(alg)
    assert all(tgt[i] == src[j] for i, j in asked)
    assert asked == expected


def _first_bad_triple(alg):
    """The first (i, j, k) of the exhaustive scan at which associativity
    fails, read as the table check read it before the index: every i, j and
    k in increasing order, composable ones only; None if there is none."""
    p, d = alg.p, alg.dim

    def mul_vecs(u, v):
        out = {}
        for i, c in u:
            for j, c2 in v:
                for k, c3 in alg.multiply(i, j):
                    out[k] = (out.get(k, 0) + c * c2 * c3) % p
        return [(k, c) for k, c in sorted(out.items()) if c]

    for i in range(d):
        for j in range(d):
            if alg.target_of[i] != alg.source_of[j]:
                continue
            for k in range(d):
                if alg.target_of[j] != alg.source_of[k]:
                    continue
                if mul_vecs(alg.multiply(i, j), [(k, 1)]) \
                        != mul_vecs([(i, 1)], alg.multiply(j, k)):
                    return i, j, k
    return None


def _first_bad_relation(alg):
    """The index of the first relation that does not vanish in the table,
    each word multiplied from its last arrow back; None if there is none."""
    p = alg.p
    for r, rel in enumerate(alg.relations):
        total = {}
        for c, word in rel.terms:
            vec = {alg.arrow_basis_index(word.arrows[-1]): 1}
            for a in reversed(word.arrows[:-1]):
                i, out = alg.arrow_basis_index(a), {}
                for j, x in vec.items():
                    for k, y in alg.multiply(i, j):
                        out[k] = (out.get(k, 0) + x * y) % p
                vec = out
            for k, x in vec.items():
                total[k] = (total.get(k, 0) + c * x) % p
        if any(total.values()):
            return r
    return None


_CORRUPTED_TABLE_ALGEBRAS = pytest.mark.parametrize("make", [
    lambda: nakayama_algebra(6, 4, cyclic=True),
    lambda: nakayama_algebra(6, 5),
    lambda: build_algebra(*two_loops(5, 101)[:2], 5, FieldSpec(101)),
], ids=["C6/J^4", "A6/J^5", "two-loops-N5"])


@_CORRUPTED_TABLE_ALGEBRAS
def test_corrupted_table_fails_at_the_same_first_triple(make):
    # every nonzero product of two paths of positive length, in turn, gets
    # wrong coefficients; the check fails where the full scan does; where
    # the scan passes (a product nothing extends), it fails exactly when a
    # relation no longer vanishes, and passes otherwise
    alg = make()
    corrupted = 0
    for (i, j), prod in sorted(alg.table.items()):
        if not prod or not (alg.basis[i].arrows and alg.basis[j].arrows):
            continue
        alg.table[(i, j)] = [(k, c % 100 + 1) for k, c in prod]
        expected = _first_bad_triple(alg)
        bad_relation = _first_bad_relation(alg)
        if expected is not None:
            with pytest.raises(AssertionError, match=re.escape(
                    "multiplication table not associative at ({},{},{})".format(*expected))):
                _spot_check_table(alg)
            corrupted += 1
        elif bad_relation is not None:
            with pytest.raises(AssertionError, match=re.escape(
                    f"multiplication table fails relation {bad_relation}")):
                _spot_check_table(alg)
        else:
            _spot_check_table(alg)
        alg.table[(i, j)] = prod
    assert corrupted
    _spot_check_table(alg)
    ev = alg.vertex_unit(alg.quiver.vertices[0])
    alg.table[(ev, ev)] = []
    with pytest.raises(AssertionError, match="multiplication table not unital"):
        _spot_check_table(alg)


def test_relation_that_fails_in_the_table_is_refused_on_two_loops():
    # x.x corrupted from y^3 to 2 y^3: every triple still associates, but
    # the relation x^2 - y^3 no longer vanishes
    alg = build_algebra(*two_loops(5, 101)[:2], 5, FieldSpec(101))
    x = alg.arrow_basis_index("x")
    assert (x, x) == (1, 1)
    prod = alg.table[(x, x)]
    alg.table[(x, x)] = [(k, 2 * c % alg.p) for k, c in prod]
    assert _first_bad_triple(alg) is None
    assert _first_bad_relation(alg) == 1
    with pytest.raises(AssertionError, match=re.escape(
            "multiplication table fails relation 1")):
        _spot_check_table(alg)
    alg.table[(x, x)] = prod
    _spot_check_table(alg)


def test_a_term_with_other_ends_is_refused_on_k_a3_j3():
    # a2 a1 given the extra term a1, which runs from 1 to 0, not from 2:
    # associativity fails only at (2, 4, 3), a triple with the unit e_2,
    # so the check refuses it at the ends of the term
    alg = nakayama_algebra(3, 3)
    assert [w.arrows for w in alg.basis[3:]] == [("a1",), ("a2",), ("a2", "a1")]
    alg.table[(4, 3)] = alg.table[(4, 3)] + [(3, 1)]
    assert _first_bad_triple(alg) == (2, 4, 3)
    with pytest.raises(AssertionError, match=re.escape(
            "multiplication table term 3 of (4,3) has other ends")):
        _spot_check_table(alg)


@_CORRUPTED_TABLE_ALGEBRAS
def test_a_term_with_other_ends_is_refused(make):
    # every product, in turn, given one extra term with other ends (the
    # first basis element that has them) is refused, whatever the
    # associativity scan finds; over one vertex every path has the same
    # ends, so there is nothing to corrupt
    alg = make()
    src, tgt = alg.source_of, alg.target_of
    corrupted = 0
    for (i, j), prod in sorted(alg.table.items()):
        k = next((k for k in range(alg.dim)
                  if (src[k], tgt[k]) != (src[i], tgt[j])), None)
        if k is None:
            continue
        alg.table[(i, j)] = prod + [(k, 1)]
        with pytest.raises(AssertionError, match=re.escape(
                f"multiplication table term {k} of ({i},{j}) has other ends")):
            _spot_check_table(alg)
        alg.table[(i, j)] = prod
        corrupted += 1
    assert (corrupted == 0) == (len(alg.quiver.vertices) == 1)
    _spot_check_table(alg)
