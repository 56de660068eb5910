from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic_schur.coeffvec import MONOMIAL, SCHUR, CoefficientVector
from chromatic_schur.partitions import partitions_of, sort_to_partition
from chromatic_schur.tableaux import MAX_ORACLE_VERTICES, kostka_matrix, monomial_to_schur
from tabloid_helpers import content_table, srh_tabloids


@lru_cache(maxsize=None)
def syt_count(shape):
    """Independent oracle: count standard Young tableaux by stripping the
    cell holding the largest entry off a corner and recursing."""
    if not shape:
        return 1
    total = 0
    for i, part in enumerate(shape):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if part > below:
            smaller = shape[:i] + ((part - 1,) if part > 1 else ()) + shape[i + 1 :]
            total += syt_count(smaller)
    return total


@lru_cache(maxsize=None)
def ssyt_count(shape, weight):
    """Independent oracle: count SSYT of ``shape`` with content ``weight`` by
    backtracking over fillings in reading order."""
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    remaining = list(weight)
    grid = [[0] * width for width in shape]

    def fill(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = grid[r][c - 1] if c else 1
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        total = 0
        for entry in range(lo, len(remaining) + 1):
            if not remaining[entry - 1]:
                continue
            remaining[entry - 1] -= 1
            grid[r][c] = entry
            total += fill(idx + 1)
            remaining[entry - 1] += 1
        grid[r][c] = 0
        return total

    return fill(0)


def test_kostka_matches_ssyt_backtracking_through_degree_8():
    # one column per weight, in the order of partitions_of, each holding
    # only the nonzero counts of its shapes
    for n in range(9):
        table = kostka_matrix(n)
        assert tuple(table) == partitions_of(n)
        for mu, column in table.items():
            assert 0 not in column.values()
            for lam in partitions_of(n):
                assert column.get(lam, 0) == ssyt_count(lam, mu), (lam, mu)


@pytest.mark.slow
def test_kostka_times_signed_rim_hook_tabloids_is_identity():
    # the oracle's Kostka matrix and the grouped route's inverse Kostka
    # matrix (signed special rim hook tabloids by content type) are inverse
    for n in range(9):
        order = partitions_of(n)
        kostka = kostka_matrix(n)
        kinv = {}
        for lam in order:
            for t in srh_tabloids(lam):
                key = (sort_to_partition(t.content), lam)
                kinv[key] = kinv.get(key, 0) + t.sign
        for nu in order:
            for lam in order:
                total = sum(kostka[mu].get(nu, 0) * kinv.get((mu, lam), 0) for mu in order)
                assert total == (nu == lam), (nu, lam)


def test_kostka_times_signed_content_table_is_identity():
    # the grouped route reads K^-1 from the signed content table; wider than
    # the enumerated check above, since the table costs no enumeration
    for n in range(13):
        kostka = kostka_matrix(n)
        for lam in partitions_of(n):
            table = content_table(lam)
            column = {}
            for mu, weights in kostka.items():
                for nu, k in weights.items():
                    column[nu] = column.get(nu, 0) + k * table.get(mu, 0)
            assert {nu: c for nu, c in column.items() if c} == {lam: 1}, lam


def test_kostka_examples():
    assert kostka_matrix(3)[(1, 1, 1)][(2, 1)] == 2
    assert kostka_matrix(2)[(1, 1)][(2,)] == 1
    assert (2, 2) not in kostka_matrix(4)[(3, 1)]  # (2, 2) does not dominate (3, 1)
    for lam in partitions_of(5):
        assert kostka_matrix(5)[lam][lam] == 1


def test_kostka_column_weight_counts_standard_tableaux():
    for n in range(7):
        column = kostka_matrix(n)[(1,) * n]
        for lam in partitions_of(n):
            assert column.get(lam, 0) == syt_count(lam)


def test_oracle_refuses_degrees_above_its_cap_before_building_a_table():
    # the cap bounds what the Kostka cache can hold
    degree = MAX_ORACLE_VERTICES + 1
    cached = kostka_matrix.cache_info().currsize
    message = f"{degree} vertices exceed the cap of {MAX_ORACLE_VERTICES} on the oracle route"
    with pytest.raises(ValueError, match=message):
        monomial_to_schur(CoefficientVector(MONOMIAL, {(1,) * degree: 1}))
    with pytest.raises(ValueError, match=message):
        kostka_matrix(degree)
    assert kostka_matrix.cache_info().currsize == cached


def test_kostka_cache_keeps_one_degree():
    kostka_matrix.cache_clear()
    first = kostka_matrix(7)
    kostka_matrix(8)
    info = kostka_matrix.cache_info()
    assert info.currsize == 1
    # degree 7 was dropped, so this rebuilds it
    assert kostka_matrix(7) == first
    assert kostka_matrix.cache_info().misses == info.misses + 1
    assert kostka_matrix.cache_info().currsize == 1


def test_monomial_to_schur_examples():
    single_column = CoefficientVector(MONOMIAL, {(1, 1): 1})
    assert monomial_to_schur(single_column).coeffs == {(1, 1): 1}

    three_path = CoefficientVector(MONOMIAL, {(1, 1, 1): 6, (2, 1): 1})
    assert monomial_to_schur(three_path).coeffs == {(2, 1): 1, (1, 1, 1): 4}

    claw = CoefficientVector(MONOMIAL, {(3, 1): 1, (2, 1, 1): 6, (1, 1, 1, 1): 24})
    assert monomial_to_schur(claw).coeffs == {
        (3, 1): 1,
        (2, 2): -1,
        (2, 1, 1): 5,
        (1, 1, 1, 1): 8,
    }


def test_monomial_to_schur_rejects_wrong_basis():
    with pytest.raises(ValueError):
        monomial_to_schur(CoefficientVector(SCHUR, {(1,): 1}))


def schur_to_monomial(vec):
    """Expand a Schur-basis vector over monomials: m_mu gets the sum of
    c_lam * K(lam, mu), K counted by backtracking rather than read from
    ``kostka_matrix``, so the round trip checks the back-substitution
    against a Kostka source of its own."""
    assert vec.basis == SCHUR
    out = {}
    for lam, c in vec.coeffs.items():
        for mu in partitions_of(sum(lam)):
            out[mu] = out.get(mu, 0) + c * ssyt_count(lam, mu)
    return CoefficientVector(MONOMIAL, out)


def linear_combination(*terms):
    """The vector sum of a * vec over the (a, vec) pairs, all in one basis."""
    (basis,) = {vec.basis for _, vec in terms}
    out = {}
    for a, vec in terms:
        for mu, c in vec.coeffs.items():
            out[mu] = out.get(mu, 0) + a * c
    return CoefficientVector(basis, out)


def _schur_vectors(max_degree):
    def build(draw_pairs, n):
        return CoefficientVector(SCHUR, dict(zip(partitions_of(n), draw_pairs)))

    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda n: st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=len(partitions_of(n)),
            max_size=len(partitions_of(n)),
        ).map(lambda cs: build(cs, n))
    )


@settings(max_examples=60, deadline=None)
@given(_schur_vectors(7))
def test_roundtrip_through_monomials(vec):
    assert monomial_to_schur(schur_to_monomial(vec)) == vec


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, 9), min_size=len(partitions_of(n)), max_size=len(partitions_of(n))),
            st.lists(st.integers(-9, 9), min_size=len(partitions_of(n)), max_size=len(partitions_of(n))),
            st.integers(-5, 5),
            st.integers(-5, 5),
        )
    )
)
def test_conversion_is_linear(payload):
    cs1, cs2, a, b = payload
    n = {len(partitions_of(k)): k for k in range(6)}[len(cs1)]
    v1 = CoefficientVector(MONOMIAL, dict(zip(partitions_of(n), cs1)))
    v2 = CoefficientVector(MONOMIAL, dict(zip(partitions_of(n), cs2)))
    combined = linear_combination((a, v1), (b, v2))
    expected = linear_combination((a, monomial_to_schur(v1)), (b, monomial_to_schur(v2)))
    assert monomial_to_schur(combined) == expected


def test_vector_json_roundtrip():
    vec = CoefficientVector(SCHUR, {(2, 1): 1, (1, 1, 1): -4})
    payload = vec.to_json_dict()
    assert payload == {
        "basis": "schur",
        "coeffs": [
            {"partition": [2, 1], "value": "1"},
            {"partition": [1, 1, 1], "value": "-4"},
        ],
    }


def test_vector_drops_zeros_and_checks_degree():
    assert CoefficientVector(SCHUR, {(2,): 0}).coeffs == {}
    with pytest.raises(ValueError):
        CoefficientVector(SCHUR, {(2,): 1, (1, 1, 1): 1})
    with pytest.raises(ValueError):
        CoefficientVector("bogus")


def test_value_records_compare_by_fields_and_stay_read_only():
    import pickle

    from chromatic_schur.verify import VerificationReport

    vec = CoefficientVector(SCHUR, {(2, 1): 1, (1, 1, 1): 0})
    assert vec == CoefficientVector(SCHUR, {(2, 1): 1}) != CoefficientVector(MONOMIAL, {(2, 1): 1})
    assert vec != ("schur", {(2, 1): 1})
    assert repr(vec) == "CoefficientVector(basis='schur', coeffs={(2, 1): 1})"
    assert CoefficientVector(SCHUR).coeffs == {}
    with pytest.raises(TypeError):
        hash(vec)  # its coefficients are a dict
    assert pickle.loads(pickle.dumps(vec)) == vec
    for name in ("basis", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(vec, name, None)
        with pytest.raises(AttributeError):
            delattr(vec, name)
    with pytest.raises(AttributeError):
        vec.cells = ()  # nor a name that is not a field
    # a report is built once per suite but stays a plain mutable record
    report = VerificationReport("net-recurrence", [], 0)
    report.wall_time_ms = 5
    assert report.wall_time_ms == 5
