import numpy as np
import pytest

from tecsim.pauli import PauliOperator, pauli_to_text

from reference import MATS, commutes, identity, multiply, pauli_from_text, to_matrix, weight


def random_pauli(rng: np.random.Generator, n: int) -> PauliOperator:
    return PauliOperator(
        n,
        int(rng.integers(0, 1 << n)),
        int(rng.integers(0, 1 << n)),
        int(rng.integers(0, 4)),
    )


def test_parse_xz():
    op = pauli_from_text("XZ")
    assert op.n == 2
    assert op.letter(0) == "X"
    assert op.letter(1) == "Z"
    assert op.phase == 1


def test_parse_identity():
    op = pauli_from_text("II")
    assert op.is_identity_string
    assert op.phase == 1


def test_parse_negative_y():
    op = pauli_from_text("-Y")
    assert op.n == 1
    assert op.letter(0) == "Y"
    assert op.phase == -1


def test_parse_imaginary_prefixes():
    assert pauli_from_text("iX").phase == 1j
    assert pauli_from_text("-iX").phase == -1j
    assert pauli_from_text("+X").phase == 1


def test_parse_invalid_character_names_position():
    with pytest.raises(ValueError, match="position 2"):
        pauli_from_text("XZQ")
    with pytest.raises(ValueError, match="position 3"):
        pauli_from_text("-iXq")


def test_parse_empty_rejected():
    with pytest.raises(ValueError):
        pauli_from_text("")
    with pytest.raises(ValueError):
        pauli_from_text("-i")


@pytest.mark.parametrize("text", ["XZ", "II", "-Y", "iXYZ", "-iZZZZ", "YXZI"])
def test_text_round_trip(text):
    assert pauli_to_text(pauli_from_text(text)) == text


def test_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        op = random_pauli(rng, int(rng.integers(1, 9)))
        assert pauli_from_text(pauli_to_text(op)) == op


def test_x_times_z_is_minus_i_y():
    assert multiply(pauli_from_text("X"), pauli_from_text("Z")) == pauli_from_text("-iY")


def test_x_squared_is_identity():
    assert multiply(pauli_from_text("X"), pauli_from_text("X")) == pauli_from_text("I")


def test_disjoint_supports():
    assert multiply(pauli_from_text("XI"), pauli_from_text("IZ")) == pauli_from_text("XZ")


def test_identity_is_two_sided_neutral():
    rng = np.random.default_rng(3)
    for _ in range(50):
        op = random_pauli(rng, 4)
        ident = identity(4)
        assert multiply(op, ident) == op
        assert multiply(ident, op) == op


def test_single_qubit_table_matches_matrices():
    for a in "IXYZ":
        for b in "IXYZ":
            got = multiply(pauli_from_text(a), pauli_from_text(b))
            assert np.allclose(to_matrix(got), MATS[a] @ MATS[b]), (a, b)


def test_random_products_match_matrix_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        assert np.allclose(to_matrix(multiply(a, b)), to_matrix(a) @ to_matrix(b))


def test_multiply_is_associative():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a, b, c = (random_pauli(rng, n) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_commutes_matches_product_order():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        assert commutes(a, b) == (multiply(a, b) == multiply(b, a))


def test_commutes_examples():
    assert not commutes(pauli_from_text("X"), pauli_from_text("Z"))
    assert commutes(pauli_from_text("XI"), pauli_from_text("IZ"))
    # the first two face generators of the eight-qubit cluster state
    k1 = pauli_from_text("XIIIIIZZ")
    k2 = pauli_from_text("IXIIIIZZ")
    assert commutes(k1, k2)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(pauli_from_text("X"), pauli_from_text("XX"))
    with pytest.raises(ValueError):
        commutes(pauli_from_text("X"), pauli_from_text("XX"))


def test_bits_must_fit_declared_size():
    with pytest.raises(ValueError):
        PauliOperator(1, 2, 0, 0)
    with pytest.raises(ValueError):
        PauliOperator(0, 0, 0, 0)


def test_single_constructor():
    op = PauliOperator.single(3, 1, "Y")
    assert pauli_to_text(op) == "IYI"
    with pytest.raises(IndexError):
        PauliOperator.single(3, 3, "X")


def test_weight_and_support():
    op = pauli_from_text("XIYZ")
    assert weight(op) == 3
    assert op.support() == (0, 2, 3)
