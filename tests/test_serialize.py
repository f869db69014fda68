"""The JSON encodings the command line reads and writes round-trip, and
malformed input is rejected."""

import json

import pytest
from hypothesis import given

from latmult import Permutation, serialize

from conftest import nested_sequences_st, paths_st, tableaux_st


class TestRoundTrips:
    @given(tableaux_st())
    def test_tableau(self, x):
        encoded = serialize.tableau_to_json(x)
        assert serialize.tableau_from_json(json.loads(json.dumps(encoded))) == x

    @given(paths_st())
    def test_path(self, p):
        encoded = p.moves
        assert serialize.path_from_json(json.loads(json.dumps(encoded))) == p

    @given(nested_sequences_st())
    def test_sequence(self, z):
        encoded = serialize.sequence_to_json(z)
        assert encoded["ell"] == z.ell
        assert encoded["k"] == z.k
        assert serialize.sequence_from_json(json.loads(json.dumps(encoded))) == z


class TestRejections:
    def test_tableau_row_non_integers(self):
        with pytest.raises(ValueError):
            serialize.tableau_from_json([[1.0, 2]])
        with pytest.raises(ValueError):
            serialize.tableau_from_json([[True]])
        with pytest.raises(ValueError):
            serialize.tableau_from_json(["12"])

    def test_tableau_not_nested(self):
        with pytest.raises(ValueError):
            serialize.tableau_from_json({"rows": [[1]]})
        with pytest.raises(ValueError):
            serialize.tableau_from_json([1, 2])

    def test_tableau_invalid_filling(self):
        with pytest.raises(ValueError):
            serialize.tableau_from_json([[2, 1]])

    def test_path_bad_type_or_moves(self):
        with pytest.raises(ValueError):
            serialize.path_from_json(["R", "U"])
        with pytest.raises(ValueError):
            serialize.path_from_json("RX")

    def test_sequence_missing_keys(self):
        with pytest.raises(ValueError) as err:
            serialize.sequence_from_json({"ell": 1})
        assert "missing keys" in str(err.value)

    def test_sequence_wrong_declared_dimensions(self):
        good = {"ell": 1, "k": 2, "paths": ["RU"]}
        assert serialize.sequence_from_json(good).ell == 1
        with pytest.raises(ValueError):
            serialize.sequence_from_json({**good, "ell": 2})
        with pytest.raises(ValueError):
            serialize.sequence_from_json({**good, "k": 3})

    def test_sequence_non_integer_dimensions(self):
        # True == 1 and 2.0 == 2 in Python; JSON booleans and floats are refused
        good = {"ell": 1, "k": 2, "paths": ["RU"]}
        for bad in ({"ell": True}, {"k": 2.0}, {"ell": True, "k": 2.0}, {"ell": "1"}):
            with pytest.raises(ValueError) as err:
                serialize.sequence_from_json({**good, **bad})
            assert "JSON integers" in str(err.value)

    def test_sequence_not_an_object(self):
        with pytest.raises(ValueError):
            serialize.sequence_from_json(["RU"])


class TestWordParsing:
    def test_golden_word(self):
        w = serialize.permutation_from_word("26873415")
        assert w == Permutation((2, 6, 8, 7, 3, 4, 1, 5))

    def test_strips_whitespace(self):
        assert serialize.permutation_from_word(" 312\n") == Permutation((3, 1, 2))

    def test_rejects_non_digits(self):
        with pytest.raises(ValueError):
            serialize.permutation_from_word("3,1,2")
        with pytest.raises(ValueError):
            serialize.permutation_from_word("")

    @pytest.mark.parametrize("word", ["３１２", "٣١٢", "3²1"], ids=["fullwidth", "arabic-indic", "superscript"])
    def test_rejects_digits_outside_ascii(self, word):
        # str.isdigit holds for each, and int() reads the first two as 312
        with pytest.raises(ValueError, match="word must be decimal digits like 26873415"):
            serialize.permutation_from_word(word)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            serialize.permutation_from_word("11")
        with pytest.raises(ValueError):
            serialize.permutation_from_word("13")
