import pytest

from garside_census import formulas, matrices, oracle, spectral, words

# one instance of each of the package's seven records, as the library makes it
RECORDS = {
    "CountMatrix": lambda: matrices.build_Mbar(3),
    "NewFactorReport": lambda: spectral.new_factor_simple_roots(3),
    "Check": lambda: formulas.verify_all(nmax=3, dmax=3)[0].checks[0],
    "FormulaReport": lambda: formulas.b4_recurrence_check(6),
    "MStructureReport": lambda: oracle.structural_check_M(3),
    "PositiveWord": lambda: words.parse_word("s1 s2 D", 3),
    "NormalSequence": lambda: words.normalize(words.parse_word("s1 s2 s2", 3)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_frozen_compares_by_fields_and_keeps_its_repr(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    fields = record._asdict()
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        record.note = "no new attributes either"
    twin = type(record)(**fields)
    assert twin == record and twin is not record
    assert record._replace() == record
    assert repr(record) == f"{name}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"


def test_a_count_matrix_copy_is_checked_like_a_new_one():
    with pytest.raises(ValueError, match=r"Mbar rows are not 2 x 2, one per label"):
        matrices.build_Mbar(2)._replace(rows=((1,),))


@pytest.mark.parametrize("rows", [((1, 2, 3),), ((1,), (2,)), ()])
def test_a_count_matrix_of_the_wrong_shape_raises_value_error(rows):
    # a ValueError, not an assert, so that python -O checks it too
    with pytest.raises(ValueError, match="rows are not 1 x 1"):
        matrices.CountMatrix(kind="Mbar", n=1, labels=((1,),), rows=rows)
