import hypothesis
import pytest

from boundarylab import (
    FiniteSpace,
    FreeGroup,
    PermutationGroup,
    enumerate_cosets,
    induced_extension,
    induced_space,
    parse_word,
    schreier_basis,
    subgroup,
)

hypothesis.settings.register_profile(
    "boundarylab", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("boundarylab")


F2 = FreeGroup(2)

INDEX2_GENS = ("aa", "b", "abA")      # even a-exponent subgroup
INDEX3_GENS = ("aaa", "b", "abA", "aabAA")  # a-exponent = 0 mod 3
INDEX1_GENS = ("a", "b")


def _table(gens):
    return enumerate_cosets(subgroup(F2, [parse_word(F2, s) for s in gens]))


@pytest.fixture(scope="session")
def f2():
    return F2


@pytest.fixture(scope="session")
def index2_table():
    return _table(INDEX2_GENS)


@pytest.fixture(scope="session")
def index3_table():
    return _table(INDEX3_GENS)


@pytest.fixture(scope="session")
def index1_table():
    return _table(INDEX1_GENS)


@pytest.fixture(scope="session")
def index2_basis(index2_table):
    return schreier_basis(index2_table)


@pytest.fixture(scope="session")
def index2_induced(index2_table, index2_basis):
    return induced_space(index2_table, index2_basis)


@pytest.fixture(scope="session")
def index2_phi(index2_induced):
    return induced_extension(index2_induced)


@pytest.fixture(scope="session")
def s3_ctx():
    return PermutationGroup(3, ((1, 0, 2), (1, 2, 0)))


@pytest.fixture(scope="session")
def s3_table(s3_ctx):
    return enumerate_cosets(subgroup(s3_ctx, [parse_word(s3_ctx, "a")]))


@pytest.fixture(scope="session")
def s3_space(s3_table):
    return s3_table


@pytest.fixture(scope="session")
def z4_ctx():
    return PermutationGroup(4, ((1, 2, 3, 0),))


@pytest.fixture(scope="session")
def z4_space(z4_ctx):
    table = enumerate_cosets(subgroup(z4_ctx, []))
    return table
