import pytest

from aperiodic_kit.catalog import (
    partition_segments,
    rotation_action,
    square_substitution,
    wang_tiles,
)

# Horizontal dominoes (left, right) allowed in the subshift: 31 pairs.
H_DOMINOES = {
    (0, 3), (1, 2), (1, 3), (1, 6), (2, 0), (2, 4), (3, 7), (4, 1), (5, 1),
    (6, 1), (6, 5), (7, 1), (8, 16), (9, 14), (10, 12), (10, 14), (11, 17),
    (12, 9), (13, 9), (14, 8), (14, 11), (14, 13), (14, 18), (15, 8),
    (15, 11), (16, 8), (16, 13), (16, 15), (17, 8), (17, 13), (18, 10),
}

# Vertical dominoes (bottom, top) allowed in the subshift: 35 pairs.
V_DOMINOES = {
    (0, 8), (1, 8), (1, 9), (1, 11), (2, 16), (3, 16), (4, 13), (5, 13),
    (6, 14), (6, 17), (7, 15), (8, 0), (8, 9), (8, 11), (9, 1), (9, 10),
    (10, 1), (11, 1), (11, 10), (12, 6), (13, 4), (13, 7), (13, 18),
    (14, 2), (14, 6), (14, 12), (15, 7), (15, 13), (15, 18), (16, 3),
    (16, 14), (16, 17), (17, 3), (17, 14), (18, 5),
}


@pytest.fixture(scope="session")
def phi():
    return square_substitution()


@pytest.fixture
def tiles_u():
    # a fresh set per test: a tile set keeps the admissible sets it finds,
    # so a test that stubs or counts searches must not share one
    return wang_tiles()


@pytest.fixture(scope="session")
def h_dominoes():
    return set(H_DOMINOES)


@pytest.fixture(scope="session")
def v_dominoes():
    return set(V_DOMINOES)


@pytest.fixture(scope="session")
def action_u():
    return rotation_action()


@pytest.fixture(scope="session")
def partition_u(action_u):
    from _oracles import coded_dominoes
    from aperiodic_kit.geometry import partition_from_segments, relabel_to_match
    from aperiodic_kit.pet import coded_cells

    raw = partition_from_segments(partition_segments(), (1, 1))
    coded = coded_dominoes(coded_cells(raw, action_u, [(1, 0), (0, 1)]))
    return raw.relabel(relabel_to_match(raw, set(H_DOMINOES), set(V_DOMINOES), coded))


@pytest.fixture(scope="session")
def induction_tower(partition_u, action_u):
    """(P1, beta0, R1, P2, beta1, R2) from the two vertical/horizontal steps."""
    from aperiodic_kit.pet import Window, induce_action, induced_partition
    from aperiodic_kit.phifield import PHI

    w0 = Window(2, PHI**-1)
    p1, beta0 = induced_partition(partition_u, action_u, w0)
    r1 = induce_action(action_u, w0)
    w1 = Window(1, PHI**-1)
    p2, beta1 = induced_partition(p1, r1, w1)
    r2 = induce_action(r1, w1)
    return p1, beta0, r1, p2, beta1, r2
