import pytest

from privsample.validation import oracle_system, paper_system


@pytest.fixture(scope="session")
def vi_system():
    """The experiment system: scalar observable, scalar private state."""
    return paper_system()


@pytest.fixture(scope="session")
def tame_system():
    """Well-conditioned scalar system sized for grid-filter oracles."""
    return oracle_system()
