import pytest

from privsample import cli
from privsample.validation import oracle_system, paper_system


def pytest_sessionstart(session):
    # the suite imports the package without going through cli.main, so give
    # it the allocator setting every command runs under
    cli._keep_freed_pages()


@pytest.fixture(scope="session")
def vi_system():
    """The experiment system: scalar observable, scalar private state."""
    return paper_system()


@pytest.fixture(scope="session")
def tame_system():
    """Well-conditioned scalar system sized for grid-filter oracles."""
    return oracle_system()
