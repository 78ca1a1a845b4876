from pathlib import Path

import numpy as np
import pytest

from agecomp import io, linalg, measures
from agecomp.io import load_covariates_csv, load_schedule_csv
from agecomp.schedule import concat_sexes

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(autouse=True)
def no_kept_results():
    """Each test starts with no kept SVD, no kept CSV parse and no kept life
    tables, so no result depends on which tests ran before it."""
    linalg._svd.cache_clear()
    io._last_parse.cache_clear()
    measures._life_tables.cache_clear()


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def mortality_log():
    """The 38 x 19 concatenated female+male log mortality-rate matrix."""
    female = load_schedule_csv(DATA / "agincourt_mx_female.csv", log=True)
    male = load_schedule_csv(DATA / "agincourt_mx_male.csv", log=True)
    return concat_sexes(female, male)


@pytest.fixture(scope="session")
def fertility_log():
    return load_schedule_csv(DATA / "agincourt_fx.csv", log=True)


@pytest.fixture(scope="session")
def covariates():
    return load_covariates_csv(DATA / "agincourt_covariates.csv")


@pytest.fixture(scope="session")
def fertility_covariates():
    return load_covariates_csv(DATA / "agincourt_fx_covariates.csv")


@pytest.fixture(scope="session")
def three_period_log():
    female = load_schedule_csv(DATA / "agincourt_mx_3period_female.csv", log=True)
    male = load_schedule_csv(DATA / "agincourt_mx_3period_male.csv", log=True)
    return concat_sexes(female, male)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared registry; each acceptance criterion appends its verdict line."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
