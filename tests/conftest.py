import json
import os
from pathlib import Path

import pytest

from embedscale import fit_from_report, parse_observations

DATA_DIR = Path(__file__).parent / "data"


def no_child_left():
    """True when this process has no child, running or not yet reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def force_parts(monkeypatch, parts):
    """Make core._in_parts run parts parts, as on that many CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))


@pytest.fixture(autouse=True)
def no_child_after_each_test():
    """Fail any test that leaves a child process behind, running or not."""
    yield
    assert no_child_left()


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def bert_ms_table():
    return parse_observations((DATA_DIR / "obs_bert_msmarco.csv").read_text())


@pytest.fixture(scope="session")
def bert_trec_table():
    return parse_observations((DATA_DIR / "obs_bert_trecdl.csv").read_text())


@pytest.fixture(scope="session")
def ettin_ms_table():
    return parse_observations((DATA_DIR / "obs_ettin_msmarco.csv").read_text())


@pytest.fixture(scope="session")
def bert_trec_joint_fit():
    """Joint-law constants for the bert/trecdl series, loaded from the report fixture."""
    with open(DATA_DIR / "fit_report_bert_trecdl.json") as fh:
        return fit_from_report(json.load(fh))
