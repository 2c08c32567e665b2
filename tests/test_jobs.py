"""The table runner of ``jobs/all_tables.py``: it runs and writes only the
named tables, and refuses an unknown name before running any."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jobs._session as session

ROOT = Path(__file__).resolve().parents[1]
VALID = "valid: T1 T2 T3 T4 T5 T6 T7 T8 T9 T10"


def test_run_tables_writes_named_table(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(session, "RESULTS", str(tmp_path))
    session.run_tables(spark, ["T6"])
    assert os.listdir(tmp_path) == ["t06.csv"]
    assert (tmp_path / "t06.csv").read_bytes() == (ROOT / "results" / "t06.csv").read_bytes()


def test_unknown_table_refused(spark, tmp_path, monkeypatch):
    monkeypatch.setattr(session, "RESULTS", str(tmp_path))
    with pytest.raises(ValueError, match=f"unknown table T11; {VALID}$"):
        session.run_tables(spark, ["T6", "T11"])
    assert os.listdir(tmp_path) == []


def test_cli_refuses_unknown_table():
    """The job exits non-zero with the valid names, before Spark starts."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "jobs" / "all_tables.py"), "T3", "t9"],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 1
    assert out.stderr.strip() == f"unknown table t9; {VALID}"
