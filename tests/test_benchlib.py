"""The bench harness's report and exit-code contract.

``scripts/benchlib.py`` decides whether a perf gate fails ``--check``;
these tests run no workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import benchlib  # noqa: E402


def _finish(tmp_path, criteria: dict, check: bool) -> int:
    args = argparse.Namespace(output=tmp_path / "BENCH_x.json", check=check)
    return benchlib.finish("bench_x", {"criteria": criteria}, args)


class TestFinish:
    def test_skipped_criterion_never_fails_check(self, tmp_path, capsys):
        criteria = {
            "needs_numpy": benchlib.criterion(
                None, False, "numpy not installed"
            ),
        }
        assert _finish(tmp_path, criteria, check=True) == 0
        out = capsys.readouterr().out
        assert "criterion needs_numpy: SKIPPED (numpy not installed)" in out
        assert "FAIL" not in out

    def test_failed_enforced_criterion_fails_only_under_check(
        self, tmp_path, capsys
    ):
        criteria = {
            "fast": benchlib.criterion(2.5, True),
            "faster": benchlib.criterion(1.2, 1.2 >= 2.0),
        }
        assert _finish(tmp_path, criteria, check=True) == 1
        assert _finish(tmp_path, criteria, check=False) == 0
        out = capsys.readouterr().out
        assert "criterion fast: PASS" in out
        assert "criterion faster: FAIL (value 1.2)" in out

    def test_report_sorted_with_trailing_newline(self, tmp_path):
        report = {
            "zeta": 1,
            "alpha": {"b": 2, "a": 1},
            "criteria": {"ok": benchlib.criterion(3.0, True)},
        }
        args = argparse.Namespace(output=tmp_path / "r.json", check=True)
        assert benchlib.finish("bench_x", report, args) == 0
        text = (tmp_path / "r.json").read_text()
        assert text.endswith("}\n")
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text.index('"alpha"') < text.index('"criteria"') < text.index(
            '"zeta"'
        )
        assert json.loads(text)["criteria"]["ok"] == {
            "enforced": True,
            "skip_reason": None,
            "value": 3.0,
            "pass": True,
        }
