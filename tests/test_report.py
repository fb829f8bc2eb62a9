"""Tests for the markdown scan report."""

import pytest

from repro.analysis.experiments import run_full_scan, standard_context
from repro.analysis.report import scan_report

BUDGET = 1500


@pytest.fixture(scope="module")
def outcome():
    context = standard_context(0.05)
    return context, run_full_scan(context, BUDGET)


def _report(outcome, **kwargs):
    context, result = outcome
    return scan_report(context, BUDGET, result, **kwargs)


class TestScanReport:
    def test_sections_present(self, outcome):
        text = _report(outcome)
        for heading in (
            "# IPv6 scan report",
            "## Run summary",
            "## Aliasing census",
            "## Top ASes",
            "## Dealiased hits per routed prefix",
            "## 6Gen cluster census",
            "## Dynamic nybble profile",
        ):
            assert heading in text

    def test_custom_title(self, outcome):
        assert _report(outcome, title="My Title").startswith("# My Title")

    def test_numbers_consistent(self, outcome):
        text = _report(outcome)
        _, result = outcome
        assert f"**{len(result.raw_hits)}**" in text
        assert f"**{len(result.clean_hits)}**" in text
        assert f"**{BUDGET}**" in text

    def test_as_tables_are_markdown(self, outcome):
        text = _report(outcome)
        assert "| AS | ASN | addresses | share |" in text
        # markdown tables need their separator rows
        assert text.count("|---|---|---|---|") >= 3

    def test_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        assert main([
            "report", str(out), "--scale", "0.05", "--budget", "1500",
        ]) == 0
        assert out.exists()
        assert "## Run summary" in out.read_text()
