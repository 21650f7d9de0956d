"""Engine-level tests: reading sources, reporters, and logical-line
suppression folding."""

import json
from pathlib import Path

import pytest

from repro.lint.__main__ import main
from repro.lint.core import Finding, Suppressions
from repro.lint.reporters import render_json

FIXTURES = Path(__file__).parent / "fixtures"


class TestSuppressionFolding:
    def test_comment_on_continuation_line_covers_statement(self):
        source = (
            "import time\n"
            "x = (\n"
            "    time.time()  # lint: disable=DET001\n"
            ")\n"
        )
        sup = Suppressions(source)
        assert sup.is_suppressed(2, "DET001"), "logical-line start must be covered"
        assert sup.is_suppressed(3, "DET001"), "physical comment line must be covered"

    def test_multi_rule_comment_on_continuation_line(self):
        source = (
            "import time, random\n"
            "y = (time.time()\n"
            "     + random.random())  # lint: disable=DET001, DET002\n"
        )
        sup = Suppressions(source)
        for rule_id in ("DET001", "DET002"):
            assert sup.is_suppressed(2, rule_id)
        assert not sup.is_suppressed(2, "CACHE001")

    def test_continuation_suppression_end_to_end(self):
        from repro.lint import analyze_source

        source = (
            "import time, random\n"
            "y = (time.time()\n"
            "     + random.random())  # lint: disable=DET001,DET002\n"
        )
        assert analyze_source(source, "scratch.py") == []

    def test_comment_on_next_statement_does_not_leak_backwards(self):
        source = (
            "import time\n"
            "x = time.time()\n"
            "y = 1  # lint: disable=DET001\n"
        )
        sup = Suppressions(source)
        assert not sup.is_suppressed(2, "DET001")


class TestUnreadableSource:
    """A file the interpreter would reject is a PARSE finding, never a crash."""

    def lint_json(self, path, capsys):
        status = main(["--format", "json", str(path)])
        return status, json.loads(capsys.readouterr().out)["findings"]

    def test_non_utf8_file_is_a_parse_finding(self, tmp_path, capsys):
        target = tmp_path / "latin.py"
        target.write_bytes(b'import time\nx = "\xff\xfe"\n')
        status, findings = self.lint_json(target, capsys)
        assert status == 1
        (finding,) = findings
        assert finding["rule"] == "PARSE"
        assert (finding["line"], finding["col"]) == (2, 6)
        assert "cannot decode source as UTF-8" in finding["message"]

    def test_inconsistent_dedent_is_a_parse_finding(self, tmp_path, capsys):
        target = tmp_path / "dedent.py"
        target.write_text("if True:\n    x = 1\n  y = 2\n")
        status, findings = self.lint_json(target, capsys)
        assert status == 1
        assert [(f["rule"], f["line"]) for f in findings] == [("PARSE", 3)]


class TestReporters:
    def findings(self):
        return [
            Finding("src/a.py", 10, 5, "DET001", "wall-clock call"),
            Finding("src/b.py", 2, 1, "SHARD001", "unregistered state"),
        ]

    def test_json_schema(self):
        document = json.loads(render_json(self.findings(), files_checked=7))
        assert set(document) == {"count", "files_checked", "findings"}
        assert document["count"] == 2 and document["files_checked"] == 7
        first = document["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}
        assert first == {
            "path": "src/a.py",
            "line": 10,
            "col": 5,
            "rule": "DET001",
            "message": "wall-clock call",
        }


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_all_formats_deterministic_in_process(fmt, capsys):
    args = ["--format", fmt, str(FIXTURES)]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first
