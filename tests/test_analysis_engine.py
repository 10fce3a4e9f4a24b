"""Engine-level tests: suppression comments, the baseline multiset,
JSON artifacts, file discovery, and the lsd-lint CLI exit codes."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main as lint_main
from repro.analysis.engine import (SourceFile, analyze_paths,
                                   analyze_sources, get_rules,
                                   iter_python_files, rule_ids)
from repro.analysis.findings import (Baseline, Finding, findings_to_json,
                                     sort_findings)

SET_ORDER_BAD = """\
def labels(xs):
    return list(set(xs))
"""

CLEAN = """\
def double(x):
    return x * 2
"""


def _source(code: str, display: str = "src/repro/example.py"
            ) -> SourceFile:
    return SourceFile(Path(display), display, textwrap.dedent(code))


class TestSuppressions:
    def test_bracketed_suppression_silences_listed_rule(self):
        source = _source("""\
            t = list(set(xs))  # lsd: ignore[set-iteration]
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["set-iteration"]))
        assert result.findings == []

    def test_bare_ignore_silences_every_rule(self):
        source = _source("""\
            try: pass
            except Exception: t = list(set(xs))  # lsd: ignore
            """)
        result = analyze_sources(
            [source], rules=get_rules(["set-iteration", "blind-except"]))
        assert result.findings == []

    def test_unrelated_rule_id_does_not_suppress(self):
        source = _source("""\
            t = list(set(xs))  # lsd: ignore[blind-except]
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["set-iteration"]))
        assert len(result.findings) == 1

    def test_suppression_is_line_scoped(self):
        source = _source("""\
            a = list(set(xs))  # lsd: ignore[set-iteration]
            b = list(set(xs))
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["set-iteration"]))
        assert [f.line for f in result.findings] == [2]

    def test_closing_paren_comment_covers_the_statement(self):
        # The finding is reported at the call's first line; the
        # suppression sits two lines down on the closing paren.
        source = _source("""\
            t = list(set(
                # spread over lines
                xs))  # lsd: ignore[set-iteration]
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["set-iteration"]))
        assert result.findings == []

    def test_decorator_line_comment_covers_the_def_header(self):
        source = _source("""\
            @property  # lsd: ignore[set-iteration]
            def f(self):
                pass
            """)
        # The span runs from the decorator through the def header but
        # stops before the body.
        assert source.suppressions.get(1) == {"set-iteration"}
        assert source.suppressions.get(2) == {"set-iteration"}
        assert source.suppressions.get(3) is None

    def test_span_does_not_leak_into_compound_body(self):
        source = _source("""\
            if (True
                    or False):  # lsd: ignore[set-iteration]
                t = list(set(xs))
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["set-iteration"]))
        assert [f.line for f in result.findings] == [3]

    def test_bare_ignore_dominates_merged_span(self):
        source = _source("""\
            t = max(  # lsd: ignore[set-iteration]
                list(set(xs)),
            )  # lsd: ignore
            """)
        # The bare ignore and the listed one merge over the statement's
        # span; bare wins, silencing every rule on every covered line.
        assert source.suppressions.get(1) == set()
        assert source.suppressions.get(2) == set()
        result = analyze_sources([source],
                                 rules=get_rules(["set-iteration"]))
        assert result.findings == []


class TestBaseline:
    def _findings(self):
        return [
            Finding("src/a.py", 3, "set-iteration", "msg one", "warning"),
            Finding("src/a.py", 9, "set-iteration", "msg one", "warning"),
            Finding("src/b.py", 1, "blind-except", "msg two"),
        ]

    def test_round_trip_through_file(self, tmp_path):
        baseline = Baseline.from_findings(self._findings())
        path = tmp_path / "analysis-baseline.txt"
        baseline.write(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries
        new, accepted = loaded.split(self._findings())
        assert new == []
        assert len(accepted) == 3

    def test_entries_are_a_multiset(self):
        findings = self._findings()
        baseline = Baseline.from_findings(findings[:1])
        new, accepted = baseline.split(findings[:2])
        # One entry absorbs one of the two identical findings.
        assert len(accepted) == 1 and len(new) == 1

    def test_line_shifts_do_not_invalidate_entries(self):
        baseline = Baseline.from_findings(
            [Finding("src/a.py", 3, "set-iteration", "msg one",
                     "warning")])
        shifted = [Finding("src/a.py", 77, "set-iteration", "msg one",
                           "warning")]
        new, accepted = baseline.split(shifted)
        assert new == [] and len(accepted) == 1

    def test_malformed_entry_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("only-two | fields\n")
        with pytest.raises(ValueError, match="malformed baseline"):
            Baseline.load(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# comment\n\nsrc/a.py | r | m\n")
        assert len(Baseline.load(path)) == 1


class TestFindings:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding("a.py", 1, "r", "m", "fatal")

    def test_render_and_sort(self):
        findings = [Finding("b.py", 2, "r", "m"),
                    Finding("a.py", 9, "r", "m"),
                    Finding("a.py", 2, "r", "m")]
        ordered = sort_findings(findings)
        assert [(f.path, f.line) for f in ordered] == \
            [("a.py", 2), ("a.py", 9), ("b.py", 2)]
        assert ordered[0].render() == "a.py:2: error [r] m"

    def test_json_artifact_summary(self):
        payload = json.loads(findings_to_json(
            [Finding("a.py", 1, "set-iteration", "m", "warning"),
             Finding("a.py", 2, "blind-except", "n")],
            baselined=3))
        assert payload["summary"]["total"] == 2
        assert payload["summary"]["baselined"] == 3
        assert payload["summary"]["by_rule"] == \
            {"set-iteration": 1, "blind-except": 1}
        assert payload["summary"]["by_severity"] == \
            {"warning": 1, "error": 1}

    def test_dict_round_trip(self):
        finding = Finding("a.py", 1, "r", "m", "warning")
        assert Finding.from_dict(finding.as_dict()) == finding


class TestDiscoveryAndParseErrors:
    def test_iter_python_files_sorted_and_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        files = list(iter_python_files([tmp_path, tmp_path / "pkg"]))
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_unparseable_file_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = analyze_paths([bad])
        assert not result.ok
        assert result.findings[0].rule == "parse-error"

    def test_rule_registry_is_complete(self):
        assert set(rule_ids()) == {
            "set-iteration", "blind-except", "span-unclosed",
            "metric-catalogue", "fault-site-catalogue"}

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(["bogus-rule"])

    def test_glob_selection_expands_over_rule_ids(self):
        assert {rule.id for rule in get_rules(["metric-*"])} == \
            {"metric-catalogue"}
        assert {rule.id for rule in get_rules(["*-catalogue"])} == {
            "metric-catalogue", "fault-site-catalogue"}

    def test_glob_matching_nothing_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(["zzz-*"])


class TestCli:
    def _write(self, tmp_path, name, code):
        path = tmp_path / name
        path.write_text(textwrap.dedent(code))
        return path

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "clean.py", CLEAN)
        assert lint_main([str(path), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_and_render(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.py", SET_ORDER_BAD)
        assert lint_main([str(path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "[set-iteration]" in out and "finding" in out

    def test_missing_path_exits_two(self, tmp_path):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_exits_two(self, tmp_path):
        path = self._write(tmp_path, "clean.py", CLEAN)
        assert lint_main([str(path), "--select", "bogus"]) == 2

    def test_select_narrows_the_rule_set(self, tmp_path):
        path = self._write(tmp_path, "bad.py", SET_ORDER_BAD)
        assert lint_main([str(path), "--no-baseline",
                          "--select", "blind-except"]) == 0

    def test_select_glob_pattern(self, tmp_path):
        path = self._write(tmp_path, "bad.py", SET_ORDER_BAD)
        assert lint_main([str(path), "--no-baseline",
                          "--select", "metric-*"]) == 0
        assert lint_main([str(path), "--no-baseline",
                          "--select", "set-*"]) == 1

    def test_unknown_glob_exits_two(self, tmp_path):
        path = self._write(tmp_path, "clean.py", CLEAN)
        assert lint_main([str(path), "--select", "zzz-*"]) == 2

    def test_list_rules_prints_every_rule(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out

    def test_json_artifact_written(self, tmp_path):
        path = self._write(tmp_path, "bad.py", SET_ORDER_BAD)
        artifact = tmp_path / "findings.json"
        assert lint_main([str(path), "--no-baseline",
                          "--json", str(artifact)]) == 1
        payload = json.loads(artifact.read_text())
        assert payload["summary"]["total"] == 1
        assert payload["findings"][0]["rule"] == "set-iteration"

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.py", SET_ORDER_BAD)
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("")
        assert lint_main([str(path), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        assert "wrote 1 accepted" in capsys.readouterr().out
        # The same finding is now baselined, so the gate passes...
        assert lint_main([str(path), "--baseline",
                          str(baseline)]) == 0
        # ...but a fresh violation still fails it.
        path.write_text(SET_ORDER_BAD + "\nagain = list(set([1]))\n")
        assert lint_main([str(path), "--baseline",
                          str(baseline)]) == 1

    def test_explicit_missing_baseline_fails_fast(self, tmp_path):
        path = self._write(tmp_path, "clean.py", CLEAN)
        with pytest.raises(SystemExit, match="does not exist"):
            lint_main([str(path), "--baseline",
                       str(tmp_path / "absent.txt")])

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in rule_ids():
            assert rule in out

    def test_repro_analyze_forwards_verbatim(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        path = self._write(tmp_path, "bad.py", SET_ORDER_BAD)
        assert repro_main(["analyze", "--list-rules"]) == 0
        capsys.readouterr()
        assert repro_main(["analyze", str(path),
                           "--no-baseline"]) == 1
        assert "[set-iteration]" in capsys.readouterr().out
