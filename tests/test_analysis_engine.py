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

WALLCLOCK_BAD = """\
import time

def stamp():
    return time.time()
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
            import time
            t = time.time()  # lsd: ignore[wallclock]
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["wallclock"]))
        assert result.findings == []

    def test_bare_ignore_silences_every_rule(self):
        source = _source("""\
            import time, random
            t = time.time(); random.random()  # lsd: ignore
            """)
        result = analyze_sources(
            [source], rules=get_rules(["wallclock", "unseeded-random"]))
        assert result.findings == []

    def test_unrelated_rule_id_does_not_suppress(self):
        source = _source("""\
            import time
            t = time.time()  # lsd: ignore[blind-except]
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["wallclock"]))
        assert len(result.findings) == 1

    def test_suppression_is_line_scoped(self):
        source = _source("""\
            import time
            a = time.time()  # lsd: ignore[wallclock]
            b = time.time()
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["wallclock"]))
        assert [f.line for f in result.findings] == [3]

    def test_closing_paren_comment_covers_the_statement(self):
        # The finding is reported at the call's first line; the
        # suppression sits two lines down on the closing paren.
        source = _source("""\
            import time
            t = time.time(
                # spread over lines
            )  # lsd: ignore[wallclock]
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["wallclock"]))
        assert result.findings == []

    def test_decorator_line_comment_covers_the_def_header(self):
        source = _source("""\
            @property  # lsd: ignore[wallclock]
            def f(self):
                pass
            """)
        # The span runs from the decorator through the def header but
        # stops before the body.
        assert source.suppressions.get(1) == {"wallclock"}
        assert source.suppressions.get(2) == {"wallclock"}
        assert source.suppressions.get(3) is None

    def test_span_does_not_leak_into_compound_body(self):
        source = _source("""\
            import time
            if (True
                    or False):  # lsd: ignore[wallclock]
                t = time.time()
            """)
        result = analyze_sources([source],
                                 rules=get_rules(["wallclock"]))
        assert [f.line for f in result.findings] == [4]

    def test_bare_ignore_dominates_merged_span(self):
        source = _source("""\
            import time
            t = max(  # lsd: ignore[wallclock]
                time.time(),
            )  # lsd: ignore
            """)
        # The bare ignore and the listed one merge over the statement's
        # span; bare wins, silencing every rule on every covered line.
        assert source.suppressions.get(2) == set()
        assert source.suppressions.get(3) == set()
        result = analyze_sources([source],
                                 rules=get_rules(["wallclock"]))
        assert result.findings == []


class TestBaseline:
    def _findings(self):
        return [
            Finding("src/a.py", 3, "wallclock", "msg one", "warning"),
            Finding("src/a.py", 9, "wallclock", "msg one", "warning"),
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
            [Finding("src/a.py", 3, "wallclock", "msg one", "warning")])
        shifted = [Finding("src/a.py", 77, "wallclock", "msg one",
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
            [Finding("a.py", 1, "wallclock", "m", "warning"),
             Finding("a.py", 2, "blind-except", "n")],
            baselined=3))
        assert payload["summary"]["total"] == 2
        assert payload["summary"]["baselined"] == 3
        assert payload["summary"]["by_rule"] == \
            {"wallclock": 1, "blind-except": 1}
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
            "unseeded-random", "wallclock", "set-iteration",
            "process-unsafe-state", "learner-contract",
            "metric-catalogue", "event-catalogue", "span-unclosed",
            "blind-except", "fault-site-catalogue",
            "flow-nondeterministic-path", "flow-worker-shared-write",
            "flow-fault-unhandled", "flow-unresolved-hot-call",
            "flow-observer-gap"}

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(["bogus-rule"])

    def test_glob_selection_expands_over_rule_ids(self):
        assert {rule.id for rule in get_rules(["metric-*"])} == \
            {"metric-catalogue"}
        flow = {rule.id for rule in get_rules(["flow-*"])}
        assert flow == {
            "flow-nondeterministic-path", "flow-worker-shared-write",
            "flow-fault-unhandled", "flow-unresolved-hot-call",
            "flow-observer-gap"}

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
        path = self._write(tmp_path, "bad.py", WALLCLOCK_BAD)
        assert lint_main([str(path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "[wallclock]" in out and "finding" in out

    def test_missing_path_exits_two(self, tmp_path):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_exits_two(self, tmp_path):
        path = self._write(tmp_path, "clean.py", CLEAN)
        assert lint_main([str(path), "--select", "bogus"]) == 2

    def test_select_narrows_the_rule_set(self, tmp_path):
        path = self._write(tmp_path, "bad.py", WALLCLOCK_BAD)
        assert lint_main([str(path), "--no-baseline",
                          "--select", "blind-except"]) == 0

    def test_select_glob_pattern(self, tmp_path):
        path = self._write(tmp_path, "bad.py", WALLCLOCK_BAD)
        assert lint_main([str(path), "--no-baseline",
                          "--select", "metric-*"]) == 0
        assert lint_main([str(path), "--no-baseline",
                          "--select", "wall*"]) == 1

    def test_unknown_glob_exits_two(self, tmp_path):
        path = self._write(tmp_path, "clean.py", CLEAN)
        assert lint_main([str(path), "--select", "zzz-*"]) == 2

    def test_list_rules_prints_every_rule(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out
        # Per-file and flow rules are labelled as such.
        assert " file " in out and " flow " in out

    def test_json_artifact_written(self, tmp_path):
        path = self._write(tmp_path, "bad.py", WALLCLOCK_BAD)
        artifact = tmp_path / "findings.json"
        assert lint_main([str(path), "--no-baseline",
                          "--json", str(artifact)]) == 1
        payload = json.loads(artifact.read_text())
        assert payload["summary"]["total"] == 1
        assert payload["findings"][0]["rule"] == "wallclock"

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.py", WALLCLOCK_BAD)
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("")
        assert lint_main([str(path), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        assert "wrote 1 accepted" in capsys.readouterr().out
        # The same finding is now baselined, so the gate passes...
        assert lint_main([str(path), "--baseline",
                          str(baseline)]) == 0
        # ...but a fresh violation still fails it.
        path.write_text(WALLCLOCK_BAD + "\nstamp2 = time.time()\n")
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

        path = self._write(tmp_path, "bad.py", WALLCLOCK_BAD)
        assert repro_main(["analyze", "--list-rules"]) == 0
        capsys.readouterr()
        assert repro_main(["analyze", str(path),
                           "--no-baseline"]) == 1
        assert "[wallclock]" in capsys.readouterr().out
