"""Per-rule tests for the static checker: each rule gets a known-good
snippet (no findings) and injected violations (the findings the lint
gate must catch)."""

import textwrap
from pathlib import Path

from repro.analysis.engine import SourceFile, analyze_sources, get_rules


def lint(code: str, rule: str,
         display: str = "src/repro/example.py") -> list:
    """Findings of one rule over one dedented snippet."""
    source = SourceFile(Path(display), display, textwrap.dedent(code))
    return analyze_sources([source], rules=get_rules([rule])).findings


def lint_project(files: list[tuple[str, str]], rule: str) -> list:
    """Findings of one rule over several (display, code) snippets."""
    sources = [SourceFile(Path(display), display, textwrap.dedent(code))
               for display, code in files]
    return analyze_sources(sources, rules=get_rules([rule])).findings


class TestSetIteration:
    def test_for_loop_over_set_flagged(self):
        findings = lint("""\
            for x in {1, 2, 3}:
                print(x)
            """, "set-iteration")
        assert len(findings) == 1

    def test_comprehension_over_set_flagged(self):
        findings = lint("""\
            def f(xs):
                return [x + 1 for x in set(xs)]
            """, "set-iteration")
        assert len(findings) == 1

    def test_order_capturing_wrapper_flagged(self):
        findings = lint("""\
            def f(xs):
                return list(set(xs)), ", ".join({"a", "b"})
            """, "set-iteration")
        assert len(findings) == 2
        # OS entropy varies run to run just like set order.
        findings = lint("""\
            import os, uuid
            from uuid import uuid1 as stamp
            ids = uuid.uuid4(), stamp(), os.urandom(8), uuid.UUID(int=7)
            """, "set-iteration")
        assert [f.message.split("(")[0] for f in findings] == \
            ["os.urandom", "uuid.uuid1", "uuid.uuid4"]

    def test_sorted_and_reductions_clean(self):
        assert lint("""\
            def f(xs):
                for x in sorted(set(xs)):
                    print(x)
                return sum(set(xs)), len({1, 2}), max(set(xs))
            """, "set-iteration") == []


METRICS = """\
    M_GOOD = "lsd.good"
    M_UNUSED = "lsd.unused"

    CATALOGUE = {
        M_GOOD: ("counter", "a used metric"),
        M_UNUSED: ("gauge", "declared but never emitted"),
    }
    """


class TestMetricCatalogue:
    def test_clean_when_vocabulary_agrees(self):
        findings = lint_project([
            ("src/repro/observability/metrics.py", """\
                M_GOOD = "lsd.good"

                CATALOGUE = {
                    M_GOOD: ("counter", "a used metric"),
                }
                """),
            ("src/repro/core/emit.py", """\
                from ..observability.metrics import M_GOOD

                def work(obs):
                    obs.metrics.counter(M_GOOD).inc()
                """),
        ], "metric-catalogue")
        assert findings == []

    def test_undeclared_and_never_emitted_flagged(self):
        findings = lint_project([
            ("src/repro/observability/metrics.py", METRICS),
            ("src/repro/core/emit.py", """\
                from ..observability.metrics import M_GOOD

                def work(obs):
                    obs.metrics.counter(M_GOOD).inc()
                    obs.metrics.counter("lsd.rogue").inc()
                """),
        ], "metric-catalogue")
        messages = {f.message for f in findings}
        assert any("lsd.rogue" in m and "not declared" in m
                   for m in messages)
        assert any("lsd.unused" in m and "never emitted" in m
                   for m in messages)
        assert len(findings) == 2

    def test_kind_mismatch_flagged(self):
        findings = lint_project([
            ("src/repro/observability/metrics.py", """\
                M_GOOD = "lsd.good"

                CATALOGUE = {
                    M_GOOD: ("counter", "a used metric"),
                }
                """),
            ("src/repro/core/emit.py", """\
                from ..observability.metrics import M_GOOD

                def work(obs):
                    obs.metrics.gauge(M_GOOD).set(1)
                """),
        ], "metric-catalogue")
        assert len(findings) == 1
        assert "catalogued as a counter" in findings[0].message

    def test_scratch_names_in_tests_exempt(self):
        """Registry unit tests emit throwaway names; only the
        never-emitted direction may still fire, not undeclared."""
        findings = lint_project([
            ("src/repro/observability/metrics.py", """\
                M_GOOD = "lsd.good"

                CATALOGUE = {
                    M_GOOD: ("counter", "a used metric"),
                }
                """),
            ("tests/test_registry.py", """\
                def test_counter(registry):
                    registry.counter("scratch").inc()
                """),
            ("src/repro/core/emit.py", """\
                from ..observability.metrics import M_GOOD

                def work(obs):
                    obs.metrics.counter(M_GOOD).inc()
                """),
        ], "metric-catalogue")
        assert findings == []


class TestSpanUnclosed:
    def test_bare_span_call_flagged(self):
        findings = lint("""\
            def work(trace):
                span = trace.span("match")
                span.set_attribute("x", 1)
            """, "span-unclosed")
        assert len(findings) == 1

    def test_with_statement_clean(self):
        assert lint("""\
            def work(trace):
                with trace.span("match") as outer:
                    with trace.span("predict", parent=outer.span_id):
                        pass
                with trace.span("a"), trace.span("b"):
                    pass
            """, "span-unclosed") == []


class TestBlindExcept:
    def test_bare_except_flagged(self):
        findings = lint("""\
            try:
                risky()
            except:
                pass
            """, "blind-except")
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_blind_exception_without_reraise_flagged(self):
        findings = lint("""\
            def f():
                try:
                    risky()
                except Exception as exc:
                    print(exc)
            """, "blind-except")
        assert len(findings) == 1

    def test_blind_name_inside_tuple_flagged(self):
        findings = lint("""\
            try:
                risky()
            except (RuntimeError, Exception):
                pass
            """, "blind-except")
        assert len(findings) == 1

    def test_concrete_and_reraising_handlers_clean(self):
        assert lint("""\
            def f():
                try:
                    risky()
                except ValueError:
                    pass
                try:
                    risky()
                except Exception:
                    cleanup()
                    raise
            """, "blind-except") == []



class TestGcTuning:
    def test_tuning_calls_flagged_in_every_spelling(self):
        findings = lint("""\
            import gc
            import gc as collector
            from gc import freeze, set_threshold as tune

            gc.disable()
            collector.set_threshold(100000)
            freeze()
            tune(700, 10, 10)
            """, "gc-tuning")
        assert [f.message.split("(")[0] for f in findings] == \
            ["gc.disable", "gc.set_threshold", "gc.freeze",
             "gc.set_threshold"]

    def test_benchmarks_are_checked(self):
        findings = lint("import gc\ngc.freeze()\n", "gc-tuning",
                        display="benchmarks/pipeline/example.py")
        assert len(findings) == 1

    def test_observing_the_collector_is_clean(self):
        assert lint("""\
            import gc
            from gc import collect

            gc.collect()
            collect()
            gc.enable()
            gc.get_threshold()
            gc.callbacks.append(print)
            pool.disable()
            freeze()
            """, "gc-tuning") == []

    def test_tests_may_drive_the_collector(self):
        assert lint("import gc\ngc.disable()\n", "gc-tuning",
                    display="tests/test_probe.py") == []
