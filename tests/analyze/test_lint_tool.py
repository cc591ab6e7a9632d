"""Tests for tools/lint_invariants.py — the engine-invariant AST lint."""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
TOOLS = REPO / "tools"

sys.path.insert(0, str(TOOLS))

import lint_invariants  # noqa: E402


def _check_pairing(source: str):
    return lint_invariants.check_version_log_pairing(
        TOOLS / "fake.py", ast.parse(source))


class TestVersionLogPairing:
    def test_paired_mutator_is_clean(self):
        problems = _check_pairing("""
class AnnotatedOrder:
    def add_node(self, node):
        if node not in self._nodes:
            self._nodes.add(node)
            self._version += 1
            self._log.record(self._version, ("node", node))
""")
        assert problems == []

    def test_bump_without_record_flagged(self):
        problems = _check_pairing("""
class FactDimensionRelation:
    def add(self, fact, value):
        self._entries[fact] = value
        self._version += 1
""")
        assert len(problems) == 1
        assert "never records a change-log entry" in problems[0]

    def test_record_without_bump_flagged(self):
        problems = _check_pairing("""
class MultidimensionalObject:
    def add_fact(self, fact):
        self._fact_log.record(self._facts_version, ("add", fact))
""")
        assert len(problems) == 1
        assert "never bumps a version counter" in problems[0]

    def test_unbalanced_counts_flagged(self):
        problems = _check_pairing("""
class AnnotatedOrder:
    def add_edge(self, child, parent):
        self._version += 1
        self._version += 1
        self._log.record(self._version, ("edge", child, parent))
""")
        assert any("exactly one log entry" in p for p in problems)

    def test_other_classes_ignored(self):
        problems = _check_pairing("""
class SomethingElse:
    def mutate(self):
        self._version += 1
""")
        assert problems == []


class TestObsNamesDocumented:
    def _check(self, source, doc_text):
        return lint_invariants.check_obs_names_documented(
            TOOLS / "fake.py", ast.parse(source), doc_text)

    def test_documented_literal_is_clean(self):
        source = '_C = metrics.counter("layer.thing")'
        assert self._check(source, "the `layer.thing` counter") == []

    def test_undocumented_literal_flagged(self):
        source = '_C = metrics.counter("layer.thing")'
        problems = self._check(source, "nothing here")
        assert len(problems) == 1
        assert "layer.thing" in problems[0]

    def test_dynamic_names_skipped(self):
        source = 'metrics.counter(f"analyze.diagnostics.{code}")'
        assert self._check(source, "nothing here") == []

    def test_span_names_checked(self):
        source = 'with trace.span("layer.op"):\n    pass'
        assert len(self._check(source, "")) == 1


class TestKernelPairing:
    def _check(self, source):
        classes = lint_invariants._collect_classes(
            [(TOOLS / "fake.py", ast.parse(source))])
        return lint_invariants.check_kernel_pairing(classes)

    BASE = """
class AggregationFunction:
    def apply(self, facts, mo): ...
    def batch_apply(self, keys, measures): ...
"""

    def test_paired_overrides_are_clean(self):
        problems = self._check(self.BASE + """
class Sum(AggregationFunction):
    def apply(self, facts, mo): ...
    def batch_apply(self, keys, measures): ...
""")
        assert problems == []

    def test_apply_only_override_is_clean(self):
        # no kernel anywhere below the base: the object path is the
        # only path, nothing can disagree
        problems = self._check(self.BASE + """
class Median(AggregationFunction):
    def apply(self, facts, mo): ...
""")
        assert problems == []

    def test_kernel_without_apply_flagged(self):
        problems = self._check(self.BASE + """
class Fast(AggregationFunction):
    def batch_apply(self, keys, measures): ...
""")
        assert len(problems) == 1
        assert "Fast" in problems[0]

    def test_apply_override_under_inherited_kernel_flagged(self):
        problems = self._check(self.BASE + """
class Sum(AggregationFunction):
    def apply(self, facts, mo): ...
    def batch_apply(self, keys, measures): ...

class TweakedSum(Sum):
    def apply(self, facts, mo): ...
""")
        assert len(problems) == 1
        assert "TweakedSum" in problems[0]

    def test_unrelated_classes_ignored(self):
        problems = self._check("""
class Other:
    def batch_apply(self, keys, measures): ...
""")
        assert problems == []


class TestCatalogDocumented:
    def test_catalog_codes_in_analysis_doc(self):
        problems = lint_invariants.check_catalog_documented()
        assert problems == [], problems


class TestVersionVectorCompleteness:
    def _check(self, source):
        return lint_invariants.check_version_vector_completeness(
            [(TOOLS / "fake.py", ast.parse(source))])

    def test_complete_stamp_is_clean(self):
        problems = self._check("""
def version_vector(mo):
    return (mo.facts_version, tuple(
        (name, mo.relation(name).version,
         mo.dimension(name).order.version)
        for name in mo.dimension_names))
""")
        assert problems == []

    def test_missing_counter_flagged(self):
        problems = self._check("""
def _version_stamp(self):
    return (self._mo.facts_version, tuple(
        (name, self._mo.relation(name).version)
        for name in self._mo.dimension_names))
""")
        assert len(problems) == 1
        assert "order" in problems[0]

    def test_no_stamp_function_flagged(self):
        problems = self._check("def unrelated(): pass")
        assert len(problems) == 1
        assert "staleness stamp" in problems[0]

    def test_repo_stamps_are_complete(self):
        forest = [(path, ast.parse(path.read_text(encoding="utf-8")))
                  for path in sorted((REPO / "src").rglob("*.py"))]
        assert lint_invariants.check_version_vector_completeness(
            forest) == []


def test_lint_passes_on_this_repo():
    result = subprocess.run(
        [sys.executable, str(TOOLS / "lint_invariants.py")],
        capture_output=True, text=True, cwd=REPO)
    assert result.returncode == 0, result.stdout + result.stderr


class TestLockDiscipline:
    RULE = lint_invariants.LockRule(
        "fake.py",
        locks=frozenset({"_TOKEN_LOCK", "self._lock"}),
        guarded=frozenset({"_TOKENS", "self._entries"}),
        atomic=frozenset({"_TOKENS.append"}))

    def _check(self, source, rule=None):
        return lint_invariants.check_lock_discipline(
            Path("fake.py"), ast.parse(source), rule or self.RULE)

    def test_locked_mutation_is_clean(self):
        assert self._check("""
def store(key, value):
    with _TOKEN_LOCK:
        _TOKENS[key] = value
        _TOKENS.pop(None, None)
""") == []

    def test_unlocked_assignment_flagged(self):
        problems = self._check("""
def store(key, value):
    _TOKENS[key] = value
""")
        assert len(problems) == 1
        assert "_TOKENS" in problems[0]
        assert "outside" in problems[0]

    def test_unlocked_mutator_call_flagged(self):
        problems = self._check("""
def evict(key):
    _TOKENS.pop(key, None)
""")
        assert len(problems) == 1
        assert "_TOKENS.pop" in problems[0]

    def test_unlocked_rmw_in_loop_flagged(self):
        # the seeded-violation shape the rule exists for: check-then-set
        # without the lock, inside control flow
        problems = self._check("""
def register(key, value):
    if key not in _TOKENS:
        _TOKENS[key] = value
    return _TOKENS[key]
""")
        assert len(problems) == 1

    def test_self_attr_lock_and_guard(self):
        assert self._check("""
class Cache:
    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
""") == []
        problems = self._check("""
class Cache:
    def put(self, key, value):
        self._entries[key] = value
""")
        assert len(problems) == 1
        assert "self._entries" in problems[0]

    def test_init_is_exempt(self):
        assert self._check("""
class Cache:
    def __init__(self):
        self._entries = {}
""") == []

    def test_locked_suffix_helper_is_exempt(self):
        assert self._check("""
class Cache:
    def _drop_locked(self, key):
        self._entries.pop(key, None)
""") == []

    def test_atomic_exemption(self):
        assert self._check("""
def record(item):
    _TOKENS.append(item)
""") == []
        # the exemption is per-method, not per-name
        problems = self._check("""
def record(item):
    _TOKENS.extend([item])
""")
        assert len(problems) == 1

    def test_nested_function_does_not_inherit_lock(self):
        # the closure may run after the with-block exits
        problems = self._check("""
def outer():
    with _TOKEN_LOCK:
        def later():
            _TOKENS.clear()
        return later
""")
        assert len(problems) == 1
        assert "later" in problems[0]

    def test_module_level_init_is_exempt(self):
        # import-time assignment: no other thread holds a reference yet
        assert self._check("_TOKENS = {}") == []

    def test_rule_targets_exist_in_repo(self):
        """Every LOCK_RULES file (and its lock/guard names) exists —
        a rename must update the config, not silently skip it."""
        for rule in lint_invariants.LOCK_RULES:
            path = REPO / "src" / "repro" / rule.file
            assert path.is_file(), rule.file
            text = path.read_text(encoding="utf-8")
            for name in sorted(rule.locks | rule.guarded):
                assert name.replace("self.", "") in text, (rule.file, name)

    def test_seeded_violation_fails_on_real_rule(self):
        """The plan_fingerprint rule catches an unlocked token-table
        write of exactly the shape the real module guards."""
        rule = next(r for r in lint_invariants.LOCK_RULES
                    if r.file == "engine/plan_fingerprint.py")
        problems = self._check("""
def mo_token(mo):
    token = _TOKENS.get(mo)
    if token is None:
        _TOKENS[mo] = token = 7
    return token
""", rule)
        assert len(problems) == 1
        assert "_TOKEN_LOCK" in problems[0]

    def test_repo_satisfies_lock_discipline(self):
        src = REPO / "src" / "repro"
        for rule in lint_invariants.LOCK_RULES:
            path = src / rule.file
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert lint_invariants.check_lock_discipline(
                path, tree, rule) == []


class TestClockReads:
    PLANTED = """
import time
from time import perf_counter as clock


class Query:
    def _run(self):
        t0 = time.perf_counter()
        return clock() - t0

    def _answer(self):
        return time.monotonic_ns()
"""

    def _check(self, rel, source=PLANTED):
        return lint_invariants.check_clock_reads(rel, ast.parse(source))

    def test_planted_engine_clock_reads_flagged(self):
        problems = self._check("engine/sharded.py")
        assert len(problems) == 3
        assert all("trace.span" in p for p in problems)
        assert "time.perf_counter() in Query._run" in problems[0]
        assert "clock() in Query._run" in problems[1]
        assert "time.monotonic_ns() in Query._answer" in problems[2]

    def test_allow_listed_site_not_flagged(self):
        # engine/query.py lists Query._answer, and only that method
        problems = self._check("engine/query.py")
        assert len(problems) == 2
        assert not any("Query._answer" in p for p in problems)

    def test_trace_module_exempt(self):
        assert self._check(lint_invariants.TIMING_MODULE) == []

    def test_repository_passes(self):
        src = REPO / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert lint_invariants.check_clock_reads(rel, tree) == [], rel
        for site in lint_invariants.CLOCK_SITES:
            text = (src / site.file).read_text(encoding="utf-8")
            assert f"def {site.function.split('.')[-1]}(" in text, site
