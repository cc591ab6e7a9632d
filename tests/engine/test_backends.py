"""The execution-backend registry and dispatch protocol."""

import pytest

from repro.engine import Query
from repro.engine.backends import (
    ExecutionBackend,
    MemoryBackend,
    backend_named,
    register_backend,
    registered_backends,
    resolve_backend,
)


class TestRegistry:
    def test_defaults_present(self):
        names = registered_backends()
        assert "memory" in names and "sql" in names
        assert "sharded" in names  # lazily registered, still listed

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError) as excinfo:
            backend_named("bogus")
        message = str(excinfo.value)
        assert "bogus" in message
        for name in ("memory", "sql", "sharded"):
            assert f"'{name}'" in message

    def test_execute_and_explain_share_the_error(self, snapshot_mo):
        """The satellite fix: the two methods used to duplicate the
        unknown-backend ValueError; both now resolve through the one
        registry lookup and raise its message."""
        q = Query(snapshot_mo)
        with pytest.raises(ValueError) as from_execute:
            q.execute(backend="bogus")
        with pytest.raises(ValueError) as from_explain:
            q.explain(backend="bogus")
        assert str(from_execute.value) == str(from_explain.value)
        assert "registered backends" in str(from_execute.value)

    def test_register_requires_name(self):
        class Nameless(ExecutionBackend):
            name = ""

            def run(self, query, plan, function, strict_types):
                raise AssertionError("never dispatched")

        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(Nameless())

    def test_register_same_instance_is_idempotent(self):
        backend = backend_named("memory")
        assert register_backend(backend) is backend

    def test_register_conflict_needs_replace(self):
        original = backend_named("memory")
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_backend(MemoryBackend())
            replacement = register_backend(MemoryBackend(), replace=True)
            assert backend_named("memory") is replacement
        finally:
            register_backend(original, replace=True)

    def test_resolve_passes_instances_through(self):
        backend = MemoryBackend()
        assert resolve_backend(backend) is backend
        assert resolve_backend("memory") is backend_named("memory")

    def test_instance_backend_executes(self, snapshot_mo):
        q = Query(snapshot_mo).rollup("Residence", "County")
        via_name = q.execute(check=False, cache=False)
        via_instance = q.execute(check=False, cache=False,
                                 backend=MemoryBackend())
        assert via_name == via_instance
