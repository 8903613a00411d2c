"""Registry error paths and invariants (SL006's runtime counterpart)."""

import inspect

import pytest

from repro.common.exceptions import ParameterError
from repro.core import available, create, register
from repro.core.registry import _REGISTRY

from tests.core.test_cold_import import BUILTIN_COUNT, run_child


class TestErrorPaths:
    def test_unknown_name_raises_with_known_names_listed(self):
        with pytest.raises(ParameterError, match="unknown synopsis"):
            create("definitely_not_a_sketch")
        with pytest.raises(ParameterError, match="hyperloglog"):
            # the error message lists known names to aid discovery
            create("definitely_not_a_sketch")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register("hyperloglog", object)

    def test_duplicate_rejected_case_insensitively(self):
        with pytest.raises(ParameterError, match="already registered"):
            register("HyperLogLog", object)

    def test_bad_params_propagate_from_factory(self):
        with pytest.raises(TypeError):
            create("hyperloglog", not_a_real_param=1)


class TestCaseInsensitivity:
    def test_create_is_case_insensitive(self):
        a = create("HyperLogLog", precision=8, seed=1)
        b = create("hyperloglog", precision=8, seed=1)
        assert type(a) is type(b)

    def test_available_names_are_lowercase(self):
        assert all(name == name.lower() for name in available())


class TestCoverage:
    def test_every_builtin_name_constructs_or_validates(self):
        """Every registered factory is callable and introspectable."""
        for name in available():
            factory = _REGISTRY[name]
            assert callable(factory), name
            # factories must accept keyword params (create passes **params)
            sig = inspect.signature(factory)
            assert sig is not None

    def test_registry_includes_previously_drifted_synopses(self):
        # qdigest was imported by the registry but never registered before
        # streamlint SL006 existed; pin the fix.
        names = available()
        for expected in ("qdigest", "summary", "kalman", "hoeffding_tree", "clustream"):
            assert expected in names

    def test_spot_check_constructions(self):
        assert create("qdigest", depth=12, k=32) is not None
        assert create("online_kmeans", k=3, dims=2, seed=7) is not None
        assert create("retouched_bloom", capacity=100, fp_rate=0.01) is not None


class TestFirstUse:
    """The builtin table fills on first use; each case is a fresh interpreter."""

    def test_builtin_name_taken_before_any_create(self):
        out = run_child(
            """
            from repro.common.exceptions import ParameterError
            from repro.core import register
            try:
                register("count_min", object)
            except ParameterError as exc:
                print(exc)
            """
        )
        assert "already registered" in out

    def test_user_name_registered_first_survives_builtin_load(self):
        out = run_child(
            """
            from repro.core import available, create, register
            register("my_sketch", dict)
            names = available()
            print(len(names), "my_sketch" in names, create("my_sketch", a=1) == {"a": 1})
            """
        )
        assert out.split() == [str(BUILTIN_COUNT + 1), "True", "True"]

    def test_concurrent_first_creates_load_builtins_once(self):
        out = run_child(
            """
            import threading
            import repro.core.registry as registry

            loads = []
            original = registry._register_builtins

            def counted():
                loads.append(1)
                original()

            registry._register_builtins = counted
            barrier = threading.Barrier(8)
            built, errors = [], []

            def first_create():
                barrier.wait()
                try:
                    built.append(registry.create("hyperloglog", precision=8))
                except Exception as exc:
                    errors.append(repr(exc))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=first_create) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            print(sum(t.is_alive() for t in threads), len(built), errors, len(loads))
            print(len(registry.available()))
            """
        )
        assert out.splitlines() == ["0 8 [] 1", str(BUILTIN_COUNT)]

    def test_unknown_name_as_first_call_lists_every_builtin(self):
        out = run_child(
            """
            from repro.common.exceptions import ParameterError
            from repro.core import available, create
            try:
                create("definitely_not_a_sketch")
            except ParameterError as exc:
                message = str(exc)
            known = message.split("known: ", 1)[1].split(", ")
            print(known == available(), len(known))
            """
        )
        assert out.split() == ["True", str(BUILTIN_COUNT)]
