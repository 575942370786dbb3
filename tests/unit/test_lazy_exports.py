"""The lazy package roots: ``repro``, ``repro.obs``, ``repro.core``,
``repro.backend`` and ``repro.serve`` resolve their public names on
first access (``repro/util/lazy.py``) and still behave like the eager
re-export hubs they replaced."""
import ast
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.obs
from repro.util.lazy import lazy_exports

SRC = Path(__file__).resolve().parents[2] / "src"
LAZY_PACKAGES = (
    "repro", "repro.obs", "repro.core", "repro.backend", "repro.serve",
)


def _child(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _type_checking_imports(package: str) -> dict:
    """``{name: module}`` of the ``if TYPE_CHECKING:`` block."""
    source = Path(importlib.import_module(package).__file__).read_text()
    block = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.If)
        and getattr(node.test, "id", None) == "TYPE_CHECKING"
    )
    return {
        alias.name: node.module
        for node in block.body
        for alias in node.names
    }


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestEveryLazyPackage:
    def test_each_name_is_the_object_its_home_module_defines(self, package):
        module = importlib.import_module(package)
        homes = _type_checking_imports(package)
        public = [n for n in module.__all__ if n != "__version__"]
        assert sorted(public) == sorted(homes)
        for name in public:
            home = importlib.import_module(homes[name])
            assert getattr(module, name) is getattr(home, name), name

    def test_dir_lists_every_public_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import_binds_every_public_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(namespace)

    def test_unknown_name_names_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            module.definitely_not_a_name

    def test_importing_the_package_imports_no_sibling(self, package):
        loaded = _child(
            f"import sys, {package}\n"
            "print(' '.join(m for m in sys.modules "
            "if m.startswith('repro')))"
        ).split()
        parents = {
            package.rsplit(".", n)[0] for n in range(package.count(".") + 1)
        }
        assert set(loaded) == parents | {
            "repro.util", "repro.util.errors", "repro.util.lazy",
        }


def test_removed_legacy_names_keep_their_messages():
    for name in ("run_programs", "analyze_trace",
                 "detect_deadlocks_distributed"):
        with pytest.raises(AttributeError, match="removed in 1.2") as info:
            getattr(repro, name)
        assert "Session" in str(info.value)
        assert name not in repro.__all__ and name not in dir(repro)
    assert repro.__version__ == "1.2.0"


def test_a_resolved_name_is_cached_in_the_package_namespace():
    namespace = {"__name__": "pkg"}
    getter, lister, names = lazy_exports(
        namespace, {"OrderedDict": "collections"}
    )
    assert names == ["OrderedDict"] and "OrderedDict" in lister()
    assert "OrderedDict" not in namespace
    import collections

    assert getter("OrderedDict") is collections.OrderedDict
    assert namespace["OrderedDict"] is collections.OrderedDict
    with pytest.raises(AttributeError, match="module 'pkg' has no attribute"):
        getter("nope")


def test_submodules_still_import_through_a_lazy_package():
    # ``from package import submodule`` falls back to importing the
    # submodule after ``__getattr__`` raises AttributeError.
    out = _child(
        "from repro.core import messages as m\n"
        "from repro.serve import protocol\n"
        "print(m.__name__, protocol.__name__)"
    )
    assert out.split() == ["repro.core.messages", "repro.serve.protocol"]


def test_make_backend_imports_sharded_only_when_asked():
    out = _child(
        "import sys\n"
        "from repro.backend import make_backend\n"
        "make_backend('inline')\n"
        "print('repro.backend.sharded' in sys.modules,"
        " 'multiprocessing' in sys.modules)\n"
        "make_backend('sharded', shards=2)\n"
        "print('repro.backend.sharded' in sys.modules,"
        " 'multiprocessing' in sys.modules)\n"
    )
    assert out.split() == ["False", "False", "True", "True"]


def test_sharded_run_after_a_lazy_import_still_pickles_its_specs():
    # Through the lazy roots only: the worker specs and messages are
    # pickled by their home modules' names, which lazy access keeps.
    from repro import Session, ShardedBackend
    from repro.workloads import fig2a_programs

    session = Session(backend="sharded", shards=2)
    assert isinstance(session.backend, ShardedBackend)
    assert session.run(fig2a_programs()).deadlocked == (0, 1)
    for cls in (Session, ShardedBackend, repro.obs.WorkerObsSpec):
        assert pickle.loads(pickle.dumps(cls)) is cls


def test_the_cli_restates_the_backend_default_shard_count():
    from repro.backend.base import DEFAULT_SHARDS
    from repro.cli import common

    assert common.DEFAULT_SHARDS == DEFAULT_SHARDS
