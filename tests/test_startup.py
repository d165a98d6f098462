"""Start-up loads only what runs.  Each start-up test runs a fresh
interpreter and reads its ``sys.modules``: the package, the CLI's parser and
``povmlab version`` load no numpy, the lattice loads only ``linalg`` and
``reporting`` beside it, so none of the check modules, and a serial ``run``
loads no thread pool.  The package serves its re-exports lazily, as the same
objects its modules define."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import povmlab
from povmlab.cli import build_parser

# the directory this process imports povmlab from, for the fresh interpreters
SOURCE = str(Path(povmlab.__file__).resolve().parent.parent)
CHECK_MODULES = {f"povmlab.{name}" for name in (
    "scenarios", "serialization", "signaling", "measurement", "generators", "conditional")}


def loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SOURCE, os.environ.get("PYTHONPATH")) if p))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", [
    "import povmlab",
    "import povmlab.cli\npovmlab.cli.build_parser()",
    "from povmlab.cli import main\nassert main(['version']) == 0",
])
def test_loads_no_numpy(code):
    assert "numpy" not in loaded(code)


def test_lattice_loads_no_check_module():
    modules = loaded("import povmlab.lattice")
    assert {m for m in modules if m.startswith("povmlab")} == {
        "povmlab", "povmlab.lattice", "povmlab.linalg", "povmlab.reporting"}
    assert not modules & CHECK_MODULES


@pytest.fixture
def batch(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenarios": [
        {"type": "gentle_sweep", "params": {"dims": [2], "instances": 4}},
        {"type": "rcc", "params": {"dim": 2}}]}))
    return str(path)


@pytest.mark.parametrize("workers, pool", [(None, False), (1, False), (2, True)])
def test_thread_pool_loads_only_for_several_workers(batch, workers, pool):
    argv = ["run", batch] + ([] if workers is None else ["--workers", str(workers)])
    modules = loaded(f"from povmlab.cli import main\nassert main({argv!r}) == 0")
    assert ("concurrent.futures" in modules) is pool


def test_gen_takes_the_generator_kinds(capsys):
    from povmlab import generators

    assert generators.KINDS is povmlab.KINDS
    for kind in povmlab.KINDS:
        assert build_parser().parse_args(["gen", kind, "--dim", "2", "--seed", "0"]).kind == kind
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gen", "matrix", "--dim", "2", "--seed", "0"])
    assert "invalid choice: 'matrix'" in capsys.readouterr().err


class TestLazyPackage:
    @pytest.mark.parametrize("name", povmlab.__all__)
    def test_name_is_its_home_module_object(self, name):
        obj = getattr(povmlab, name)
        assert obj.__module__.startswith("povmlab.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert vars(povmlab)[name] is obj  # cached after the first access
        assert name in dir(povmlab)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            povmlab.no_such_name  # noqa: B018
        assert not hasattr(povmlab, "no_such_name")

    def test_star_import(self):
        namespace: dict = {}
        exec("from povmlab import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == povmlab.__all__
        assert all(namespace[name] is getattr(povmlab, name) for name in povmlab.__all__)
