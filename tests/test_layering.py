"""Each process loads only the modules it runs: the package root imports
nothing, and the relay path has no numpy."""
import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import dancegraph

SRC = Path(__file__).resolve().parents[1] / "src"


def test_relay_path_and_server_command_load_without_numpy():
    script = (
        "import sys\n"
        "import dancegraph.transport, dancegraph.packet, dancegraph.router\n"
        "from dancegraph.cli import build_parser\n"
        "args = build_parser().parse_args(['server', '--bind', '127.0.0.1:0', '--timeout-ms', '9'])\n"
        "assert args.bind == ('127.0.0.1', 0) and args.timeout_ms == 9, args\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.'))\n"
        "assert not loaded, loaded[:5]\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=SRC, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_package_root_imports_nothing():
    script = (
        "import sys\n"
        "import dancegraph\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('dancegraph.') or m == 'numpy')\n"
        "assert not loaded, loaded\n"
        "public = [name for name in dir(dancegraph) if not name.startswith('_')]\n"
        "assert not public, public\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=SRC, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_every_public_name_and_submodule_resolves():
    for info in pkgutil.iter_modules(dancegraph.__path__):
        module = importlib.import_module(f"dancegraph.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
    assert isinstance(dancegraph.codec, types.ModuleType)


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(dancegraph, "no_such_name")
