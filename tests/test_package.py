"""Names that code outside the package relies on, the demos, and the
package source itself."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import tlexact

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_public_and_traced_names_resolve(monkeypatch):
    # bench/spans.py patches each listed (module, attribute) by getattr, so
    # a deleted or renamed name breaks every traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    spans = importlib.import_module("spans")
    for table in (spans.SPANS, spans.LEAVES, spans.COUNTS, spans.CACHE_INFO):
        for module, attr in table.values():
            owner = importlib.import_module(f"tlexact.{module}")
            for part in attr.split("."):
                assert hasattr(owner, part), (module, attr)
                owner = getattr(owner, part)
    # the tracer reads cache_info() through the span wrapper's __wrapped__,
    # so each listed name must be the lru_cache object itself
    for module, attr in spans.CACHE_INFO.values():
        fn = getattr(importlib.import_module(f"tlexact.{module}"), attr)
        assert hasattr(fn, "cache_info"), (module, attr)
    for name in tlexact.__all__:
        assert hasattr(tlexact, name), name


def _env():
    src = os.path.join(ROOT, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_demos_run():
    # each demo prints exactly its recorded output in tests/demo_output
    demos = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    assert len(demos) == 6
    for demo in demos:
        proc = subprocess.run([sys.executable, demo], env=_env(),
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b""), demo
        name = os.path.splitext(os.path.basename(demo))[0] + ".txt"
        with open(os.path.join(ROOT, "tests", "demo_output", name), "rb") as fh:
            assert proc.stdout == fh.read(), demo


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect, ast and tokenize at every CLI start
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tlexact.cli; print('dataclasses' in sys.modules)"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_import_without_numpy():
    # numpy is a test dependency only: the package and the CLI import
    # without it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None; import tlexact, tlexact.cli"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_no_assert_in_the_package():
    # python -O strips assert statements, so no guard may rely on one
    files = sorted(glob.glob(os.path.join(ROOT, "src", "tlexact", "*.py")))
    assert files
    for path in files:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path, lines)
