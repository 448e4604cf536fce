"""Test-session set-up shared by ``tests/`` and ``bench/test_bench.py``.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on this process's import
path; the CLI tests also start ``python -m zxcut.cli`` in child processes,
which find the package through ``PYTHONPATH``.
"""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
