"""Loaded by pytest for any test path under the repository root.

A test run writes no bytecode cache of the package into src/, where a
benchmark child would read it instead of compiling the sources: pytest loads
this file before it imports any test module or the package, and child
interpreters get PYTHONDONTWRITEBYTECODE from ``tests/conftest.py::src_env``."""

import sys

sys.dont_write_bytecode = True
