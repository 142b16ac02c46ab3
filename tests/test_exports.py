"""The package's export contract: every name in ``liealg.__all__`` resolves to
the object its defining module holds, and nothing else resolves."""

import subprocess
import sys

import pytest

import liealg

from conftest import src_env


@pytest.mark.parametrize("name", liealg.__all__)
def test_export_is_the_defining_module_attribute(name):
    value = getattr(liealg, name)
    assert value.__module__.startswith("liealg.")
    assert value is getattr(sys.modules[value.__module__], name)


def test_all_has_48_distinct_sorted_names():
    assert len(liealg.__all__) == len(set(liealg.__all__)) == 48
    assert liealg.__all__ == sorted(liealg.__all__)


def test_star_import_binds_exactly_all():
    probe = ("import liealg; namespace = {}; exec('from liealg import *', namespace); "
             "namespace.pop('__builtins__'); "
             "assert sorted(namespace) == sorted(liealg.__all__), sorted(namespace)")
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_dir_lists_every_export():
    assert set(liealg.__all__) <= set(dir(liealg))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        liealg.no_such_name  # noqa: B018
    assert not hasattr(liealg, "no_such_name")
