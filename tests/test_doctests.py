"""Run the ``>>>`` examples in the docstrings of every detlam module."""

import doctest
import importlib
import pkgutil

import pytest

import detlam

MODULES = ["detlam"] + sorted(
    f"detlam.{info.name}" for info in pkgutil.iter_modules(detlam.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_doctests_are_collected():
    # exactalg 5, charclass 8, combinat 2: a drop means examples went unseen
    attempted = sum(
        doctest.testmod(importlib.import_module(name)).attempted for name in MODULES
    )
    assert attempted >= 15
