"""Every module-level compiled pattern of the package uses only syntax that the
oldest Python in ``requires-python`` (pyproject.toml) compiles: no possessive
quantifier and no atomic group, both new in Python 3.11. Older versions reject
them with ``re.error`` when the module is imported."""

import importlib
import pkgutil
import re

import pytest

import szzvc

try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:
    import sre_parse

NEW_IN_3_11 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def _opcode_names(node):
    if isinstance(node, sre_parse.SubPattern):
        for op, av in node:
            yield str(op)
            yield from _opcode_names(av)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcode_names(item)


def _package_patterns():
    seen = set()
    for info in pkgutil.iter_modules(szzvc.__path__):
        module = importlib.import_module(f"szzvc.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern) and id(value) not in seen:
                seen.add(id(value))
                yield pytest.param(value, id=f"{info.name}.{name}")


def test_opcode_walk_sees_new_syntax():
    assert "POSSESSIVE_REPEAT" in set(_opcode_names(sre_parse.parse(r"a(?:b[^c]*)*+")))
    assert "ATOMIC_GROUP" in set(_opcode_names(sre_parse.parse(r"x(?:y|(?>z+))")))


@pytest.mark.parametrize("pattern", list(_package_patterns()))
def test_pattern_compiles_before_python_3_11(pattern):
    opcodes = set(_opcode_names(sre_parse.parse(pattern.pattern, pattern.flags)))
    assert not opcodes & NEW_IN_3_11
