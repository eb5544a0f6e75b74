from __future__ import annotations

import pytest

import relink


def test_public_api_exports_resolve():
    for name in relink.__all__:
        assert getattr(relink, name) is not None, name


def test_version_present():
    assert relink.__version__


def test_unknown_name_raises_attribute_error():
    # hasattr() and ``from relink import <submodule>`` rely on this type
    with pytest.raises(AttributeError, match="no_such_name"):
        relink.no_such_name
