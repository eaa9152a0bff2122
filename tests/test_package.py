"""The package's top-level exports."""

import multistack


def test_every_exported_name_resolves():
    missing = [name for name in multistack.__all__ if not hasattr(multistack, name)]
    assert missing == []
    assert len(set(multistack.__all__)) == len(multistack.__all__)
