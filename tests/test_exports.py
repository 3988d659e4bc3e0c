import dcsf


def test_every_exported_name_resolves():
    missing = [name for name in dcsf.__all__ if not hasattr(dcsf, name)]
    assert missing == []
