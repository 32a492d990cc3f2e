import types

import weylwords


def test_all_lists_exactly_the_public_names():
    exported = set(weylwords.__all__)
    assert len(exported) == len(weylwords.__all__)
    for name in exported:
        assert not isinstance(getattr(weylwords, name), types.ModuleType), name
    public = {
        name for name, value in vars(weylwords).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == public
