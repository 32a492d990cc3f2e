import types

import weylwords
from weylwords import affine, biconvex, cartan, cli, finweyl, verify, words


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


# Every reader and writer of outside input, and every bound on it.
OUTSIDE_INPUT = {
    "MAX_INPUT_CUTOFF", "MAX_INPUT_LENGTH", "MAX_WINDOW_LIMIT", "input_cutoff",
    "_json_field", "_json_ints", "_window_from_json",
    *(f"{kind}_{way}_json" for way in ("to", "from")
      for kind in ("root_system", "affine_root", "letter", "element", "param", "view", "word")),
}


def _reads_outside_input(name):
    return (name == "json" or name.endswith("_json") or name.startswith("MAX_INPUT_")
            or name in ("_json_field", "_json_ints", "input_cutoff", "MAX_WINDOW_LIMIT"))


def test_outside_input_is_read_and_bounded_only_in_cli():
    for module in (cartan, finweyl, affine, biconvex, words, verify):
        found = sorted(filter(_reads_outside_input, vars(module)))
        assert not found, (module.__name__, found)
    assert OUTSIDE_INPUT <= set(filter(_reads_outside_input, vars(cli)))
