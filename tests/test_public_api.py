"""The package's public names: each one resolves, and each public
function and class says what it is."""

import inspect

import l1sweep


def test_every_public_name_resolves_and_is_documented():
    undocumented = []
    for name in l1sweep.__all__:
        obj = getattr(l1sweep, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            # __doc__, not inspect.getdoc, which would inherit a base class's
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert undocumented == []
