"""One-site source mutations of library functions, for tests that show a
check can fail."""

import inspect
import sys
import textwrap
from collections import namedtuple

Edit = namedtuple("Edit", "old new")  # a one-site change to the patched function's source


def mutant(original, edit):
    """`original` recompiled from its source with `edit` applied, in its own
    module's globals; the edited text must occur exactly once."""
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(edit.old) == 1, f"{edit.old!r} is not one site of {original.__qualname__}"
    module = sys.modules[original.__module__]
    namespace = {}
    exec(compile(source.replace(edit.old, edit.new), module.__file__, "exec"), vars(module), namespace)
    return namespace[original.__name__]
