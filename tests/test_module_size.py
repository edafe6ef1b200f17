"""Every module of src/extensor stays under 8,192 tokenize tokens.

Past that count CPython 3.11's parser doubles its token array, and the peak
memory of compile() (tracemalloc) rises by 0.25-0.6 MB; where no bytecode is
cached, that compile sets the peak resident size of a whole run.  Split a module
before it reaches the limit.
"""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "extensor"
LIMIT = 8192


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_under_the_token_limit(path):
    with path.open("rb") as f:
        count = sum(1 for _ in tokenize.tokenize(f.readline))
    assert count < LIMIT, f"{path.name} has {count} tokens"
