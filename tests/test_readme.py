"""The README's "Library API" section names the package's whole public surface."""

import re
from pathlib import Path

import qmb

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_is_in_the_library_api_section():
    section = README.read_text().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(\w+)`", section))
    assert len(set(qmb.__all__)) == len(qmb.__all__)
    assert sorted(set(qmb.__all__) - listed) == []
    assert all(hasattr(qmb, name) for name in qmb.__all__)
