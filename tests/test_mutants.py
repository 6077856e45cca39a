"""The mutant sweep (``tests/mutants.py``) still applies to the source.

A refactor that edits a mutated line would otherwise show only when the
sweep runs, outside tier-1.  The sweep leaves this file out, since every
mutated tree fails it.
"""

from pathlib import Path

from mutants import MUTANTS, mutated

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fbmsde"


def test_mutant_names_are_unique():
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)


def test_each_mutant_replaces_one_line_with_valid_python():
    for name, file, line, mutant in MUTANTS:
        source = (SOURCE / file).read_text()
        assert source.split("\n").count(line) == 1, name
        # a mutant that does not compile would be killed by every test
        compile(mutated(source, line, mutant), file, "exec")
