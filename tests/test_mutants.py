"""The mutant sweep (``tests/mutants.py``) still applies to the source,
and README states how many mutants it has.

A refactor that edits a mutated line would otherwise show only when the
sweep runs, outside tier-1.  The sweep leaves this file out, since every
mutated tree fails it.
"""

import re
from pathlib import Path

from mutants import MUTANTS, mutated

REPO = Path(__file__).resolve().parents[1]
SOURCE = REPO / "src" / "fbmsde"
ONES = (
    "zero one two three four five six seven eight nine ten eleven twelve thirteen "
    "fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
TENS = "_ _ twenty thirty forty fifty sixty seventy eighty ninety".split()


def spelled(n: int) -> str:
    """``n`` in words, as README writes it: 26 is twenty-six."""
    tens, ones = divmod(n, 10)
    if n < 20:
        return ONES[n]
    return TENS[tens] + (f"-{ONES[ones]}" if ones else "")


def test_mutant_names_are_unique():
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)


def test_each_mutant_replaces_one_line_with_valid_python():
    for name, file, line, mutant in MUTANTS:
        source = (SOURCE / file).read_text()
        assert source.split("\n").count(line) == 1, name
        # a mutant that does not compile would be killed by every test
        compile(mutated(source, line, mutant), file, "exec")


def test_readme_counts_the_mutants():
    readme = (REPO / "README.md").read_text()
    counts = re.findall(r"each of ([a-z-]+)\s+one-line\s+defects", readme)
    assert counts == [spelled(len(MUTANTS))]
