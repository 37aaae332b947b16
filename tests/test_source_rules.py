"""Rules on the library's source text, checked line by line.

- No ``np.errstate``: the readers hold every number to modulus 2**60, which
  keeps every product and sum the library forms inside the float range, so
  no overflow is there to silence; an np.errstate block would hide one that
  the bound's count missed.
- No ``np.zeros(`` outside matcore.py: matcore's allocators enforce the
  size policy (_zeros refuses an array past MAX_DENSE_BYTES, at its dtype's
  entry size, before np.zeros runs), so a bare np.zeros elsewhere would
  allocate unchecked.
- No ``checked=True`` in jsonio.py or cli.py: those modules read outside
  input, and a checked _Fresh array skips its receiving type's checks
  (CpMap's Hermiticity test, CirculantSpec's PSD gate and trace sum), so
  decoded wire data must always reach them unchecked.
- The text ``state side`` only in matcore.py: matcore._read_state is the one
  reader of a lift's input state (check_state, then its side), and a second
  copy of that check would word its refusal apart from it.
- No float literal in exponent form (``1e-9``) outside matcore.py and
  verify.py: the tolerances live in matcore's one block, so a literal
  elsewhere would be a second tolerance policy. verify.py is exempt, as its
  per-check tolerances are the report's anchors, not verdicts on input.
- ``raise NotHermitianError`` only in matcore.py: matcore._require_hermitian
  holds the one Hermiticity threshold and message, which CpMap and the PSD
  gates share, so a second raise would give the same fact a second verdict.
"""
import re
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "liftlab"

# name: (pattern, files it covers (None for every module), files exempt from it)
RULES = {
    "no-silenced-numpy-errors": (r"np.errstate", None, ()),
    "no-unguarded-np-zeros": (r"np\.zeros\(", None, ("matcore.py",)),
    "no-trusted-wire-data": (r"checked=True", ("jsonio.py", "cli.py"), ()),
    "one-state-reader": (r"state side", None, ("matcore.py",)),
    "tolerances-live-in-matcore": (r"\d[eE]-\d", None, ("matcore.py", "verify.py")),
    "one-hermiticity-verdict": (r"raise NotHermitianError", None, ("matcore.py",)),
}


@pytest.mark.parametrize("rule", RULES)
def test_library_source_keeps_the_rule(rule):
    pattern, covered, exempt = RULES[rule]
    sources = sorted(p for p in LIBRARY.rglob("*.py")
                     if (covered is None or p.name in covered) and p.name not in exempt)
    assert sources
    hits = [f"{p.relative_to(LIBRARY)}:{n}: {line.strip()}"
            for p in sources
            for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]
    assert hits == []
