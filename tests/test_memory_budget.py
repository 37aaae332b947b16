"""Whole-process memory budgets: each row runs one child interpreter under
an address-space cap and checks its exit code and streams.

tracemalloc sees numpy's allocations only. A cap also counts the
interpreter, the imported modules and BLAS's buffers, so a row fails when a
refusal comes after the allocation it should prevent, or when a copy or a
temporary takes the whole process past what its cap leaves room for.

The cap is set as a shell's ``ulimit -v`` before the exec, on the child
alone. (preexec_fn is unsafe in a process that has threads, and OpenBLAS
has started them in this one.) Each child runs on one BLAS thread, whose
buffers the VmPeak figures below include, so the rows check the same thing
whatever thread count the suite runs on. The VmPeak figures were measured
with numpy 2.4 on x86-64.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liftlab.clift import ohya_tensor
from liftlab.jsonio import lifting_tensor_to_json

SRC = Path(__file__).resolve().parent.parent / "src"
CLI = ("-m", "liftlab.cli")
# Identity units of side 64 built fresh, with no copy, and not marked checked.
UNCHECKED_UNITS_64 = (
    "import numpy as np; from liftlab.matcore import _Fresh; from liftlab.qlift import CpMap; "
    "CpMap(_Fresh(np.eye(4096, dtype=complex).reshape(64, 64, 64, 64)))"
)

# Columns: input files (name: JSON value, passed as @{name}), child
# arguments after the interpreter, cap in KiB, exit code, stdout (None for
# unchecked) and a pattern that the whole of stderr must match.
BUDGETS = {
    # A 91 x 91 channel asks kraus_from_channel for 91^4 complex entries,
    # 1.10 GB, past the 1 GiB bound, so the call must end in exit 2 and one
    # error line before it allocates. The refusing process peaks at about
    # 101 MiB of address space (VmPeak), so a 512 MiB cap leaves room for it
    # and none for the array.
    "kraus-array-past-the-bound": (
        {"w91": [[1 / 91] * 91] * 91},
        (*CLI, "channel", "kraus", "--matrix", "@{w91}"),
        524288, 2, "",
        "error: dense 91 x 91 x 91 x 91 Kraus operator array needs 1097199376 bytes, limit is 1073741824\n",
    ),
    # A 60 x 60 channel's Kraus array is 207 MB. The document holds the
    # read-only operators themselves, so the run peaks at about 305 MiB of
    # address space (VmPeak); a copy of each operator took it to 498 MiB and
    # a MemoryError under this 400 MiB cap.
    "kraus-operators-without-a-copy": (
        {"w60": [[1 / 60] * 60] * 60},
        (*CLI, "channel", "kraus", "--matrix", "@{w60}", "--out", os.devnull),
        409600, 0, None, "",
    ),
    # 256 MiB of identity units, handed over fresh but not checked. CpMap
    # takes them as they are, and its Hermiticity test holds 1.5 times as
    # much again at its peak, so the run peaks at about 740 MiB of address
    # space (VmPeak); a copy of the units took it to 1139 MiB and a
    # MemoryError under this 832 MiB cap.
    "channel-within-2.5-times-its-units": (
        {},
        ("-c", UNCHECKED_UNITS_64),
        851968, 0, None, "",
    ),
    # The control: the same call under the 400 MiB cap cannot hold its 256
    # MiB of units and the Hermiticity test's work, so it dies in a
    # MemoryError. Were the cap not applied, it would exit 0, and the two
    # refusals above exit 2 with or without one.
    "cap-is-applied": (
        {},
        ("-c", UNCHECKED_UNITS_64),
        409600, 1, None, r"(?s).*MemoryError: .*",
    ),
    # cp_identity(64) builds the same units checked, so CpMap runs no
    # Hermiticity test on them and the run peaks at about 356 MiB (VmPeak);
    # with the test it peaked at 740 MiB and died under this 400 MiB cap.
    "trusted-units-are-held-once": (
        {},
        ("-c", "from liftlab import cp_identity; cp_identity(64)"),
        409600, 0, None, "",
    ),
    # A 400-letter lift bell asks for a 160000 x 160000 state, past the
    # bound, so the call must end in exit 2 and one error line before the
    # Bell profile forms its (400, 400, 400) phase products, 977 MiB each.
    # The refusing process peaks at about 148 MiB of address space (VmPeak),
    # so a 512 MiB cap leaves no room for one product.
    "bell-lift-past-the-bound": (
        {"p400": [1 / 400] * 400, "rho400": (np.eye(400) / 400).tolist()},
        (*CLI, "lift", "bell", "--p", "@{p400}", "--rho", "@{rho400}"),
        524288, 2, "",
        "error: dense 160000 x 160000 operator needs 409600000000 bytes, limit is 1073741824\n",
    ),
    # The n=2, N=13 state is an 8192 x 8192 complex matrix, exactly the 1 GiB
    # bound, so diagonal_operator asks for it as one anonymous map. Under a
    # 700 MiB cap the map cannot be made, and the OSError from mmap must end
    # the call in exit 2 and one error line, with nothing written to stdout.
    "diagonal-map-past-the-cap": (
        {"t2": lifting_tensor_to_json(ohya_tensor(2))},
        (*CLI, "lift", "nlift", "--tensor", "@{t2}", "--p", "[0.5, 0.5]", "--parties", "13"),
        716800, 2, "",
        re.escape("error: [Errno 12] Cannot allocate memory\n"),
    ),
}


@pytest.mark.parametrize("name", BUDGETS)
def test_process_stays_within_its_memory_budget(name, tmp_path):
    inputs, args, kib, code, stdout, stderr = BUDGETS[name]
    paths = {}
    for key, value in inputs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(value))
    argv = [a.format(**paths) for a in args]
    proc = subprocess.run(
        ["/bin/sh", "-c", 'ulimit -v "$1"; shift; exec "$@"', "sh", str(kib), sys.executable, *argv],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    if stdout is not None:
        assert proc.stdout == stdout
    assert re.fullmatch(stderr, proc.stderr), proc.stderr[-2000:]
