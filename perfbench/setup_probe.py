"""One CLI start-up, measured from outside by run.py.

Imports mpmath and the package with its command-line module, then
resolves and validates every structure named on the command line the
way the CLI does.  Times the calibration kernel before and after that
and prints the kernel times, so that run.py can take them out of the
start-up time and rescale it by the machine speed in this process.
Run from the repository root:

    python3 perfbench/setup_probe.py sierpinski perfbench/structures/sg3.json
"""

import sys

from calibration import KERNEL_REPEATS, kernel_seconds

kernels = [kernel_seconds() for _ in range(KERNEL_REPEATS)]

sys.path.insert(0, "src")

import mpmath  # noqa: E402,F401

import fractal_trees.cli  # noqa: E402,F401
from fractal_trees import BUILTIN_NAMES, builtin, load_json, validate  # noqa: E402

for name in sys.argv[1:]:
    if name in BUILTIN_NAMES:
        builtin(name)
    elif not validate(load_json(name)).ok:
        sys.exit(f"{name}: invalid structure")

kernels += [kernel_seconds() for _ in range(KERNEL_REPEATS)]
print(" ".join(map(repr, kernels)))
