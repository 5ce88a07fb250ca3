"""Fit every ``KERNEL_CASES`` template, six-parameter and nested, on the three builtin datasets.

Run from the repository root:

    PYTHONPATH=src python tests/fit_sweep.py OUT.json

Each of the 66 fits runs at the default ``FitConfig`` (24 starts, seed 0).
For each, OUT.json holds its ``to_json()``, ``restarts_at_best``,
``at_boundary``, ``information_pd`` and every ``Restart`` field but
``seconds``.  A change that claims to leave fits as they are leaves this file
byte for byte the same; ``tests/test_sweeps.py`` compares it with
``tests/golden/fit_sweep.json`` entry by entry.  Pytest does not collect it:
its name does not start with ``test_``.
"""

import dataclasses
import json
import sys

from bgmo.datasets import BUILTIN_NAMES, builtin_dataset
from bgmo.fitting import ModelTemplate, fit_mle
from test_fitting import KERNEL_CASES, NESTED


def sweep() -> list[dict]:
    records = []
    for baseline, options in KERNEL_CASES:
        for label, fixed in (("six", {}), ("nested", NESTED)):
            template = ModelTemplate(baseline, fixed=fixed, options=options)
            for name in BUILTIN_NAMES:
                result = fit_mle(template, builtin_dataset(name).values)
                records.append({
                    "baseline": baseline,
                    "options": options,
                    "template": label,
                    "data": name,
                    "to_json": result.to_json(),
                    "restarts_at_best": result.restarts_at_best,
                    "at_boundary": result.at_boundary,
                    "information_pd": result.information_pd,
                    "trace": [
                        {k: v for k, v in dataclasses.asdict(run).items() if k != "seconds"}
                        for run in result.trace
                    ],
                })
    return records


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: PYTHONPATH=src python tests/fit_sweep.py OUT.json")
    with open(sys.argv[1], "w") as fh:
        json.dump(sweep(), fh, indent=1)
        fh.write("\n")
