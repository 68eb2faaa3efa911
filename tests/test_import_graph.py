"""Cold-start import graph guard.

``scipy.stats`` is the heaviest import the package could pull in, and no
sweep, simulation or benchmark operation uses it: only the reporting
helpers :func:`~repro.experiments.stats.mean_ci` and
:func:`~repro.experiments.stats.paired_comparison` do, and they import it
on their first call. A fresh interpreter that imports the modules the
benchmark workloads import must therefore not have it loaded. A new eager
import of it anywhere in that graph fails here.

The helpers' outputs are pinned to the values they returned while
``scipy.stats`` was still a module-level import, bit for bit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments import mean_ci, paired_comparison
from repro.experiments.stats import MeanCI, PairedComparison

SRC = Path(__file__).resolve().parents[1] / "src"

#: The ``repro`` modules ``perfbench/workloads.py`` imports.
WORKLOAD_MODULES = (
    "repro",
    "repro.dynamics",
    "repro.exceptions",
    "repro.experiments.figures",
    "repro.experiments.harness",
    "repro.experiments.parallel",
    "repro.experiments.settings",
    "repro.market.market",
    "repro.market.workload",
    "repro.network.generators",
    "repro.runtime",
    "repro.testbed.emulator",
    "repro.utils.validation",
)

#: Imports that stay off the cold-start path.
DEFERRED = ("scipy.stats",)


def _loaded_after_import(modules: tuple) -> dict:
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps({{m: m in sys.modules for m in {list(DEFERRED)!r}}}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_workload_modules_do_not_import_scipy_stats():
    loaded = _loaded_after_import(WORKLOAD_MODULES)
    assert loaded == {m: False for m in DEFERRED}


def test_package_root_does_not_import_scipy_stats():
    assert _loaded_after_import(("repro.experiments",)) == {
        m: False for m in DEFERRED
    }


class TestHelpersKeepTheirValues:
    def test_mean_ci(self):
        assert mean_ci([1.0, 2.5, 4.0, 3.25, 7.5]) == MeanCI(
            mean=3.65,
            lower=0.6436086245296866,
            upper=6.656391375470314,
            confidence=0.95,
            n=5,
        )
        assert mean_ci([0.1, 0.2, 0.4], 0.9) == MeanCI(
            mean=0.23333333333333336,
            lower=-0.024185189250352207,
            upper=0.49085185591701896,
            confidence=0.9,
            n=3,
        )

    def test_paired_comparison(self):
        out = paired_comparison(
            [10.0, 12.0, 9.5, 11.0, 13.0, 10.5],
            [9.0, 12.5, 8.0, 10.0, 11.0, 10.5],
        )
        assert out == PairedComparison(
            mean_a=11.0,
            mean_b=10.166666666666666,
            mean_difference=0.8333333333333334,
            difference_ci=MeanCI(
                mean=0.8333333333333334,
                lower=-0.14363807906625248,
                upper=1.8103047457329193,
                confidence=0.95,
                n=6,
            ),
            sign_test_p=0.375,
            n=6,
        )
        one_sided = paired_comparison(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            [1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5],
            0.99,
        )
        assert one_sided.sign_test_p == 0.0078125
        assert one_sided.difference_ci == MeanCI(-0.5, -0.5, -0.5, 0.99, 8)
