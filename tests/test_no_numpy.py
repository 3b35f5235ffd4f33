"""The package works without numpy, and loads it only for vector columns.

numpy is an optional speed-up (the ``[fast]`` extra): ``import repro``
must succeed where it is absent, and paths that never build a vector
column — the consensus service above all — must not import it at all.
Both checks run in a fresh interpreter, since this test process may
already hold numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None  # any import fails\n"

_EXERCISE = textwrap.dedent(
    """
    import warnings
    warnings.simplefilter("ignore")
    import repro
    from repro import Scenario, SweepRunner, execute, expand_grid
    from repro.service import ClosedLoopWorkload, ConsensusService

    record = execute(Scenario(algorithm="crw", n=6, f=2,
                              adversary="coordinator-killer"))
    assert record.spec_ok and record.last_decision_round == 3, record

    cells = expand_grid(["crw", "floodset"], [4],
                        adversaries=("coordinator-killer",), seeds=2)
    records = SweepRunner(cells, executor="serial").run()
    assert records and all(r.spec_ok for r in records)

    report = ConsensusService(4, t=2, seed=3).run(ClosedLoopWorkload(2, 5))
    assert report.ok, report.problems
    print("numpy" in sys.modules and sys.modules["numpy"] is not None)
    """
)


def _run(code: str, env: dict[str, str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_package_runs_with_numpy_unimportable():
    out = _run(_BLOCK_NUMPY + _EXERCISE, dict(os.environ))
    assert out == "False"


def test_service_run_never_imports_numpy():
    code = textwrap.dedent(
        """
        import sys
        import repro
        from repro.service import ClosedLoopWorkload, ConsensusService

        report = ConsensusService(5, t=3, seed=1).run(ClosedLoopWorkload(4, 10))
        assert report.ok, report.problems
        print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
        """
    )
    # Unpinned: numpy may be installed, and must still stay unloaded.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_NUMPY"}
    assert _run(code, env) == "[]"
