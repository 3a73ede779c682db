"""Cold start: the simulation layers import no SciPy.

The paper's simulator writes an activity log and SAS analyses it
afterwards; here :mod:`repro.stats` stands in for SAS and loads SciPy
only when a pdf/cdf, a maximum-likelihood fit or a Ljung-Box test first
runs.  Each check runs in a fresh interpreter, since the test session
itself has long since imported SciPy.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCIPY_LOADED = (
    "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
)


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; return its last stdout line as JSON."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_drive_loads_no_scipy():
    loaded = run_fresh(f"""
        import json, sys
        import repro, repro.cli
        from repro.core.run import run_pattern
        from repro.mesh import MeshConfig

        run_pattern(MeshConfig.parse("4x4"), messages_per_source=5)
        code = repro.cli.main(
            ["drive", "--mesh", "4x4", "--pattern", "uniform", "--messages", "5"]
        )
        assert code == 0, code
        after_drive = {SCIPY_LOADED}
        from repro.stats import Gamma, Lognormal, Pareto
        print(json.dumps([after_drive, {SCIPY_LOADED}]))
    """)
    assert loaded == [[], []]


FITS = f"""
    import json, sys
    if PRELOAD:
        import scipy.optimize, scipy.stats
    import numpy as np
    from repro.stats import (
        Gamma, Lognormal, Pareto, Weibull, correlation_profile, fit_distribution, fit_mle,
    )

    def exact(value):
        if isinstance(value, float):
            return float.hex(value)
        if isinstance(value, dict):
            return {{key: exact(item) for key, item in value.items()}}
        if isinstance(value, (list, tuple)):
            return [exact(item) for item in value]
        return value

    before = {SCIPY_LOADED}
    data = np.random.default_rng(7).gamma(2.0, 3.0, size=300)
    fits = [
        (fit.name, fit.distribution.params(), fit.r2, fit.ks, fit.sse, fit.converged)
        for fit in fit_distribution(data)
    ]
    mles = []
    for family in (Gamma, Lognormal, Weibull, Pareto):
        mle = fit_mle(data, family)
        mles.append(None if mle is None else (
            mle.distribution.params(), mle.log_likelihood, mle.aic, mle.converged
        ))
    profile = correlation_profile(data, max_lag=5)
    correlation = (profile.values, profile.q_statistic, profile.p_value)
    print(json.dumps({{
        "before": before,
        "after": "scipy.stats" in sys.modules and "scipy.optimize" in sys.modules,
        "results": exact([fits, mles, correlation]),
    }}))
"""


def test_lazy_scipy_fits_equal_preloaded_fits():
    lazy = run_fresh("PRELOAD = False\n" + textwrap.dedent(FITS))
    preloaded = run_fresh("PRELOAD = True\n" + textwrap.dedent(FITS))
    assert lazy["before"] == []
    assert lazy["after"] and preloaded["after"]
    assert lazy["results"] == preloaded["results"]
    fits, mles, _ = lazy["results"]
    assert len(fits) > 5 and all(mle is not None for mle in mles)
