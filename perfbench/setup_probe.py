"""Time one cold set-up in a fresh interpreter.

Set-up is what happens before the first trajectory: importing spgrad,
``load_config``, ``build_experiment`` and the run's constants (smoothing
constants, L, nu^2, eps_delta).  For the ``validate`` workload it is the
import of ``spgrad.validate``.  Prints the set-up seconds and, measured right
after, the reference loop's time (see speed.py).
Usage: ``setup_probe.py SRC_DIR [CONFIG]``.
"""
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

if len(sys.argv) > 2:
    import spgrad.config as config
    from spgrad.estimators import error_bound, variance_bound
    from spgrad.safe_updates import lipschitz_constant

    cfg = config.load_config(sys.argv[2])
    built = config.build_experiment(cfg)
    constants = built.policy.smoothing_constants()
    lipschitz_constant(constants, built.env.spec)
    error_bound(variance_bound(cfg.estimator_kind, built.env.spec, constants.kappa), cfg.delta)
else:
    import spgrad.validate  # noqa: F401

elapsed = time.perf_counter() - start

from speed import reference_speed  # noqa: E402 - after the timed imports

print(repr(elapsed), repr(reference_speed()))
