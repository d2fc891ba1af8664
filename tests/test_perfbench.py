"""The benchmark's tracer patches spgrad names by attribute; a rename or
deletion of one of them must fail here, not only under ``--trace 1``."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_tracer_installs_and_restores_every_target():
    targets = spans._FUNCTION_TARGETS + spans._METHOD_TARGETS
    originals = [owner.__dict__[attr] for owner, attr, _ in targets]
    with spans.Tracer().installed():
        for (owner, attr, _), original in zip(targets, originals):
            assert owner.__dict__[attr] is not original
    for (owner, attr, _), original in zip(targets, originals):
        assert owner.__dict__[attr] is original
