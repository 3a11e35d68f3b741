"""The benchmark's probe targets exist, so that renaming one fails here, not in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def test_every_probe_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    # @dataclass looks its defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, probes)
    spec.loader.exec_module(probes)
    assert len(probes.FUNCTION_PROBES) == 23
    for key, owner_path, attr in probes.FUNCTION_PROBES:
        owner = probes._resolve(owner_path)  # as Tracer.__enter__ resolves a target
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"probe {key}: target {owner_path}.{attr} no longer exists"
