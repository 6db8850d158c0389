import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import make_vocab  # noqa: E402


@pytest.fixture(autouse=True)
def _load_cache_dir(tmp_path_factory, monkeypatch):
    """Each test gets an empty load cache of its own (subprocesses inherit it),
    so no test reads or fills a user's cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))


@pytest.fixture(autouse=True)
def _collector_state_kept():
    """A test that ends with the cyclic collector on or off, unlike how it
    began, fails itself, rather than a later test that the leaked state hits."""
    was = gc.isenabled()
    yield
    if gc.isenabled() != was:
        (gc.enable if was else gc.disable)()
        pytest.fail(f"the test left the cyclic collector {'off' if was else 'on'}")


@pytest.fixture
def vocab5():
    return make_vocab(5)


# One printed line per acceptance criterion when the acceptance module runs.

ACCEPTANCE_TESTS = {
    "test_criterion_1_balance_exactness":
        (1, "balance exactness over 200 randomized pools"),
    "test_criterion_2_hicodet_scale_reproduction":
        (2, "HICO-DET-scale split totals and image-count envelope"),
    "test_criterion_3_zeroshot_split":
        (3, "zero-shot split: toy oracle case and 107x10 construction"),
    "test_criterion_4_ap_oracle_equivalence":
        (4, "class AP equals the brute-force oracle on 1,000 random cases"),
    "test_criterion_5_tp_flip_sensitivity":
        (5, "TP flip hurts the 2-instance class more than the 10-instance class"),
    "test_criterion_6_ranking_shift_exact":
        (6, "ranking-shift fixture reproduces every rank and delta"),
    "test_criterion_7_pipeline_loop":
        (7, "generation loop traces: period-2 and all-reject budgets"),
    "test_criterion_8_end_to_end_determinism":
        (8, "byte-identical artifacts across same-seed pipeline runs"),
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[str, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if name not in ACCEPTANCE_TESTS:
                continue
            previous = results.get(name)
            if previous in ("failed", "error"):
                continue
            if getattr(report, "when", "call") == "call" or status == "skipped":
                results[name] = status
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, (num, desc) in sorted(ACCEPTANCE_TESTS.items(), key=lambda kv: kv[1][0]):
        if name in results:
            terminalreporter.write_line(
                f"criterion {num}: {desc} ... {results[name].upper()}"
            )
