"""Differential fuzz oracle over the two post-paper backend presets.

No oracle or harness code special-cases these presets: they are exercised
here exactly as any other preset would be, which is the preset table's
drop-in guarantee.
"""

from repro.testing.fuzz import FAULT_ROTATION, run_fuzz


class TestNewBackendFuzz:
    def test_full_fault_taxonomy_smoke(self):
        """One campaign per fault kind against both new presets: nothing
        missed, nothing spurious, every kernel differential clean."""
        report = run_fuzz(campaigns=len(FAULT_ROTATION), seed=0,
                          presets=["secddr", "scattered"], shrink=False)
        assert report.ok, report.to_dict()
        assert report.injected > 0
        assert report.missed == 0 and report.spurious == 0
        assert set(report.per_preset) == {"secddr", "scattered"}

    def test_secddr_detects_persistent_faults(self):
        report = run_fuzz(campaigns=3, seed=7, presets=["secddr"],
                          shrink=False)
        assert report.ok
        assert report.detected + report.neutralized == report.injected

    def test_scattered_detects_persistent_faults(self):
        report = run_fuzz(campaigns=3, seed=7, presets=["scattered"],
                          shrink=False)
        assert report.ok
        assert report.detected + report.neutralized == report.injected
