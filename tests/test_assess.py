import json
import math
import types
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chaincap.assess import methodology_report, render_report_text
from chaincap.bench import CapacityProfile
from chaincap.errors import InputError
from chaincap.scenarios import ScenarioSpec, UseCaseSpec, builtin_scenarios

PAPER_JSON = Path(__file__).parent.parent / "src" / "chaincap" / "data" / "paper.json"


@pytest.fixture
def paper_capacity():
    return CapacityProfile.from_json_dict(json.loads(PAPER_JSON.read_text()))


CATALOG = builtin_scenarios()
SUBSCRIBER_KEY, = (uc for uc in CATALOG["public_key_mgmt"].use_cases
                   if uc.name == "subscriber_key")
ACCESS_CONTROL, = (uc for uc in CATALOG["aaa"].use_cases if uc.name == "access_control")


def one_use_case(scenario_id: str, use_case: UseCaseSpec) -> ScenarioSpec:
    return ScenarioSpec(id=scenario_id, use_cases=(use_case,))


def comparison(spec: ScenarioSpec, eta: float, capacity: CapacityProfile) -> dict:
    return methodology_report(spec, eta, capacity)["comparison"]


class TestAssess:
    def test_public_key_mgmt_is_suitable(self, paper_capacity):
        verdict = comparison(one_use_case("public_key_mgmt", SUBSCRIBER_KEY), 0.0115,
                             paper_capacity)
        assert verdict["suitable"]
        assert verdict["remediation"] == []

    def test_aaa_is_unsuitable_on_both_axes(self, paper_capacity):
        verdict = comparison(one_use_case("aaa", ACCESS_CONTROL), 8333, paper_capacity)
        assert not verdict["read_ok"]
        assert not verdict["write_ok"]
        assert verdict["remediation"] == ["batch_transactions", "scale_blockchain"]

    def test_zero_workload_suitable_with_infinite_headroom(self, paper_capacity):
        verdict = comparison(one_use_case("public_key_mgmt", SUBSCRIBER_KEY), 0.0,
                             paper_capacity)
        assert verdict["suitable"]
        assert verdict["headroom_read"] == "inf"
        assert verdict["headroom_write"] == "inf"

    def test_boundary_exactness(self, paper_capacity):
        spec = one_use_case("public_key_mgmt", SUBSCRIBER_KEY)
        at_capacity = comparison(spec, 1400.0, paper_capacity)
        assert at_capacity["write_ok"]  # <= is suitable
        just_over = comparison(spec, 1400.0 * (1 + 1e-9), paper_capacity)
        assert not just_over["write_ok"]

    def test_invalid_capacity_rejected(self):
        # building the profile is the check, so no invalid one reaches a report
        with pytest.raises(InputError, match="maxima"):
            CapacityProfile(node_count=4, max_lambda_read=0.0,
                            max_lambda_write=1400.0, search_tolerance=0.0)

    def test_infinite_capacity_axis_rejected(self):
        partial = CapacityProfile(node_count=4, max_lambda_read=math.inf,
                                  max_lambda_write=1400.0, search_tolerance=0.0)
        with pytest.raises(InputError, match="finite read and write maxima"):
            comparison(one_use_case("aaa", ACCESS_CONTROL), 1.0, partial)

    @given(eta_lo=st.floats(0.001, 1e5), factor=st.floats(1.0, 100.0))
    def test_verdict_monotone_in_eta(self, eta_lo, factor):
        capacity = CapacityProfile(node_count=4, max_lambda_read=20500.0,
                                   max_lambda_write=1400.0, search_tolerance=0.0)
        spec = CATALOG["aaa"]
        low = comparison(spec, eta_lo, capacity)
        high = comparison(spec, eta_lo * factor, capacity)
        # raising eta never turns unsuitable into suitable
        assert not (not low["suitable"] and high["suitable"])

    def test_verdict_depends_only_on_rates(self, paper_capacity):
        # eta x multiplicities scaled inversely gives identical rates/verdict
        a = UseCaseSpec(name="a", reads_per_event=4, writes_per_event=2)
        b = UseCaseSpec(name="b", reads_per_event=2, writes_per_event=1)
        va = comparison(one_use_case("aaa", a), 500.0, paper_capacity)
        vb = comparison(one_use_case("aaa", b), 1000.0, paper_capacity)
        assert (va["read_ok"], va["write_ok"]) == (vb["read_ok"], vb["write_ok"])
        assert va["headroom_read"] == vb["headroom_read"]
        assert va == vb


class TestMethodologyReport:
    def test_aaa_report_comparison_stage(self, paper_capacity):
        report = methodology_report(CATALOG["aaa"], 8333, paper_capacity)
        am = report["arrival_model"]
        assert am["lambda_read"] == 41665
        assert am["lambda_write"] == 8333
        cmp_ = report["comparison"]
        assert not cmp_["suitable"]
        assert am["lambda_read"] > report["evaluation"]["max_lambda_read"]
        assert am["lambda_write"] > report["evaluation"]["max_lambda_write"]

    def test_public_key_mgmt_default_report(self, paper_capacity):
        report = methodology_report(CATALOG["public_key_mgmt"],
                                    None, paper_capacity)
        assert report["comparison"]["suitable"]
        assert report["arrival_model"]["eta"] == 0.0115

    @pytest.mark.parametrize("eta", [12.0, 0.0])
    def test_explicit_eta_beats_the_default(self, paper_capacity, eta):
        # aaa ships 8333/s; an explicit eta, 0 among them, is used as given
        am = methodology_report(CATALOG["aaa"], eta, paper_capacity)["arrival_model"]
        assert (am["eta"], am["lambda_read"], am["lambda_write"]) == (eta, 5 * eta, eta)

    def test_missing_eta_raises(self, paper_capacity):
        with pytest.raises(InputError, match="eta required"):
            methodology_report(CATALOG["resource_sharing"],
                               None, paper_capacity)

    def test_report_covers_all_stages(self, paper_capacity):
        report = methodology_report(CATALOG["aaa"], 8333, paper_capacity)
        for stage in ("why_on_chain", "what_is_recorded", "when", "arrival_model",
                      "evaluation", "comparison"):
            assert stage in report

    def test_text_rendering(self, paper_capacity):
        report = methodology_report(CATALOG["aaa"], 8333, paper_capacity)
        text = render_report_text(report)
        assert "UNSUITABLE" in text
        assert "8333" in text


def test_module_is_not_shadowed_by_its_function():
    # the package binds no names, so the module path reaches the module
    import chaincap.assess as module
    assert isinstance(module, types.ModuleType)
    assert module.methodology_report is methodology_report
