import pytest
from hypothesis import given, settings, strategies as st

from chaincap.errors import InputError
from chaincap.scenarios import (
    ScenarioSpec,
    UseCaseSpec,
    builtin_scenarios,
    load_scenarios,
    workload_for,
)
from test_chainsim import SCENARIO_INI_KEYS, ini_documents

CATALOG = builtin_scenarios()


def one_use_case(scenario_id: str, use_case: UseCaseSpec) -> ScenarioSpec:
    return ScenarioSpec(id=scenario_id, use_cases=(use_case,))


def use_cases(spec: ScenarioSpec) -> dict[str, UseCaseSpec]:
    return {uc.name: uc for uc in spec.use_cases}


class TestCatalog:
    def test_exactly_seven_scenarios(self):
        assert list(CATALOG) == ["public_key_mgmt", "id_mgmt", "aaa", "context_info",
                                 "data_mgmt_trading", "resource_sharing",
                                 "trading_settlement"]
        assert all(spec.id == sid for sid, spec in CATALOG.items())

    def test_public_key_mgmt_subscriber_key_multiplicities(self):
        spec = CATALOG["public_key_mgmt"]
        uc = use_cases(spec)["subscriber_key"]
        assert (uc.reads_per_event, uc.writes_per_event) == (0, 1)
        assert spec.default_eta == 0.0115

    def test_aaa_access_control_multiplicities(self):
        spec = CATALOG["aaa"]
        uc = use_cases(spec)["access_control"]
        # 3 authentications x 1 read + 1 authorization x (2 reads + 1 write)
        assert (uc.reads_per_event, uc.writes_per_event) == (5, 1)
        assert spec.default_eta == 8333.0

    def test_every_scenario_has_use_cases(self):
        for spec in CATALOG.values():
            assert spec.use_cases
            for uc in spec.use_cases:
                assert uc.reads_per_event + uc.writes_per_event >= 1
            # an override replaces a use case by name, so a name must be unique
            names = [uc.name for uc in spec.use_cases]
            assert len(set(names)) == len(names), spec.id

    def test_default_eta_only_for_operator_backed_scenarios(self):
        with_eta = {sid for sid, s in CATALOG.items() if s.default_eta is not None}
        assert with_eta == {"public_key_mgmt", "aaa"}


class TestWorkloadFor:
    def test_public_key_mgmt_case_study(self):
        uc = use_cases(CATALOG["public_key_mgmt"])["subscriber_key"]
        assert workload_for(one_use_case("public_key_mgmt", uc), 0.0115) == (0.0, 0.0115)

    def test_aaa_case_study(self):
        uc = use_cases(CATALOG["aaa"])["access_control"]
        assert workload_for(one_use_case("aaa", uc), 8333) == (41665, 8333)

    def test_zero_eta(self):
        for spec in CATALOG.values():
            assert workload_for(spec, 0.0) == (0.0, 0.0)

    def test_negative_eta_rejected(self):
        with pytest.raises(InputError):
            workload_for(CATALOG["aaa"], -1.0)

    def test_zero_events(self):
        _, lambda_write = workload_for(one_use_case("aaa", UseCaseSpec("w", 0, 7)), 0)
        assert lambda_write == 0
        lambda_read, _ = workload_for(one_use_case("aaa", UseCaseSpec("r", 0, 1)), 5)
        assert lambda_read == 0

    def test_hand_multiplication(self):
        assert workload_for(one_use_case("aaa", UseCaseSpec("r", 3, 0)), 1000) == (3000, 0)

    @given(eta=st.floats(0, 1e6, allow_nan=False), beta=st.integers(0, 100),
           c=st.integers(1, 1000))
    def test_linearity(self, eta, beta, c):
        # one read keeps the use case valid when beta == 0
        spec = one_use_case("aaa", UseCaseSpec("w", 1, beta))
        _, base = workload_for(spec, eta)
        _, scaled = workload_for(spec, c * eta)
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_invalid_multiplicity(self):
        with pytest.raises(InputError):
            workload_for(one_use_case("aaa", UseCaseSpec("none", 0, 0)), 1.0)
        with pytest.raises(InputError):
            workload_for(one_use_case("aaa", UseCaseSpec("neg", -1, 2)), 1.0)

    @pytest.mark.parametrize("spec,eta", [
        (CATALOG["aaa"], 1e308),                                   # 5 reads per event overflow
        (one_use_case("huge", UseCaseSpec("x", 10**400, 1)), 1.0),  # no float holds the count
        (one_use_case("huge", UseCaseSpec("x", 10**400, 1)), 0.0),
    ])
    def test_non_finite_rate_rejected(self, spec, eta):
        with pytest.raises(InputError, match=rf"^{spec.id}: eta .* not a finite rate$"):
            workload_for(spec, eta)

    def test_additivity_over_use_cases(self):
        eta = 3.25
        for spec in CATALOG.values():
            parts = [workload_for(one_use_case(spec.id, uc), eta) for uc in spec.use_cases]
            assert workload_for(spec, eta) == (sum(r for r, _ in parts),
                                               sum(w for _, w in parts))


class TestLoadScenarios:
    def test_empty_document_is_identity(self):
        assert list(load_scenarios("").items()) == list(CATALOG.items())

    def test_eta_override_is_a_point_update(self):
        doc = "[config]\nschema_version = 1\n\n[scenario:aaa]\neta = 9000\n"
        catalog = load_scenarios(doc)
        assert catalog["aaa"].default_eta == 9000.0
        untouched = [s for s in catalog.values() if s.id != "aaa"]
        baseline = [s for s in CATALOG.values() if s.id != "aaa"]
        assert untouched == baseline

    def test_use_case_override_keeps_trigger(self):
        doc = ("[config]\nschema_version = 1\n\n"
               "[use_case:aaa:access_control]\nreads_per_event = 7\n")
        catalog = load_scenarios(doc)
        uc = use_cases(catalog["aaa"])["access_control"]
        assert uc.reads_per_event == 7
        assert uc.writes_per_event == 1
        assert uc.trigger  # built-in trigger text survives numeric overrides

    def test_new_use_case(self):
        doc = ("[config]\nschema_version = 1\n\n"
               "[use_case:aaa:bulk_audit]\nreads_per_event = 2\nwrites_per_event = 0\n")
        catalog = load_scenarios(doc)
        uc = use_cases(catalog["aaa"])["bulk_audit"]
        assert (uc.reads_per_event, uc.writes_per_event) == (2, 0)

    @pytest.mark.parametrize("field", ["reads_per_event", "writes_per_event"])
    @pytest.mark.parametrize("section,value", [
        ("use_case:aaa:access_control", -3),  # an existing use case
        ("use_case:aaa:bulk", -1),  # a new one
    ])
    def test_negative_multiplicity_names_the_field(self, section, value, field):
        doc = f"[config]\nschema_version = 1\n\n[{section}]\n{field} = {value}\n"
        with pytest.raises(InputError,
                           match=rf"^\[{section}\]: {field} must be >= 0, got {value}$"):
            load_scenarios(doc)

    @pytest.mark.parametrize("section,value,message", [
        ("use_case:aaa:access_control", "reads_per_event = x",
         "[use_case:aaa:access_control] reads_per_event: expected an integer, got 'x'"),
        ("use_case:aaa", "reads_per_event = 1",
         "[use_case:aaa]: expected use_case:<scenario>:<name>"),
        ("scenario:aaa", "eta = abc", "[scenario:aaa] eta: expected a number, got 'abc'"),
        ("scenario:aaa", "eta = -1",
         "[scenario:aaa] eta: eta must be a finite non-negative rate, got -1.0"),
    ])
    def test_malformed_override_names_its_section(self, section, value, message):
        doc = f"[config]\nschema_version = 1\n\n[{section}]\n{value}\n"
        with pytest.raises(InputError) as excinfo:
            load_scenarios(doc)
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize("section,key", [
        ("scenario:aaa", "etaa"),
        ("use_case:aaa:access_control", "write_payload_bytes"),
    ])
    def test_unknown_key_rejected(self, section, key):
        doc = f"[config]\nschema_version = 1\n\n[{section}]\n{key} = 1\n"
        with pytest.raises(InputError, match=rf"^\[{section}\]: unknown keys \['{key}'\]$"):
            load_scenarios(doc)

    @pytest.mark.parametrize("section,key", [
        ("scenario:bogus", "eta"),
        ("use_case:bogus:x", "reads_per_event"),
    ])
    def test_unknown_scenario_rejected(self, section, key):
        doc = f"[config]\nschema_version = 1\n\n[{section}]\n{key} = 1\n"
        with pytest.raises(InputError, match=rf"^\[{section}\]: unknown scenario id 'bogus'$"):
            load_scenarios(doc)

    def test_unknown_section_rejected(self):
        doc = "[config]\nschema_version = 1\n\n[mystery]\nx = 1\n"
        with pytest.raises(InputError, match="mystery"):
            load_scenarios(doc)

    def test_missing_schema_version(self):
        with pytest.raises(InputError, match="schema_version"):
            load_scenarios("[scenario:aaa]\neta = 1\n")

    def test_wrong_schema_version(self):
        with pytest.raises(InputError, match="schema_version"):
            load_scenarios("[config]\nschema_version = 99\n")

    def test_default_section_is_an_unknown_section(self):
        # not a section whose keys every other section inherits
        with pytest.raises(InputError, match=r"unknown section \[DEFAULT\]"):
            load_scenarios("[config]\nschema_version = 1\n\n[DEFAULT]\neta = 1\n")

    def test_duplicate_keys_conflict(self):
        doc = "[config]\nschema_version = 1\n\n[scenario:aaa]\neta = 1\neta = 2\n"
        with pytest.raises(InputError, match=r"line 6: key 'eta' repeated in \[scenario:aaa"):
            load_scenarios(doc)

    def test_duplicate_sections_conflict(self):
        doc = ("[config]\nschema_version = 1\n\n"
               "[scenario:aaa]\neta = 1\n\n[scenario:aaa]\neta = 2\n")
        with pytest.raises(InputError):
            load_scenarios(doc)


class TestLoadScenariosFuzz:
    @settings(max_examples=100, deadline=None)
    @given(doc=ini_documents(SCENARIO_INI_KEYS))
    def test_a_document_loads_or_raises_input_error(self, doc):
        # any other exception, or a RuntimeWarning (an error in this suite), fails
        try:
            catalog = load_scenarios(doc)
        except InputError:
            return
        assert list(catalog) == list(CATALOG)
        assert all(isinstance(spec, ScenarioSpec) for spec in catalog.values())
