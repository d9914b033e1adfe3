import pytest
from hypothesis import given, strategies as st

from chaincap.errors import ConflictError, DomainError, SchemaError
from chaincap.scenarios import (
    ScenarioId,
    UseCaseSpec,
    builtin_scenarios,
    load_scenarios,
    scenario_by_id,
    workload_for,
)


class TestCatalog:
    def test_exactly_seven_scenarios(self):
        assert len(builtin_scenarios()) == 7
        assert {s.id for s in builtin_scenarios()} == set(ScenarioId)

    def test_public_key_mgmt_subscriber_key_multiplicities(self):
        spec = scenario_by_id(ScenarioId.PUBLIC_KEY_MGMT)
        uc = spec.use_case("subscriber_key")
        assert (uc.reads_per_event, uc.writes_per_event) == (0, 1)
        assert spec.default_eta == 0.0115

    def test_aaa_access_control_multiplicities(self):
        spec = scenario_by_id(ScenarioId.AAA)
        uc = spec.use_case("access_control")
        # 3 authentications x 1 read + 1 authorization x (2 reads + 1 write)
        assert (uc.reads_per_event, uc.writes_per_event) == (5, 1)
        assert spec.default_eta == 8333.0

    def test_every_scenario_has_use_cases(self):
        for spec in builtin_scenarios():
            assert spec.use_cases
            for uc in spec.use_cases:
                assert uc.reads_per_event + uc.writes_per_event >= 1

    def test_default_eta_only_for_operator_backed_scenarios(self):
        with_eta = {s.id for s in builtin_scenarios() if s.default_eta is not None}
        assert with_eta == {ScenarioId.PUBLIC_KEY_MGMT, ScenarioId.AAA}


class TestWorkloadFor:
    def test_public_key_mgmt_case_study(self):
        uc = scenario_by_id(ScenarioId.PUBLIC_KEY_MGMT).use_case("subscriber_key")
        w = workload_for(uc, 0.0115)
        assert w.lambda_write == 0.0115
        assert w.lambda_read == 0.0

    def test_aaa_case_study(self):
        uc = scenario_by_id(ScenarioId.AAA).use_case("access_control")
        w = workload_for(uc, 8333)
        assert w.lambda_write == 8333
        assert w.lambda_read == 41665

    def test_zero_eta(self):
        for spec in builtin_scenarios():
            w = workload_for(spec, 0.0)
            assert w.lambda_read == 0.0 and w.lambda_write == 0.0

    def test_negative_eta_rejected(self):
        with pytest.raises(DomainError):
            workload_for(scenario_by_id(ScenarioId.AAA), -1.0)

    def test_zero_events(self):
        assert workload_for(UseCaseSpec("w", 0, 7), 0).lambda_write == 0
        assert workload_for(UseCaseSpec("r", 0, 1), 5).lambda_read == 0

    def test_hand_multiplication(self):
        assert workload_for(UseCaseSpec("r", 3, 0), 1000).lambda_read == 3000

    @given(eta=st.floats(0, 1e6, allow_nan=False), beta=st.integers(0, 100),
           c=st.integers(1, 1000))
    def test_linearity(self, eta, beta, c):
        uc = UseCaseSpec("w", 1, beta)  # one read keeps the use case valid when beta == 0
        base = workload_for(uc, eta).lambda_write
        scaled = workload_for(uc, c * eta).lambda_write
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_invalid_multiplicity(self):
        with pytest.raises(DomainError):
            workload_for(UseCaseSpec("none", 0, 0), 1.0)
        with pytest.raises(DomainError):
            workload_for(UseCaseSpec("neg", -1, 2), 1.0)

    def test_additivity_over_use_cases(self):
        eta = 3.25
        for spec in builtin_scenarios():
            whole = workload_for(spec, eta)
            parts_read = sum(workload_for(uc, eta).lambda_read for uc in spec.use_cases)
            parts_write = sum(workload_for(uc, eta).lambda_write for uc in spec.use_cases)
            assert whole.lambda_read == parts_read
            assert whole.lambda_write == parts_write


class TestLoadScenarios:
    def test_empty_document_is_identity(self):
        assert load_scenarios("") == builtin_scenarios()

    def test_eta_override_is_a_point_update(self):
        doc = "[config]\nschema_version = 1\n\n[scenario:aaa]\neta = 9000\n"
        catalog = load_scenarios(doc)
        by_id = {s.id: s for s in catalog}
        assert by_id[ScenarioId.AAA].default_eta == 9000.0
        untouched = [s for s in catalog if s.id is not ScenarioId.AAA]
        baseline = [s for s in builtin_scenarios() if s.id is not ScenarioId.AAA]
        assert untouched == baseline

    def test_use_case_override_keeps_trigger(self):
        doc = ("[config]\nschema_version = 1\n\n"
               "[use_case:aaa:access_control]\nreads_per_event = 7\n")
        catalog = load_scenarios(doc)
        uc = next(s for s in catalog if s.id is ScenarioId.AAA).use_case("access_control")
        assert uc.reads_per_event == 7
        assert uc.writes_per_event == 1
        assert uc.trigger  # built-in trigger text survives numeric overrides

    def test_new_use_case(self):
        doc = ("[config]\nschema_version = 1\n\n"
               "[use_case:aaa:bulk_audit]\nreads_per_event = 2\nwrites_per_event = 0\n")
        catalog = load_scenarios(doc)
        uc = next(s for s in catalog if s.id is ScenarioId.AAA).use_case("bulk_audit")
        assert (uc.reads_per_event, uc.writes_per_event) == (2, 0)

    def test_negative_multiplicity_names_the_field(self):
        doc = ("[config]\nschema_version = 1\n\n"
               "[use_case:aaa:access_control]\nreads_per_event = -3\n")
        with pytest.raises(SchemaError, match="reads_per_event"):
            load_scenarios(doc)

    def test_unknown_key_rejected(self):
        doc = "[config]\nschema_version = 1\n\n[scenario:aaa]\netaa = 1\n"
        with pytest.raises(SchemaError, match="etaa"):
            load_scenarios(doc)

    def test_unknown_scenario_rejected(self):
        doc = "[config]\nschema_version = 1\n\n[scenario:bogus]\neta = 1\n"
        with pytest.raises(SchemaError, match="bogus"):
            load_scenarios(doc)

    def test_unknown_section_rejected(self):
        doc = "[config]\nschema_version = 1\n\n[mystery]\nx = 1\n"
        with pytest.raises(SchemaError, match="mystery"):
            load_scenarios(doc)

    def test_missing_schema_version(self):
        with pytest.raises(SchemaError, match="schema_version"):
            load_scenarios("[scenario:aaa]\neta = 1\n")

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaError, match="schema_version"):
            load_scenarios("[config]\nschema_version = 99\n")

    def test_duplicate_sections_conflict(self):
        doc = ("[config]\nschema_version = 1\n\n"
               "[scenario:aaa]\neta = 1\n\n[scenario:aaa]\neta = 2\n")
        with pytest.raises(ConflictError):
            load_scenarios(doc)

