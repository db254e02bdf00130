"""Integration tests: the five fault-tolerance schemes on the threaded runtime.

These are the functional heart of the reproduction: for every scheme and
failure placement, a run with injected failures must observe exactly the
reads of a failure-free reference — except ``individual``, which must
demonstrably violate consistency (paper Figure 2).
"""

import pytest

from repro.errors import ConfigError
from repro.geometry import Domain
from repro.obs import registry as _obs
from repro.runtime import (
    ComponentSpec,
    FailurePlan,
    ThreadedWorkflow,
    run_with_reference,
)
from repro.staging import ProtectionConfig
from repro.workloads import coupled_specs

pytestmark = pytest.mark.integration


def specs(steps=10, **kw):
    return coupled_specs(num_steps=steps, domain=Domain((8, 8, 8)), **kw)


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            ThreadedWorkflow(specs(), "quantum")

    def test_empty_specs(self):
        with pytest.raises(ConfigError):
            ThreadedWorkflow([], "ds")

    def test_duplicate_names(self):
        s = specs()
        s[1].name = s[0].name
        with pytest.raises(ConfigError):
            ThreadedWorkflow(s, "ds")

    def test_domain_mismatch(self):
        s = specs()
        s[1].domain = Domain((4, 4, 4))
        with pytest.raises(ConfigError):
            ThreadedWorkflow(s, "ds")


class TestFailureFree:
    def test_ds_baseline(self):
        run = ThreadedWorkflow(specs(), "ds").run()
        assert run.failures_injected == 0
        assert run.component_stats["analytic"].gets == 10
        assert run.component_stats["simulation"].puts == 10

    def test_uncoordinated_failure_free_consistent(self):
        _, run = run_with_reference(specs(), "uncoordinated")
        assert run.consistent
        assert run.component_stats["analytic"].rollbacks == 0

    def test_checkpoints_taken_at_periods(self):
        run = ThreadedWorkflow(specs(steps=10, sim_period=4, analytic_period=5), "uncoordinated").run()
        # sim checkpoints after steps 3 and 7; ana after step 4 (and 9
        # suppressed: period boundary at step 9 is the last step).
        assert run.component_stats["simulation"].checkpoints_taken == 2
        assert run.component_stats["analytic"].checkpoints_taken == 2


class TestUncoordinated:
    def test_consumer_failure_replays(self):
        _, run = run_with_reference(
            specs(), "uncoordinated", failures=[FailurePlan("analytic", 7)]
        )
        assert run.consistent
        stats = run.component_stats["analytic"]
        assert stats.rollbacks == 1
        assert stats.replayed_gets > 0

    def test_producer_failure_suppresses_puts(self):
        _, run = run_with_reference(
            specs(), "uncoordinated", failures=[FailurePlan("simulation", 6)]
        )
        assert run.consistent
        stats = run.component_stats["simulation"]
        assert stats.rollbacks == 1
        assert stats.suppressed_puts > 0

    def test_failure_before_first_checkpoint(self):
        _, run = run_with_reference(
            specs(), "uncoordinated", failures=[FailurePlan("analytic", 2)]
        )
        assert run.consistent
        # Restarted from the beginning (no checkpoint yet).
        assert run.component_stats["analytic"].steps_reexecuted >= 2

    def test_both_components_fail(self):
        _, run = run_with_reference(
            specs(steps=12),
            "uncoordinated",
            failures=[FailurePlan("simulation", 5), FailurePlan("analytic", 9)],
        )
        assert run.consistent
        assert run.component_stats["simulation"].rollbacks == 1
        assert run.component_stats["analytic"].rollbacks == 1

    def test_repeated_failures_same_component(self):
        _, run = run_with_reference(
            specs(steps=12),
            "uncoordinated",
            failures=[FailurePlan("analytic", 4), FailurePlan("analytic", 9)],
        )
        assert run.consistent
        assert run.component_stats["analytic"].rollbacks == 2

    def test_failure_at_last_step(self):
        _, run = run_with_reference(
            specs(), "uncoordinated", failures=[FailurePlan("analytic", 9)]
        )
        assert run.consistent


class TestCoordinated:
    def test_consumer_failure_rolls_back_everyone(self):
        _, run = run_with_reference(
            specs(),
            "coordinated",
            failures=[FailurePlan("analytic", 7)],
            coordinated_period=4,
        )
        assert run.consistent
        assert run.component_stats["simulation"].rollbacks == 1
        assert run.component_stats["analytic"].rollbacks == 1

    def test_producer_failure(self):
        _, run = run_with_reference(
            specs(),
            "coordinated",
            failures=[FailurePlan("simulation", 6)],
            coordinated_period=4,
        )
        assert run.consistent

    def test_failure_before_first_coordinated_checkpoint(self):
        _, run = run_with_reference(
            specs(),
            "coordinated",
            failures=[FailurePlan("analytic", 2)],
            coordinated_period=4,
        )
        assert run.consistent

    def test_failure_before_first_checkpoint_with_protection(self):
        # Rolling back to "never checkpointed" must rewind the protection
        # records with the data. Stale records make covers() true for
        # versions whose fragments are gone, so the consumer's blocking get
        # spins through data-phase retries instead of waiting.
        reference = ThreadedWorkflow(specs(), "ds").run()
        retries = _obs.counter("staging.service.data_phase.retries")
        before = retries.value
        run = ThreadedWorkflow(
            specs(),
            "coordinated",
            failures=[FailurePlan("analytic", 2)],
            coordinated_period=4,
            protection=ProtectionConfig(mode="rs", parity=1),
        ).run()
        run.verify_against(reference)
        assert run.component_stats["simulation"].rollbacks == 1
        assert retries.value == before

    def test_two_failures(self):
        _, run = run_with_reference(
            specs(steps=12),
            "coordinated",
            failures=[FailurePlan("simulation", 5), FailurePlan("analytic", 10)],
            coordinated_period=4,
        )
        assert run.consistent
        assert run.component_stats["analytic"].rollbacks == 2


class TestHybrid:
    def test_replica_failover_no_rollback(self):
        _, run = run_with_reference(
            specs(), "hybrid", failures=[FailurePlan("analytic", 5)]
        )
        assert run.consistent
        stats = run.component_stats["analytic"]
        assert stats.failovers == 1
        assert stats.rollbacks == 0

    def test_producer_still_uses_rollback(self):
        _, run = run_with_reference(
            specs(), "hybrid", failures=[FailurePlan("simulation", 6)]
        )
        assert run.consistent
        assert run.component_stats["simulation"].rollbacks == 1

    def test_replica_budget_exhaustion_falls_back_to_rollback(self):
        _, run = run_with_reference(
            specs(steps=12),
            "hybrid",
            failures=[FailurePlan("analytic", 3), FailurePlan("analytic", 8)],
        )
        assert run.consistent
        stats = run.component_stats["analytic"]
        assert stats.failovers == 1
        assert stats.rollbacks == 1


class TestIndividual:
    def test_consumer_failure_yields_inconsistency(self):
        _, run = run_with_reference(
            specs(),
            "individual",
            failures=[FailurePlan("analytic", 7)],
            expect_consistent=False,
        )
        assert run.consistent is False

    def test_failure_free_individual_is_consistent(self):
        _, run = run_with_reference(specs(), "individual")
        assert run.consistent
