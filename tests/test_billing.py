"""Tests for accounting-based billing with SLA credits."""

import pytest

from repro.core.manifest.sla import SLASection, ServiceLevelObjective
from repro.core.service_manager.accounting import ServiceAccountant
from repro.core.service_manager.billing import (
    BillingService,
    Invoice,
    InvoiceLine,
    PriceSchedule,
)
from repro.core.sla import SLAMonitor
from repro.monitoring.measurements import Measurement
from repro.sim.kernel import Environment


def accountant_with_usage(env):
    acc = ServiceAccountant(env, "svc-1")

    def drive(env):
        acc.instance_deployed("web")          # t=0: 1 instance
        yield env.timeout(1800)
        acc.instance_deployed("web")          # t=1800: 2 instances
        acc.instance_deployed("db")
        yield env.timeout(1800)
        acc.instance_released("web")          # t=3600: back to 1 web

    env.process(drive(env))
    env.run(until=7200)
    return acc


# ---------------------------------------------------------------------------
# PriceSchedule
# ---------------------------------------------------------------------------

def test_schedule_rates_and_validation():
    schedule = PriceSchedule(rates=(("web", 0.5), ("db", 1.25)),
                             default_rate=0.1)
    assert schedule.rate_for("web") == 0.5
    assert schedule.rate_for("db") == 1.25
    assert schedule.rate_for("other") == 0.1
    with pytest.raises(ValueError):
        PriceSchedule(default_rate=-1)
    with pytest.raises(ValueError):
        PriceSchedule(rates=(("a", -0.5),))
    with pytest.raises(ValueError):
        PriceSchedule(rates=(("a", 1.0), ("a", 2.0)))
    with pytest.raises(ValueError):
        PriceSchedule(deployment_fee=-1)


# ---------------------------------------------------------------------------
# Invoicing
# ---------------------------------------------------------------------------

def test_invoice_prices_instance_hours():
    env = Environment()
    acc = accountant_with_usage(env)
    billing = BillingService(acc, PriceSchedule(
        rates=(("web", 0.5), ("db", 2.0))))
    invoice = billing.invoice(0, 7200)
    lines = {l.component: l for l in invoice.lines}
    # web: 1 inst × 0.5 h + 2 inst × 0.5 h + 1 inst × 1 h = 2.5 inst-hours
    assert lines["web"].instance_hours == pytest.approx(2.5)
    assert lines["web"].usage_amount == pytest.approx(1.25)
    # db: 1 inst × 1.5 h
    assert lines["db"].instance_hours == pytest.approx(1.5)
    assert lines["db"].amount == pytest.approx(3.0)
    assert invoice.subtotal == pytest.approx(4.25)
    assert invoice.total == pytest.approx(4.25)


def test_deployment_fee_charged_once():
    env = Environment()
    acc = accountant_with_usage(env)
    billing = BillingService(acc, PriceSchedule(default_rate=0.0,
                                                deployment_fee=10.0))
    first = billing.invoice(0, 3600)
    assert sum(l.deployments for l in first.lines) == 3
    assert first.total == pytest.approx(30.0)
    second = billing.invoice(3600, 7200)
    assert sum(l.deployments for l in second.lines) == 0
    assert second.total == 0.0


def test_invoice_window_validation():
    env = Environment()
    acc = accountant_with_usage(env)
    billing = BillingService(acc)
    with pytest.raises(ValueError):
        billing.invoice(100, 50)


def test_invoice_render_contains_totals():
    env = Environment()
    acc = accountant_with_usage(env)
    billing = BillingService(acc, PriceSchedule(rates=(("web", 0.5),)))
    text = billing.invoice(0, 7200).render()
    assert "svc-1" in text
    assert "web" in text and "db" in text
    assert "total" in text


def test_sla_credits_deducted():
    env = Environment()
    acc = accountant_with_usage(env)
    slo = ServiceLevelObjective.from_text(
        "fast", "@a.b < 1", evaluation_period_s=10,
        assessment_window_s=100, penalty_per_breach=2.0,
        defaults={"a.b": 0})
    monitor = SLAMonitor(env, "svc-1", SLASection((slo,)),
                         kpi_defaults={"a.b": 0})
    monitor.notify(Measurement("a.b", "svc-1", "p", 0.0, (9,)))
    monitor.start()
    env.run(until=env.now + 201)  # two breached windows
    assert monitor.penalties_accrued == pytest.approx(4.0)

    billing = BillingService(acc, PriceSchedule(rates=(("web", 0.5),)),
                             sla_monitor=monitor)
    invoice = billing.invoice(0, env.now)
    assert invoice.sla_credits == pytest.approx(4.0)
    # Credits exceed the usage charge here; the total clamps at zero.
    assert invoice.subtotal < 4.0
    assert invoice.total == 0.0


def test_credits_never_make_total_negative():
    env = Environment()
    acc = ServiceAccountant(env, "svc-1")
    invoice = Invoice("svc-1", 0, 100, lines=(
        InvoiceLine("web", 1.0, 0.1, 0, 0.0),
    ), sla_credits=1000.0)
    assert invoice.total == 0.0


def test_end_to_end_billing_of_polymorph_run():
    """Bill the paper's elastic Table 3 run: the exec tier dominates."""
    from repro.experiments.polymorph import TestbedConfig, run_elastic
    from repro.grid.polymorph import PolymorphSearchConfig

    small = PolymorphSearchConfig(
        seed_durations_s=(300.0, 450.0), refinements_per_seed=24,
        refinement_mean_s=60.0, setup_s=20, gather_s=20, generate_s=5)
    result = run_elastic(small, TestbedConfig())
    # RunResult keeps the accountant's series via nodes_series; rebuild a
    # billing view straight from the node-seconds integral.
    node_hours = result.nodes_series.integral(
        result.run_start, result.run_end) / 3600
    schedule = PriceSchedule(rates=(("exec", 0.25),))
    amount = node_hours * schedule.rate_for("exec")
    assert amount > 0
    # Elastic billing beats paying for 16 dedicated nodes over the run.
    dedicated_hours = 16 * (result.run_end - result.run_start) / 3600
    assert node_hours < dedicated_hours
