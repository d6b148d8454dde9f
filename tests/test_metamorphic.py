"""Metamorphic relations: pairs of desk runs (1 h, seed 1) whose scenarios
differ only in something the run never uses must write identical event
logs.  Each relation is an oracle that needs no model of the engine."""

import dataclasses

from dtnsim import engine
from dtnsim.reports import DROPPED, REASON_OVERFLOW, REASON_TTL
from dtnsim.scenario import InterfaceConfig

from conftest import desk_config


def desk(protocol="epidemic", buffer="5M", **changes):
    return dataclasses.replace(desk_config(protocol, buffer, sim_duration=3600),
                               **changes)


def with_router(cfg, **changes):
    return dataclasses.replace(cfg, router=dataclasses.replace(cfg.router, **changes))


def with_ttl(cfg, ttl):
    return dataclasses.replace(cfg, traffic=dataclasses.replace(cfg.traffic, ttl=ttl))


def drops(events, reason):
    return sum(1 for e in events if e[1] == DROPPED and e[6] == reason)


def test_binary_and_source_spray_agree_at_two_copies():
    # with L = 2 both modes give one copy away and keep one
    spray = desk("spray-and-wait")
    binary, _ = engine.run(with_router(spray, copy_budget=2, binary_mode=True), 1)
    source, _ = engine.run(with_router(spray, copy_budget=2, binary_mode=False), 1)
    assert binary == source


def test_buffers_that_never_fill_agree():
    small, _ = engine.run(desk(buffer="1000M"), 1)
    large, _ = engine.run(desk(buffer="2000M"), 1)
    assert drops(small, REASON_OVERFLOW) == 0
    assert small == large


def test_ttls_longer_than_the_run_agree():
    short, _ = engine.run(with_ttl(desk(), 3 * 3600.0), 1)
    long, _ = engine.run(with_ttl(desk(), 100 * 3600.0), 1)
    assert drops(short, REASON_TTL) == 0
    assert short == long


def test_an_unused_interface_changes_nothing():
    cfg = desk()
    lora = dict(cfg.interfaces, lora=InterfaceConfig("lora", 50_000.0, 2000.0))
    assert all("lora" not in g.interfaces for g in cfg.groups)
    without, _ = engine.run(cfg, 1)
    declared, _ = engine.run(dataclasses.replace(cfg, interfaces=lora), 1)
    assert without == declared
