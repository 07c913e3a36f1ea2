"""ExecutionPolicy: validation, JSON round trip, deferred resolution.

The policy object is the single "how should this run" value the whole
stack accepts (Machine.run, ServeConfig, the serve CLI).  These tests
pin the contract pieces the rest of the repo leans on: frozen-ness,
strict JSON round trip, the ``"auto"`` modes' environment resolution,
and ``ServeConfig.policy`` as the serve tier's only execution field.
"""

import json
import pickle

import pytest

from repro.api import ExecutionPolicy
from repro.serve.config import ServeConfig


# -- construction and validation -----------------------------------------


def test_defaults_are_the_deferred_modes():
    policy = ExecutionPolicy()
    assert policy.backend == "auto"
    assert policy.check_invariants == "auto"
    assert policy.hottrace is False


def test_frozen():
    policy = ExecutionPolicy()
    with pytest.raises(Exception):
        policy.backend = "vectorized"


def test_replace_returns_modified_copy():
    base = ExecutionPolicy()
    fast = base.replace(backend="vectorized", hottrace=True)
    assert fast.backend == "vectorized" and fast.hottrace
    assert base.backend == "auto" and not base.hottrace


@pytest.mark.parametrize("bad", [
    {"backend": "cuda"},
    {"check_invariants": "maybe"},
    {"hot_threshold": 0},
    {"min_trace_len": 0},
    {"max_traces": 0},
])
def test_validation_rejects(bad):
    with pytest.raises(ValueError):
        ExecutionPolicy(**bad)


@pytest.mark.parametrize("bad", [
    # A malformed --policy JSON must fail loudly, not misconfigure the
    # serve tier via truthiness: "no" is NOT an enabled hottrace.
    {"hottrace": "no"},
    {"hottrace": "true"},
    {"hottrace": 2},
    {"hot_threshold": "3"},
    {"hot_threshold": 2.5},
    {"min_trace_len": True},
    {"max_traces": "512"},
])
def test_validation_rejects_wrong_types(bad):
    with pytest.raises(ValueError):
        ExecutionPolicy(**bad)


def test_json_zero_one_coerce_to_bool():
    # Hand-written JSON often spells booleans 0/1; that stays legal.
    assert ExecutionPolicy.from_json('{"hottrace": 1}').hottrace is True
    assert ExecutionPolicy.from_json('{"hottrace": 0}').hottrace is False


# -- JSON round trip ------------------------------------------------------


@pytest.mark.parametrize("policy", [
    ExecutionPolicy(),
    ExecutionPolicy(backend="vectorized", hottrace=True),
    ExecutionPolicy(backend="reference", hot_threshold=1,
                    min_trace_len=4, max_traces=7,
                    check_invariants="on"),
])
def test_json_round_trip(policy):
    assert ExecutionPolicy.from_json(policy.to_json()) == policy
    # And via the dict form, which the serve stats/report embedding
    # uses.
    assert ExecutionPolicy.from_json_dict(policy.to_json_dict()) == policy


def test_to_json_is_plain_sorted_json():
    text = ExecutionPolicy().to_json()
    data = json.loads(text)
    assert data["backend"] == "auto"
    assert list(data) == sorted(data)


def test_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown ExecutionPolicy"):
        ExecutionPolicy.from_json('{"backend": "auto", "turbo": true}')


def test_partial_json_fills_defaults():
    policy = ExecutionPolicy.from_json('{"hottrace": true}')
    assert policy == ExecutionPolicy(hottrace=True)


# -- pickling -------------------------------------------------------------


def test_policy_survives_pickle():
    # The fleet ships the policy to worker subprocesses inside the
    # pickled ServeConfig frame.
    policy = ExecutionPolicy(backend="reference", hottrace=True,
                             hot_threshold=2)
    assert pickle.loads(pickle.dumps(policy)) == policy


# -- deferred resolution --------------------------------------------------


def test_resolved_backend_explicit_reference():
    assert ExecutionPolicy(
        backend="reference").resolved_backend() == "reference"


def test_resolved_backend_auto_follows_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert ExecutionPolicy().resolved_backend() == "reference"


def test_invariants_active_modes(monkeypatch):
    assert ExecutionPolicy(check_invariants="on").invariants_active()
    assert not ExecutionPolicy(check_invariants="off").invariants_active()
    monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    assert not ExecutionPolicy().invariants_active()
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    assert ExecutionPolicy().invariants_active()
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
    assert not ExecutionPolicy().invariants_active()


# -- ServeConfig interplay ------------------------------------------------


def test_serve_config_rejects_policy_plus_backend():
    # The backend= field is gone: a stale caller fails loudly instead of
    # having its choice silently ignored.
    with pytest.raises(TypeError):
        ServeConfig(policy=ExecutionPolicy(), backend="reference")


def test_serve_config_policy_defaults_and_is_typed():
    assert ServeConfig().policy == ExecutionPolicy()
    policy = ExecutionPolicy(backend="vectorized", hottrace=True)
    assert ServeConfig(policy=policy).policy is policy
    with pytest.raises(TypeError, match="ExecutionPolicy"):
        ServeConfig(policy=None)
    with pytest.raises(TypeError, match="ExecutionPolicy"):
        ServeConfig(policy="vectorized")


@pytest.mark.parametrize("argv", [
    ["serve", "--policy", '{"backend": "cuda"}'],
    ["serve", "--policy", "not json"],
    ["serve", "--backend", "vectorized"],  # the flag is gone
])
def test_serve_cli_rejects_bad_execution_flags(argv, capsys):
    from repro.serve.__main__ import main
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
