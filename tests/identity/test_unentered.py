"""The part of the traffic audit that needs no workload run.

``traffic_audit.py`` (CI job ``audit``, minutes) runs every workload to
find which functions none of them enters.  Whether ``unentered.json``
still names real defs, real parameters that default to ``True`` or
``False`` (or, on an ``__init__``, to another literal), real defaulted
fields of frozen dataclasses and real CLI options, each with a known
reason, is a question for the AST alone, so it is asked here in tier-1:
a deletion that leaves its line behind fails in seconds instead of in
the audit job.
"""

import json

from . import traffic_audit as audit


def _listed() -> dict[str, str]:
    return json.loads(audit.LIST_PATH.read_text())


def test_every_listed_def_exists():
    defined = set(audit.definitions().values())
    assert sorted(name for name in _listed()
                  if not name.endswith(")") and name not in defined) == []


def test_every_listed_parameter_exists_with_a_bool_default():
    """A bool default anywhere, or a literal one on a constructor."""
    forks = audit.forks()
    assert sorted(name for name in _listed()
                  if audit.rule(name) == "parameters"
                  and name not in forks) == []


def test_every_listed_field_is_a_defaulted_frozen_dataclass_field():
    fields = audit.fields()
    assert sorted(name for name in _listed()
                  if audit.rule(name) == "fields" and name not in fields) == []


def test_every_listed_cli_option_exists():
    options = audit.cli_options()
    assert sorted(name for name in _listed()
                  if audit.rule(name) == "CLI options"
                  and name not in options) == []


def test_fields_and_cli_options_are_audited():
    fields = audit.fields()
    seed = "src/repro/chaos/scenarios.py::ChaosConfig(seed)"
    assert fields[seed] == ("src/repro/chaos/scenarios.py::ChaosConfig",
                            "seed")
    assert audit.rule(seed) == "fields"
    # Mutable dataclasses are records, not options; required fields
    # have nothing to leave unset.
    assert not any("::ChaosReport(" in name for name in fields)
    assert "src/repro/cluster/specs.py::ClusterSpec(n_compute)" not in fields
    flag = "src/repro/analysis/cli.py::chaos(--seed)"
    assert audit.cli_options()[flag] == ("chaos", "--seed")
    assert audit.rule(flag) == "CLI options"
    assert audit.unset_options([["-m", "repro", "chaos", "all"]]).count(flag) == 1
    assert flag not in audit.unset_options(
        [["-m", "repro", "chaos", "all", "--seed", "1"]])


def test_constructor_literal_defaults_are_audited():
    forks = audit.forks()
    init = "src/repro/core/coalesce.py::FrameCoalescer.__init__(window_s)"
    assert forks[init][1:] == ("window_s", 0.0)
    # A literal default outside a constructor is a call option, not one.
    assert "src/repro/core/arm.py::ArmClient.alloc(job)" not in forks
    assert forks["src/repro/core/arm.py::ArmClient.alloc(wait)"][2] is True


def test_every_reason_is_known():
    unknown = {name: reason for name, reason in _listed().items()
               if reason not in audit.REASONS}
    assert unknown == {}
