"""Every module, definition, defaulted parameter and defaulted dataclass
field under ``src/repro`` is reached by the program (``python -m repro``,
``examples/``, ``benchmarks/``, ``bench/``): reproflow's RCH601–RCH604
verdict, rule by rule, read off the one whole-tree lint in
``test_reprolint``.  A ``# reproflow: disable=RCH60x`` that silences
nothing is reported under its rule, so it fails here too.
"""

from tests.test_reprolint import repo_findings


def test_every_module_is_reached_outside_tests():
    assert repo_findings("RCH601") == []


def test_every_definition_is_named_outside_tests():
    assert repo_findings("RCH602") == []


def test_every_defaulted_parameter_is_set_outside_tests():
    assert repo_findings("RCH603") == []


def test_every_defaulted_field_is_set_outside_tests():
    assert repo_findings("RCH604") == []
