import inspect

import pytest

from torusgreen import cli, errors

# the CLI exit code of every package failure: 2 for a question the package
# cannot answer, 3 for a failed cross check or convergence test
DOMAIN = {"DomainError", "InvalidInput", "NonPositiveImaginaryPart", "PoleAtLattice",
          "HalfPeriodInput", "NoExtraCriticalPoint"}
CONSISTENCY = {"ConsistencyError", "CountViolation", "InconsistentComparison",
               "ConstructionInconsistent", "Unconverged"}
BASES = (errors.DomainError, errors.ConsistencyError)


def test_every_package_error_but_unreduced_modulus_has_one_base():
    domain, consistency = set(), set()
    for name, cls in inspect.getmembers(errors, inspect.isclass):
        if not issubclass(cls, errors.TorusGreenError) or cls in BASES:
            continue
        if cls in (errors.TorusGreenError, errors.UnreducedModulus):
            assert not issubclass(cls, BASES)
            continue
        assert [issubclass(cls, base) for base in BASES].count(True) == 1, name
        (domain if issubclass(cls, errors.DomainError) else consistency).add(name)
    assert domain | {"DomainError"} == DOMAIN
    assert consistency | {"ConsistencyError"} == CONSISTENCY


def _raise_in_critical(monkeypatch, exc):
    def boom(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "critical", boom)


@pytest.mark.parametrize("name", sorted(DOMAIN | CONSISTENCY))
def test_cli_exit_code_follows_the_class(capsys, monkeypatch, name):
    _raise_in_critical(monkeypatch, getattr(errors, name)("synthetic failure"))
    code = cli.run(["critical", "--tau=i"])
    out, err = capsys.readouterr()
    assert out == ""
    if name in DOMAIN:
        assert (code, err) == (2, f"domain error ({name}): synthetic failure\n")
    else:
        assert (code, err) == (3, f"CONSISTENCY VIOLATION ({name}): synthetic failure\n")


def test_unreduced_modulus_propagates_from_the_cli(monkeypatch):
    _raise_in_critical(monkeypatch, errors.UnreducedModulus("synthetic"))
    with pytest.raises(errors.UnreducedModulus):
        cli.run(["critical", "--tau=i"])
