"""Structural guards: the load -> extend -> quotient -> analyze path must
not reach the combinatorial kernels.  `wedge` expands eta ^ (d eta)^n term
by term and `bracket`-per-triple Jacobi checks are O(n^6); both stay public
but are patched here to raise wherever a contactlie module holds them."""

import sys

import pytest

import contactlie
from contactlie.algebra import check_jacobi
from contactlie.catalog import catalog
from contactlie.contact import contact_structure
from contactlie.extension import (analyze_kcontact, central_extension,
                                  central_quotient)
from contactlie.forms import is_contact

CAT = catalog()


def forbid(monkeypatch, module, name):
    """Replace module.name by a raiser at every contactlie import site."""
    original = getattr(module, name)

    def raiser(*args, **kwargs):
        raise AssertionError("%s reached from a hot path" % name)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "contactlie" and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, raiser)


def test_pipeline_never_calls_wedge(monkeypatch):
    forbid(monkeypatch, contactlie.forms, "wedge")
    for name in ("r2_sympl", "r4_sympl", "aff1_aff1_sympl"):
        algebra, eta = central_extension(CAT[name].symplectic())
        assert central_quotient(contact_structure(algebra, eta)).omega == \
            CAT[name].omega
    for name, e in CAT.items():
        if e.kind != "contact":
            continue
        assert is_contact(e.algebra, e.eta)[0]
        c = contact_structure(e.algebra, e.eta)
        if e.metric is not None:
            assert analyze_kcontact(c, e.metric).dim == e.algebra.dim


def test_check_jacobi_never_calls_bracket(monkeypatch):
    extension, _ = central_extension(CAT["aff1_aff1_sympl"].symplectic())
    forbid(monkeypatch, contactlie.algebra, "bracket")
    with pytest.raises(AssertionError):
        contactlie.algebra.bracket(extension, [0] * 5, [0] * 5)
    for e in CAT.values():
        assert check_jacobi(e.algebra) == []
    assert check_jacobi(extension) == []
