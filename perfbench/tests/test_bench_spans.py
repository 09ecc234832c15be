import weaksdp
import weaksdp.certify
import weaksdp.exact
import weaksdp.linalg
from weaksdp import SymMatrix

import spans
from spans import NAME, ORDER, PARENT, Tracer


def test_wrapper_returns_the_very_object_the_function_returns():
    marker = object()
    tracer = Tracer()
    wrapped = tracer.wrap("exact.inner", lambda *args: marker)
    assert wrapped(1, 2) is marker
    assert [s[NAME] for s in tracer.spans] == ["exact.inner"]


def test_install_patches_every_module_by_identity_and_uninstall_restores():
    original = weaksdp.linalg.determinant
    tracer = Tracer()
    tracer.install()
    try:
        assert weaksdp.linalg.determinant is not original
        # the same wrapper replaces the name in every module that imported it
        assert weaksdp.certify.determinant is weaksdp.linalg.determinant
        assert weaksdp.determinant is weaksdp.linalg.determinant
        a = SymMatrix.from_rows([[1, 2], [2, 5]])
        assert weaksdp.inner(a, a) == 1 + 8 + 25
        assert weaksdp.linalg.is_positive_definite(a) is True
    finally:
        tracer.uninstall()
    assert weaksdp.linalg.determinant is original
    assert weaksdp.certify.determinant is original
    names = [s[NAME] for s in tracer.spans]
    assert names == ["exact.inner", "linalg.is_positive_definite", "linalg.psd_certify"]
    assert tracer.spans[2][PARENT] == 1


def test_missing_names_are_tolerated(monkeypatch):
    layers = dict(spans.LAYERS)
    layers["exact"] = layers["exact"] + ("no_such_function",)
    monkeypatch.setattr(spans, "LAYERS", layers)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["exact.no_such_function"]


def test_sized_spans_record_the_instance_order():
    from weaksdp import GenConfig

    tracer = Tracer()
    tracer.install()
    try:
        weaksdp.generate(GenConfig(n=6, m=4, k=1, l=1, seed=3, messy=True))
    finally:
        tracer.uninstall()
    orders = {s[NAME]: s[ORDER] for s in tracer.spans}
    assert orders["generator.messify"] == 6
    assert orders["generator.extend_constraints"] == 6
    assert orders["exact.inner"] == 0


def test_paused_tracer_records_nothing():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.paused():
            weaksdp.determinant(weaksdp.Matrix.identity(2))
    finally:
        tracer.uninstall()
    assert tracer.spans == []
