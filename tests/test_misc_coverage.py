"""Small coverage sweeps across packages."""

import pytest

from repro.dnswire import Zone
from repro.dnswire.name import DnsName


class TestDnswireMisc:

    def test_zone_repr(self):
        zone = Zone("example.com.")
        assert "example.com." in repr(zone)

    def test_name_iter_and_len(self):
        name = DnsName.from_text("a.b.c")
        assert list(name) == ["a", "b", "c"]
        assert len(name) == 3

    def test_name_repr(self):
        assert "a.b." in repr(DnsName.from_text("a.b"))

    def test_many_labels(self):
        # 100 single-char labels: 100*2+1 = 201 bytes, legal.
        name = DnsName(tuple("x" for _ in range(100)))
        from repro.dnswire.wire import WireReader, WireWriter

        writer = WireWriter()
        name.encode(writer)
        assert DnsName.decode(WireReader(writer.getvalue())) == name


class TestPackageSurface:
    """The public API advertised in __all__ must import and exist."""

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.dnswire",
            "repro.net",
            "repro.resolvers",
            "repro.cpe",
            "repro.interceptors",
            "repro.atlas",
            "repro.core",
            "repro.analysis",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_all_exports_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{module_name}.{symbol}"

    def test_version_string(self):
        import repro

        assert repro.__version__

    def test_diagnose_household_in_root(self):
        import repro

        assert callable(repro.diagnose_household)


class TestFigureRendering:
    def test_custom_symbols_and_width(self):
        from repro.analysis.figures import FigureSeries

        series = FigureSeries(
            title="T",
            categories=("a", "b"),
            rows=[("row", {"a": 2, "b": 2})],
        )
        text = series.render(symbols=("@", "%"), width=8)
        assert "@@@@%%%%" in text

    def test_totals(self):
        from repro.analysis.figures import FigureSeries

        series = FigureSeries(
            title="T",
            categories=("a",),
            rows=[("x", {"a": 1}), ("y", {"a": 2})],
        )
        assert series.totals() == {"a": 3}
