"""The package root: its public names and the parameters callers can set."""

import importlib
import inspect

import alphabound as ab

LAYERS = ("graph", "bounds", "kernel", "vertex_cover", "oracle", "pipeline",
          "extremal", "formats", "errors")


def test_root_exports_every_layer_list_in_order():
    modules = [importlib.import_module(f"alphabound.{name}") for name in LAYERS]
    expected = ["__version__"] + [name for m in modules for name in m.__all__]
    assert ab.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(ab, name) is getattr(module, name), name
    assert {"DEFAULT_CAP", "format_graph", "read_graph_with_format"} <= set(ab.__all__)


def test_only_the_search_entry_points_take_a_node_budget():
    signatures = {
        name: inspect.signature(getattr(ab, name)).parameters
        for name in ab.__all__ if inspect.isfunction(getattr(ab, name))
    }
    assert {name for name, params in signatures.items() if "node_budget" in params} == {
        "decide", "vertex_cover_decide",
    }
    assert not [name for name, params in signatures.items() if "cap" in params]
    # The five whose cap or node budget became a constant.
    assert {"exact_alpha", "exact_min_vc", "alpha_by_enumeration", "decide_many",
            "max_independent_set_at_least"} <= set(signatures)
