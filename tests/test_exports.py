"""The public names each layer module declares."""

import importlib

import pytest

LAYERS = ("potentials", "spectra", "susyqm", "wavefunctions", "limits",
          "oracle")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # Tools that wrap the public functions look each __all__ entry up with
    # getattr, so a name left behind by a rename breaks them at start-up.
    module = importlib.import_module(f"diracbound.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, f"{layer}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("layer", LAYERS)
def test_the_package_reexports_every_layer_name(layer):
    # `from diracbound import name` must reach every public name, so one
    # added to a layer's __all__ cannot be left out of the package.
    package = importlib.import_module("diracbound")
    module = importlib.import_module(f"diracbound.{layer}")
    missing = [name for name in module.__all__
               if getattr(package, name, None) is not getattr(module, name)]
    assert not missing, f"diracbound does not re-export {missing}"
