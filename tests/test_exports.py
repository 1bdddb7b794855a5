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
