"""Diffusion-weighted MR phantom synthesis, ADC mapping, multispectral
classification (polynomial net / MLP / Kohonen SOM) and noise sweeps.
The modules are the API; the package itself holds only the version."""

__version__ = "0.1.0"
