"""Operator palette: each node kind's class is NODE_KINDS[kind].

Importing this package imports every submodule, whose @register fills
NODE_KINDS, so code outside the palette looks a class up by its kind name.
"""

from .base import NODE_KINDS, Node, Param, register
from . import probes, recovery, routing, discovery, redundancy, util  # noqa: F401

__all__ = ["NODE_KINDS", "Node", "Param", "register"]
