"""Temporal-gated RBF network, online optimization and adaptive control."""

from .network import TgrbfNet, ForwardTrace, rbf_forward, lgru_step

__version__ = "0.1.0"
