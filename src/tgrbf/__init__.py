"""Temporal-gated RBF network, online optimization and adaptive control."""

from .network import TgrbfNet, ForwardTrace, rbf_forward, lgru_step, gate_value

__version__ = "0.1.0"
