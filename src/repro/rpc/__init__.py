"""Two-sided RPC substrate and RPC-served data structures (the paper's
distributed-data-structure baseline, sections 1 and 3.1)."""

from .datastructures import RpcMap, RpcQueue
from .server import RpcServer, RpcServerStats

__all__ = ["RpcMap", "RpcQueue", "RpcServer", "RpcServerStats"]
