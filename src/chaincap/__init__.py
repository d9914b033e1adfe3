"""chaincap: capacity assessment for consortium-blockchain 6G workloads."""

__version__ = "0.1.0"
