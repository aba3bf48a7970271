"""Workloads: bandwidth, linear algebra, MP2C, collectives."""

from . import bandwidth, collective, linalg, mp2c, pingpong

__all__ = ["bandwidth", "pingpong", "linalg", "mp2c", "collective"]
