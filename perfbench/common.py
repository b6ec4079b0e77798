"""What every workload of the benchmark shares: the checkout root and the
two ways an op can go wrong."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


class WrongOutput(Exception):
    """The program returned a result that the check rejects."""


class OpFailed(Exception):
    """The operation did not complete."""
