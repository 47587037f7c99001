"""`python -m coincomp ...` runs the command-line interface."""

from .cli import entry

entry()
