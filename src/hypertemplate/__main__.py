"""``python -m hypertemplate``: the command-line workbench."""

from .cli import main

main()
