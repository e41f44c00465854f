"""`python -m seqmatch ...` runs the command-line front end."""

from .cli import main

main()
