"""`python -m f4prolong`: the command line of `f4prolong.cli`."""
from f4prolong.cli import main

main()
