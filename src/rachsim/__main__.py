"""`python -m rachsim`: the rachsim command line."""
from .cli import main
raise SystemExit(main())
