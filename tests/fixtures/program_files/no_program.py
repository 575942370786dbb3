"""No rank program: no command executes this file."""
import sys

sys.no_program_fixture_executed = True
