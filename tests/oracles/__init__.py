"""Reference implementations the test suite checks the optimized cores
against.  They are deliberately the plain, obviously-correct versions
of the arithmetic; nothing under ``src/`` imports them."""
