"""deeplint — token-level semantic lint for DMX (see deeplint.py)."""
