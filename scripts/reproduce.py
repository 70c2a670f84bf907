#!/usr/bin/env python3
"""Runs the evaluation protocols of `amner.protocol`; see --help."""

from amner.protocol import main

if __name__ == "__main__":
    raise SystemExit(main())
