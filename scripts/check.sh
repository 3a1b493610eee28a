#!/bin/sh
# The full verification gate, for callers that expect a script: it is
# `make check`, nothing less.
cd "$(dirname "$0")/.." && exec make check
