"""Repository tooling: doc checking, the flarelint custom linter, the
same-host benchmark pair gate and the telemetry-overhead budget."""
